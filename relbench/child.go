package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns what a run creates outside its own memory: the scratch
// directory and the relserver children. close removes and kills all of it,
// on every exit path.
type harness struct {
	bin    string // directory holding relserver and relsnap
	dir    string // scratch directory of this run, removed by close
	client *http.Client

	mu   sync.Mutex
	live map[*child]bool
}

func newHarness(bin, tmp string) (*harness, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "relbench-")
	if err != nil {
		return nil, err
	}
	return &harness{
		bin: bin,
		dir: dir,
		// Two connections at most, ever: the widest workload has two clients.
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
			Timeout:   60 * time.Second,
		},
		live: map[*child]bool{},
	}, nil
}

func (h *harness) close() {
	h.mu.Lock()
	kids := make([]*child, 0, len(h.live))
	for c := range h.live {
		kids = append(kids, c)
	}
	h.mu.Unlock()
	for _, c := range kids {
		c.kill()
	}
	h.client.CloseIdleConnections()
	os.RemoveAll(h.dir)
}

// child is one relserver process.
type child struct {
	h    *harness
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	logf string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// serverArgs are the flags every workload's child gets; source selects
// the graph (-dataset ... or -snapshot ...).
func serverArgs(source ...string) []string {
	return append(source,
		"-workers", strconv.Itoa(workers), "-cache", strconv.Itoa(cacheSize), "-maxk", strconv.Itoa(maxK))
}

func datasetSource(name string) []string {
	return []string{"-dataset", name, "-scale", "1", "-seed", strconv.Itoa(graphSeed)}
}

// spawn starts relserver on a free loopback port and waits for /readyz.
// A child that dies before it is ready (the port was taken in between) is
// retried on another port.
func (h *harness) spawn(ctx context.Context, args []string) (*child, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := h.spawnOnce(ctx, args)
		if err == nil {
			return c, nil
		}
		last = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, last
}

func (h *harness) spawnOnce(ctx context.Context, args []string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.CreateTemp(h.dir, "relserver-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(h.bin, "relserver"), append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stdout, cmd.Stderr = logf, logf
	// A harness that is killed outright must not leave the child serving.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{h: h, cmd: cmd, base: "http://" + addr, logf: logf.Name(), done: make(chan struct{})}
	h.mu.Lock()
	h.live[c] = true
	h.mu.Unlock()
	go func() {
		c.err = cmd.Wait()
		h.mu.Lock()
		delete(h.live, c)
		h.mu.Unlock()
		close(c.done)
	}()

	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("relserver exited before it was ready: %v\n%s", c.err, c.logTail())
		case <-ctx.Done():
			c.kill()
			return nil, fmt.Errorf("relserver not ready: %w\n%s", ctx.Err(), c.logTail())
		default:
		}
		resp, err := h.client.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) logTail() string {
	b, _ := os.ReadFile(c.logf)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// stop asks for a graceful drain (SIGTERM: relserver closes its sidecar
// after in-flight requests finish) and kills the child if it overstays.
func (c *child) stop() error {
	c.h.client.CloseIdleConnections() // idle keep-alives would hold the drain open
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
		return c.err
	case <-time.After(10 * time.Second):
		c.kill()
		return errors.New("relserver did not drain within 10s of SIGTERM")
	}
}

// cpuSeconds is the child's user+system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	const clockTick = 100 // USER_HZ on every Linux this runs on
	return (utime + stime) / clockTick, nil
}

// rssMiB is the child's current resident set.
func (c *child) rssMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// getJSON decodes a GET endpoint of the child into v.
func (c *child) getJSON(path string, v any) error {
	resp, err := c.h.client.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// post sends one pre-encoded request and returns status and full body.
func (c *child) post(st *step) (int, []byte, error) {
	resp, err := c.h.client.Post(c.base+st.path, "application/json", bytes.NewReader(st.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// runTool executes a helper binary (relsnap) to completion.
func (h *harness) runTool(ctx context.Context, name string, args ...string) error {
	cmd := exec.CommandContext(ctx, filepath.Join(h.bin, name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return nil
}

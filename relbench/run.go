package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"relcomp"
)

const setupReps = 3 // set-ups per run; setup_s is their median

// probSlack is how far outside [0,1] a reliability may round: RSS sums
// stratum estimates in floating point and has answered 1.0000000000000002.
const probSlack = 1e-9

// answer is one query result as relserver reports it.
type answer struct {
	S           int     `json:"s"`
	T           int     `json:"t"`
	Estimator   string  `json:"estimator"`
	Reliability float64 `json:"reliability"`
	Epoch       uint64  `json:"epoch"`
	SamplesUsed int     `json:"samples_used"`
	Error       string  `json:"error"`
}

type batchReply struct {
	Results []answer `json:"results"`
	Error   string   `json:"error"`
}

type mutateReply struct {
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
	Error   string `json:"error"`
}

// engineStats is the part of GET /v1/engine/stats the benchmark reads.
type engineStats struct {
	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	BoundsAnswered uint64 `json:"boundsAnswered"`
	Admission      struct {
		Shed     uint64 `json:"shed"`
		TimedOut uint64 `json:"timedOut"`
	} `json:"admission"`
	Mutations struct {
		Epoch              uint64 `json:"epoch"`
		Batches            uint64 `json:"batches"`
		InvalidatedSources uint64 `json:"invalidatedSources"`
		IndexRepairs       uint64 `json:"indexRepairs"`
		IndexRebuilds      uint64 `json:"indexRebuilds"`
	} `json:"mutations"`
	Estimators map[string]struct {
		Routed uint64 `json:"routed"`
	} `json:"estimators"`
}

// exchange is one request of the measured loop and what came back.
type exchange struct {
	step       *step
	start, end time.Duration // since the window opened
	status     int
	body       []byte
	err        error
}

// tally counts what a run attempted and what failed. The first few
// failures say why on standard error.
type tally struct {
	attempted, failed int
}

// check records one attempted operation, failed unless err is nil.
func (t *tally) check(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	if t.failed++; t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "relbench: FAILED: %v\n", err)
	}
	return false
}

// run is one workload run in progress.
type run struct {
	h    *harness
	w    *workload
	g    *relcomp.Graph
	plan *plan
	tally
	snap string // snapshot path, mutate mix only
}

func newRun(h *harness, w *workload, seed uint64) (*run, error) {
	g, err := relcomp.Dataset(w.dataset, 1, graphSeed)
	if err != nil {
		return nil, err
	}
	p, err := buildPlan(w, g, seed)
	if err != nil {
		return nil, err
	}
	r := &run{h: h, w: w, g: g, plan: p}
	if w.shape == mutateMix {
		r.snap = filepath.Join(h.dir, w.name+".snap")
	}
	return r, nil
}

func (r *run) removeSnapshot() {
	if r.snap == "" {
		return
	}
	os.Remove(r.snap)
	os.Remove(relcomp.MutationSidecarPath(r.snap))
}

// buildSnapshot runs relsnap build for the run's graph.
func (r *run) buildSnapshot(ctx context.Context, path string) error {
	args := append([]string{"build"}, datasetSource(r.w.dataset)...)
	return r.h.runTool(ctx, "relsnap", append(args, "-maxk", strconv.Itoa(maxK), "-o", path)...)
}

// snapshotEngine is an in-process engine over an opened snapshot, with the
// child's worker count.
func snapshotEngine(snap *relcomp.Snapshot, cache int) (*relcomp.Engine, error) {
	return relcomp.NewEngineFromSnapshot(snap, relcomp.EngineConfig{Workers: workers, CacheSize: cache})
}

// setup brings a fresh child to the state the window starts from and
// returns how long that took: (snapshot build,) spawn, ready, graph
// identity check, warm-up.
func (r *run) setup(ctx context.Context) (*child, time.Duration, error) {
	start := time.Now()
	source := datasetSource(r.w.dataset)
	if r.snap != "" {
		r.removeSnapshot()
		if err := r.buildSnapshot(ctx, r.snap); err != nil {
			return nil, 0, err
		}
		source = []string{"-snapshot", r.snap}
	}
	c, err := r.h.spawn(ctx, serverArgs(source...))
	if err != nil {
		return nil, 0, err
	}
	if err := r.checkIdentity(c); err != nil {
		c.kill()
		return nil, 0, err
	}
	for i := range r.plan.warm {
		if _, err := r.send(c, &r.plan.warm[i], 0); err != nil {
			c.kill()
			return nil, 0, fmt.Errorf("warm-up request %d: %v", i, err)
		}
	}
	return c, time.Since(start), nil
}

// checkIdentity confirms the child serves the graph this run generated
// its requests and expected answers from.
func (r *run) checkIdentity(c *child) error {
	var got struct {
		Name  string `json:"name"`
		Nodes int    `json:"nodes"`
		Edges int    `json:"edges"`
	}
	if err := c.getJSON("/v1/graph", &got); err != nil {
		return err
	}
	if got.Name != r.g.Name() || got.Nodes != r.g.NumNodes() || got.Edges != r.g.NumEdges() {
		return fmt.Errorf("child serves %s (%d nodes, %d edges), want %s (%d, %d)",
			got.Name, got.Nodes, got.Edges, r.g.Name(), r.g.NumNodes(), r.g.NumEdges())
	}
	var ests struct {
		Estimators []string `json:"estimators"`
	}
	if err := c.getJSON("/v1/estimators", &ests); err != nil {
		return err
	}
	for _, n := range ests.Estimators {
		if n == packEstimator() {
			return nil
		}
	}
	return fmt.Errorf("child does not advertise %s", packEstimator())
}

// send posts one step and checks the reply as far as one reply can be
// checked alone. It returns the answers of a read, nil for a write.
// lastEpoch is the newest epoch the caller has seen committed.
func (r *run) send(c *child, st *step, lastEpoch uint64) ([]answer, error) {
	status, body, err := c.post(st)
	return r.checkReply(&exchange{step: st, status: status, body: body, err: err}, lastEpoch)
}

func (r *run) checkReply(x *exchange, lastEpoch uint64) ([]answer, error) {
	if x.err != nil {
		return nil, x.err
	}
	if x.status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", x.step.path, x.status, x.body)
	}
	if x.step.write() {
		var m mutateReply
		if err := json.Unmarshal(x.body, &m); err != nil {
			return nil, err
		}
		switch {
		case m.Error != "":
			return nil, fmt.Errorf("mutate: %s", m.Error)
		case m.Applied != len(x.step.muts):
			return nil, fmt.Errorf("mutate applied %d of %d", m.Applied, len(x.step.muts))
		case m.Epoch != lastEpoch+1:
			return nil, fmt.Errorf("mutate committed epoch %d after %d", m.Epoch, lastEpoch)
		}
		return nil, nil
	}
	var answers []answer
	if x.step.path == "/v1/query" {
		answers = make([]answer, 1)
		if err := json.Unmarshal(x.body, &answers[0]); err != nil {
			return nil, err
		}
	} else {
		var b batchReply
		if err := json.Unmarshal(x.body, &b); err != nil {
			return nil, err
		}
		if b.Error != "" {
			return nil, fmt.Errorf("batch: %s", b.Error)
		}
		answers = b.Results
	}
	if len(answers) != len(x.step.queries) {
		return nil, fmt.Errorf("%d answers to %d queries", len(answers), len(x.step.queries))
	}
	for i, a := range answers {
		q := x.step.queries[i]
		sampled := a.Estimator != relcomp.EngineBoundsName // bounds answer without sampling
		switch {
		case a.Error != "":
			return nil, fmt.Errorf("query (%d,%d): %s", q.S, q.T, a.Error)
		case a.S != q.S || a.T != q.T:
			return nil, fmt.Errorf("asked (%d,%d), answered (%d,%d)", q.S, q.T, a.S, a.T)
		case q.Estimator != "" && a.Estimator != q.Estimator:
			return nil, fmt.Errorf("pinned %s, answered by %s", q.Estimator, a.Estimator)
		case sampled && a.SamplesUsed != q.K:
			return nil, fmt.Errorf("query (%d,%d): samples_used %d, want %d", q.S, q.T, a.SamplesUsed, q.K)
		case !(a.Reliability >= -probSlack && a.Reliability <= 1+probSlack):
			return nil, fmt.Errorf("query (%d,%d): reliability %v outside [0,1]", q.S, q.T, a.Reliability)
		case a.Epoch > lastEpoch:
			return nil, fmt.Errorf("query (%d,%d): epoch %d ahead of committed %d", q.S, q.T, a.Epoch, lastEpoch)
		}
	}
	return answers, nil
}

// window is what the measured loop saw.
type window struct {
	length    time.Duration
	exchanges []exchange // by start time; those ending after length are outside the window
	cpu       float64    // child CPU seconds spent inside the window
	rss       []float64  // child VmRSS samples inside the window, MiB
}

// drive runs the closed loop: each client sends its next request only
// when the previous reply has been read in full. Clients share one cursor
// over the request list, which wraps. A request in flight when the window
// closes is completed, so that the child is idle afterwards and a write
// is known to be committed, and recorded as outside the window.
func (r *run) drive(c *child, length time.Duration) (*window, error) {
	win := &window{length: length}
	cpu0, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	cpu1 := -1.0
	stop := make(chan struct{})
	var sampler, clients sync.WaitGroup
	start := time.Now()
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		closes := time.NewTimer(length)
		defer closes.Stop()
		for {
			select {
			case <-stop:
				return
			case <-closes.C:
				if v, err := c.cpuSeconds(); err == nil {
					cpu1 = v
				}
			case <-tick.C:
				if v, err := c.rssMiB(); err == nil && time.Since(start) < length {
					win.rss = append(win.rss, v)
				}
			}
		}
	}()
	var cursor atomic.Int64
	perClient := make([][]exchange, r.w.clients)
	for cl := range perClient {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				st := &r.plan.steps[int(cursor.Add(1)-1)%len(r.plan.steps)]
				x := exchange{step: st, start: time.Since(start)}
				if x.start >= length {
					return
				}
				x.status, x.body, x.err = c.post(st)
				x.end = time.Since(start)
				perClient[cl] = append(perClient[cl], x)
			}
		}()
	}
	clients.Wait()
	close(stop)
	sampler.Wait()
	if cpu1 < 0 { // the sampler was stopped before its timer fired
		if cpu1, err = c.cpuSeconds(); err != nil {
			return nil, err
		}
	}
	win.cpu = cpu1 - cpu0
	for _, xs := range perClient {
		win.exchanges = append(win.exchanges, xs...)
	}
	sort.SliceStable(win.exchanges, func(i, j int) bool { return win.exchanges[i].start < win.exchanges[j].start })
	return win, nil
}

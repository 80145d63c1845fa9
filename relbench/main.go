// Command relbench is the repository's end-to-end benchmark: it drives
// relserver over HTTP with closed-loop workloads, checks every answer,
// and prints each metric by name with its unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runCap bounds one workload run, set-ups and checks included.
const runCap = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all of them")
		seed    = flag.Uint64("seed", 1, "seed of the generated requests (pairs, Zipf draws, mutation picks)")
		seconds = flag.Int("seconds", 24, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 times the same requests layer by layer and prints the per-layer metrics instead")
		repeat  = flag.Int("repeat", 0, "run the suite this many times and compare two interleaved sets of runs")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the relserver and relsnap binaries")
		tmp     = flag.String("tmp", ".bench_build/tmp", "directory for snapshots, sidecars and child logs")
		spans   = flag.String("spans", "", "with -trace 1: write the spans to this JSONL file at exit")
	)
	flag.Parse()
	if *name != "" {
		if _, err := workloadByName(*name); err != nil {
			fmt.Fprintln(os.Stderr, "relbench:", err)
			os.Exit(2)
		}
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(realMain(options{*name, *seed, time.Duration(*seconds) * time.Second, *trace == 1, *repeat, *bin, *tmp, *spans}))
}

type options struct {
	workload string
	seed     uint64
	length   time.Duration
	trace    bool
	repeat   int
	bin, tmp string
	spans    string
}

func realMain(o options) (code int) {
	h, err := newHarness(o.bin, o.tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		return 1
	}
	// Children die with the run however it ends: return, panic, signal.
	defer h.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(1)
	}()
	ctx := context.Background()

	if o.repeat > 0 {
		return repeatSuite(ctx, h, o)
	}
	for i := range workloads {
		w := &workloads[i]
		if o.workload != "" && o.workload != w.name {
			continue
		}
		res, err := runWorkload(ctx, h, w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relbench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(os.Stdout)
	}
	return 0
}

// result is what one workload run reports.
type result struct {
	workload          string
	attempted, failed int
	metrics           []metric
}

func runWorkload(ctx context.Context, h *harness, w *workload, o options) (*result, error) {
	// The cap is a timer, not a context deadline: the engine treats a
	// context deadline as a request for a deadline-bound (anytime, never
	// cached) estimate, which is not what relserver's handlers ask for.
	expired := time.AfterFunc(runCap, func() {
		fmt.Fprintf(os.Stderr, "relbench: %s exceeded its %s cap\n", w.name, runCap)
		h.close()
		os.Exit(1)
	})
	defer expired.Stop()

	r, err := newRun(h, w, o.seed)
	if err != nil {
		return nil, err
	}
	defer r.removeSnapshot()
	var metrics []metric
	if o.trace {
		metrics, err = r.traceLayers(ctx, o.length, o.spans)
	} else {
		metrics, err = r.measure(ctx, o.length)
	}
	if err != nil {
		return nil, err
	}
	return &result{w.name, r.attempted, r.failed, metrics}, nil
}

// print writes every metric by name with its unit and sample count, then
// the one-line JSON object the benchmark contract asks for.
func (res *result) print(out *os.File) {
	fmt.Fprintf(out, "workload %s: ops %d, failed %d, failed_frac %.4f\n",
		res.workload, res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := map[string]value{}
	for _, m := range res.metrics {
		if m.extra {
			fmt.Fprintf(out, "  %-44s %14.4f %-6s (n=%d, not a BENCHMARK.json metric)\n", m.name, m.value, m.unit, m.n)
			continue
		}
		fmt.Fprintf(out, "  %-44s %14.4f %-6s (n=%d)\n", m.name, m.value, m.unit, m.n)
		values[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": values,
	})
	if err != nil {
		panic(err) // a NaN metric: a bug in the harness
	}
	fmt.Fprintf(out, "%s\n", line)
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"relcomp"
)

// metricDef names one metric; bound is the share of the parent's median
// an end-to-end metric may worsen by (BENCHMARK.json carries the same
// numbers; a test keeps the two in step).
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEndDefs = []metricDef{
	{"throughput_qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_query", "ms", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// metric is one measured value and the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
	extra      bool // printed for the reader, left out of the JSON line
}

const (
	checkedAnswers = 16   // leading read requests whose answers are checked against a reference
	refK           = 4096 // samples of the independent reference for routed answers
)

func engineConfig() relcomp.EngineConfig {
	return relcomp.EngineConfig{Seed: graphSeed, MaxK: maxK, Workers: workers, CacheSize: cacheSize}
}

// measure is one untraced run: set-ups, the window, the checks, and the
// end-to-end metrics.
func (r *run) measure(ctx context.Context, length time.Duration) ([]metric, error) {
	var (
		c      *child
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.kill()
		}
		var (
			took time.Duration
			err  error
		)
		if c, took, err = r.setup(ctx); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	win, err := r.drive(c, length)
	if err != nil {
		return nil, err
	}
	seen := r.checkWindow(win)
	var stats engineStats
	if err := c.getJSON("/v1/engine/stats", &stats); err != nil {
		return nil, err
	}
	r.check(checkStats(&stats, seen.committed))
	r.check(r.finish(ctx, c, seen.committed))
	if err := r.checkAnswers(ctx, seen.first); err != nil {
		return nil, err
	}
	reads, queries := seen.reads, seen.queries
	if queries == 0 || len(win.rss) == 0 {
		return nil, errors.New("the window completed no read or no memory sample")
	}

	sorted := sortedCopy(reads)
	out := []metric{
		{"throughput_qps", "1/s", float64(queries) / length.Seconds(), queries, false},
		{"latency_p50_ms", "ms", percentile(sorted, 0.5), len(reads), false},
		{"latency_p90_ms", "ms", percentile(sorted, 0.9), len(reads), false},
		{"server_cpu_ms_per_query", "ms", win.cpu * 1000 / float64(queries), queries, false},
		{"server_rss_mb", "MiB", median(win.rss), len(win.rss), false},
		{"setup_s", "s", median(setups), len(setups), false},
	}
	if len(seen.writes) > 0 {
		// Only the mix writes inside its window, and a BENCHMARK.json metric
		// must exist on every workload: this one is printed, not reported.
		out = append(out, metric{"write_latency_p50_ms", "ms", median(seen.writes), len(seen.writes), true})
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowCheck is what checkWindow found: the latencies (ms) of the reads
// and writes that completed inside the window without fault, the queries
// those reads answered, every write the child committed, and the answers
// of the leading reads from before any write.
type windowCheck struct {
	reads, writes []float64
	queries       int
	committed     uint64
	first         [][]answer
}

// checkWindow checks every reply of the window in request order. A faulty
// request counts as failed and contributes to no latency and no
// throughput.
func (r *run) checkWindow(win *window) windowCheck {
	var seen windowCheck
	for i := range win.exchanges {
		x := &win.exchanges[i]
		answers, err := r.checkReply(x, seen.committed)
		if !r.check(err) {
			continue
		}
		if x.step.write() {
			seen.committed++
		} else if seen.committed == 0 && len(seen.first) < checkedAnswers {
			seen.first = append(seen.first, answers)
		}
		switch {
		case x.end > win.length: // completed, but outside the window
		case x.step.write():
			seen.writes = append(seen.writes, ms(x.end-x.start))
		default:
			seen.reads = append(seen.reads, ms(x.end-x.start))
			seen.queries += len(answers)
		}
	}
	return seen
}

// checkStats holds the child to the invariants every workload is sized
// for: nothing shed, no index rebuilt from scratch, and an epoch that
// agrees with the writes this run saw acknowledged.
func checkStats(s *engineStats, committed uint64) error {
	switch {
	case s.Mutations.Epoch != committed:
		return fmt.Errorf("child is at epoch %d after %d acknowledged writes", s.Mutations.Epoch, committed)
	case s.Admission.Shed != 0 || s.Admission.TimedOut != 0:
		return fmt.Errorf("admission shed %d and timed out %d requests", s.Admission.Shed, s.Admission.TimedOut)
	case s.Mutations.IndexRebuilds != 0:
		return fmt.Errorf("%d full index rebuilds", s.Mutations.IndexRebuilds)
	}
	return nil
}

// finish drains the child. A snapshot-served child must leave a pair of
// files that verifies and that a restarted server replays to exactly the
// committed epoch.
func (r *run) finish(ctx context.Context, c *child, committed uint64) error {
	if err := c.stop(); err != nil {
		return fmt.Errorf("graceful stop: %v\n%s", err, c.logTail())
	}
	if r.snap == "" {
		return nil
	}
	if err := r.h.runTool(ctx, "relsnap", "verify", r.snap); err != nil {
		return err
	}
	again, err := r.h.spawn(ctx, serverArgs("-snapshot", r.snap))
	if err != nil {
		return fmt.Errorf("restart from snapshot and sidecar: %v", err)
	}
	defer again.kill()
	var stats engineStats
	if err := again.getJSON("/v1/engine/stats", &stats); err != nil {
		return err
	}
	if stats.Mutations.Epoch != committed {
		return fmt.Errorf("restart replayed to epoch %d, %d writes were committed", stats.Mutations.Epoch, committed)
	}
	return nil
}

// referenceEngine is an in-process engine configured as the child was:
// from the run's snapshot if it has one, else over the generated graph.
func (r *run) referenceEngine() (*relcomp.Engine, func(), error) {
	if r.snap == "" {
		eng, err := relcomp.NewEngine(r.g, engineConfig())
		return eng, func() {}, err
	}
	snap, err := relcomp.OpenSnapshot(r.snap)
	if err != nil {
		return nil, nil, err
	}
	eng, err := snapshotEngine(snap, cacheSize)
	if err != nil {
		snap.Close()
		return nil, nil, err
	}
	return eng, func() { snap.Close() }, nil
}

// checkAnswers compares the answers of the leading reads (all from epoch
// 0) with a reference computed here: pinned answers must be bit-identical
// to an engine with the child's seed and configuration; routed answers,
// whose estimator depends on measured latencies, must lie within
// 4·sqrt(p(1-p)(1/k+1/refK)) + 0.02 of an independent-seed pack estimate.
func (r *run) checkAnswers(ctx context.Context, first [][]answer) error {
	statistical := r.w.shape == routed
	var (
		eng      *relcomp.Engine
		closeEng = func() {}
		err      error
	)
	if statistical {
		cfg := engineConfig()
		cfg.Seed, cfg.MaxK = graphSeed+1, refK
		eng, err = relcomp.NewEngine(r.g, cfg)
	} else {
		eng, closeEng, err = r.referenceEngine()
	}
	if err != nil {
		return err
	}
	defer closeEng()
	for _, answers := range first {
		reqs := make([]relcomp.Request, len(answers))
		for i, a := range answers {
			reqs[i] = relcomp.Request{S: relcomp.NodeID(a.S), T: relcomp.NodeID(a.T), K: r.w.k, Estimator: a.Estimator}
			if statistical {
				reqs[i].K, reqs[i].Estimator = refK, packEstimator()
			}
		}
		for i, want := range eng.EstimateBatch(ctx, reqs) {
			r.check(compareAnswer(answers[i], want, statistical, r.w.k))
		}
	}
	return nil
}

func compareAnswer(got answer, want relcomp.Response, statistical bool, k int) error {
	if want.Err != nil {
		return fmt.Errorf("reference for (%d,%d): %v", got.S, got.T, want.Err)
	}
	p := want.Reliability
	if !statistical {
		if math.Float64bits(got.Reliability) != math.Float64bits(p) {
			return fmt.Errorf("%s(%d,%d) = %v, the same engine in process gives %v", got.Estimator, got.S, got.T, got.Reliability, p)
		}
		return nil
	}
	tol := 4*math.Sqrt(p*(1-p)*(1/float64(k)+1/float64(refK))) + 0.02
	if math.Abs(got.Reliability-p) > tol {
		return fmt.Errorf("%s(%d,%d) = %v, reference %v ± %.3f", got.Estimator, got.S, got.T, got.Reliability, p, tol)
	}
	return nil
}

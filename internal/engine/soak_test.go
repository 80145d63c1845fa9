package engine

import (
	"context"
	"errors"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relcomp/internal/faultinject"
	"relcomp/internal/uncertain"
)

// The fault soak: the serving runtime under deterministic injected chaos
// (estimator panics, slow replicas, memory pressure) must never crash,
// must fail only with typed errors, and must answer every uninjected,
// undegraded request bit-identically to a fault-free run with the same
// seed. Identity is asserted for explicit-estimator and non-plain-kind
// requests, whose streams are pure functions of (engine seed, request);
// router-chosen estimators depend on live latency statistics, so routed
// requests are checked for sanity (range, typed errors) only.

// soakWorkload is the mixed request set every soak round replays. All
// requests avoid Deadline: deadline-truncated sampling is timing-
// dependent by design and would break the bit-identity assertion.
func soakWorkload() []Query {
	var qs []Query
	for i, name := range []string{"MC", "BFSSharing", "ProbTree", "RSS", "PackMC"} {
		for s := 0; s < 3; s++ {
			for t := 4; t < 8; t++ {
				qs = append(qs, Query{
					S: uncertain.NodeID(s), T: uncertain.NodeID(t),
					K: 100 + 50*(i%2), Estimator: name,
				})
			}
		}
	}
	// Anytime (ε-only) requests: stopping depends only on the sample
	// stream, so they stay deterministic.
	qs = append(qs,
		Query{S: 0, T: 5, K: 1000, Eps: 0.2, Estimator: "MC"},
		Query{S: 1, T: 6, K: 1000, Eps: 0.2, Estimator: "RSS"},
		Query{S: 2, T: 7, K: 1000, Eps: 0.25, Estimator: "BFSSharing"},
	)
	// The advanced kinds, on their deterministic default estimators.
	qs = append(qs,
		Query{Kind: KindDistance, S: 0, T: 6, K: 100, D: 3},
		Query{Kind: KindTopK, S: 1, TopK: 3, K: 100},
		Query{Kind: KindKTerminal, S: 0, Targets: []uncertain.NodeID{4, 5}, K: 100},
		Query{Kind: KindSingleSource, S: 2, K: 100},
	)
	// Routed requests: sanity-checked only (the router's choice is
	// latency-dependent), but they exercise admission costing, the bounds
	// memo, and the level-2/3 ladder paths.
	for t := 4; t < 8; t++ {
		qs = append(qs, Query{S: 0, T: uncertain.NodeID(t), K: 200})
	}
	return qs
}

// identityEligible reports whether the request's answer is a pure
// function of the engine seed, so the soak may demand bit-identity.
func identityEligible(q Query) bool {
	return !(q.plainReliability() && q.Estimator == "")
}

// soakDuration is ~1.5s by default; CI's chaos-smoke job stretches it via
// RELCOMP_SOAK_MS for a long soak under -race.
func soakDuration() time.Duration {
	if ms, err := strconv.Atoi(os.Getenv("RELCOMP_SOAK_MS")); err == nil && ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return 1500 * time.Millisecond
}

func TestFaultSoak(t *testing.T) {
	g := testGraph(t)
	cfg := Config{Seed: 42, MaxK: 2000, Workers: 4, CacheSize: 512}

	// Fault-free baseline, admission off: the reference answers.
	base, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := soakWorkload()
	baseline := make([]Response, len(queries))
	for i, q := range queries {
		baseline[i] = base.Estimate(context.Background(), q)
		if baseline[i].Err != nil {
			t.Fatalf("baseline query %d failed: %v", i, baseline[i].Err)
		}
	}

	inj := faultinject.NewSeeded(99).
		WithRate(faultinject.EstimatorPanic, 0.04).
		WithRate(faultinject.SlowReplica, 0.08).WithDelay(200*time.Microsecond).
		WithRate(faultinject.MemPressure, 0.03)
	defer faultinject.Set(inj)()

	acfg := cfg
	acfg.Admission = AdmissionConfig{
		MaxInflight: 4, MaxQueue: 64, QueueWait: 2 * time.Second,
		MaxInflightSamples: 50_000,
	}
	eng, err := New(g, acfg)
	if err != nil {
		t.Fatal(err)
	}

	var failures atomic.Int64
	check := func(i int, res Response) {
		q := queries[i]
		if res.Err != nil {
			if !errors.Is(res.Err, ErrEstimatorPanic) &&
				!errors.Is(res.Err, ErrOverloaded) &&
				!errors.Is(res.Err, ErrQueueTimeout) &&
				!errors.Is(res.Err, context.Canceled) &&
				!errors.Is(res.Err, context.DeadlineExceeded) {
				if failures.Add(1) < 10 {
					t.Errorf("query %d: untyped error under faults: %v", i, res.Err)
				}
			}
			return
		}
		if res.Reliability < 0 || res.Reliability > 1 || math.IsNaN(res.Reliability) {
			if failures.Add(1) < 10 {
				t.Errorf("query %d: reliability %v out of range", i, res.Reliability)
			}
			return
		}
		if res.Degraded || !identityEligible(q) {
			return
		}
		want := baseline[i]
		switch {
		case math.Float64bits(res.Reliability) != math.Float64bits(want.Reliability),
			res.SamplesUsed != want.SamplesUsed,
			res.StopReason != want.StopReason,
			res.Used != want.Used,
			len(res.TopTargets) != len(want.TopTargets),
			len(res.Reliabilities) != len(want.Reliabilities):
			if failures.Add(1) < 10 {
				t.Errorf("query %d (%s %s→%d): served answer diverged from fault-free run:\n got %v/%d/%q/%q\nwant %v/%d/%q/%q",
					i, q.Estimator, q.Kind, q.K,
					res.Reliability, res.SamplesUsed, res.StopReason, res.Used,
					want.Reliability, want.SamplesUsed, want.StopReason, want.Used)
			}
			return
		}
		for j := range res.TopTargets {
			if res.TopTargets[j] != want.TopTargets[j] {
				if failures.Add(1) < 10 {
					t.Errorf("query %d: top-k entry %d diverged: %v vs %v", i, j, res.TopTargets[j], want.TopTargets[j])
				}
				return
			}
		}
		for j := range res.Reliabilities {
			if math.Float64bits(res.Reliabilities[j]) != math.Float64bits(want.Reliabilities[j]) {
				if failures.Add(1) < 10 {
					t.Errorf("query %d: single-source entry %d diverged", i, j)
				}
				return
			}
		}
	}

	deadline := time.Now().Add(soakDuration())
	ctx := context.Background()
	for round := 0; time.Now().Before(deadline); round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(queries); i += 4 {
					check(i, eng.Estimate(ctx, queries[i]))
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results := eng.EstimateBatch(ctx, queries)
			if len(results) != len(queries) {
				t.Errorf("batch returned %d results for %d queries", len(results), len(queries))
				return
			}
			for i, res := range results {
				check(i, res)
			}
		}()
		wg.Wait()
		if failures.Load() > 0 {
			t.Fatalf("soak failed after %d rounds", round+1)
		}
	}

	// The engine must come out of the soak fully serviceable: with
	// injection removed, answers return to the fault-free baseline.
	faultinject.Set(nil)
	for i, q := range queries {
		if !identityEligible(q) {
			continue
		}
		res := eng.Estimate(ctx, q)
		if res.Err != nil {
			t.Fatalf("post-soak query %d failed: %v", i, res.Err)
		}
		if !res.Degraded && math.Float64bits(res.Reliability) != math.Float64bits(baseline[i].Reliability) {
			t.Fatalf("post-soak query %d diverged: %v vs %v", i, res.Reliability, baseline[i].Reliability)
		}
	}
	st := eng.Stats()
	if st.Admission.Inflight != 0 || st.Admission.QueueLen != 0 {
		t.Fatalf("admission state leaked after soak: %+v", st.Admission)
	}
	t.Logf("soak: admission %+v, injected panics=%d slow=%d mem=%d",
		st.Admission, inj.Fired(faultinject.EstimatorPanic),
		inj.Fired(faultinject.SlowReplica), inj.Fired(faultinject.MemPressure))
}

// TestPoolDiscardAccounting: every faulted replica is discarded and its
// capacity slot freed — repeated panics far past the pool capacity never
// leak a slot (a leak would deadlock the final query forever), and the
// pool rebuilds to serve again once the fault clears.
func TestPoolDiscardAccounting(t *testing.T) {
	inj := faultinject.NewSeeded(7).WithRate(faultinject.EstimatorPanic, 1)
	restore := faultinject.Set(inj)
	defer restore()

	e := testEngine(t, Config{Seed: 42, MaxK: 500, Workers: 2})
	ctx := context.Background()
	const faultsWanted = 6 // 3× the pool capacity
	for i := 0; i < faultsWanted; i++ {
		res := e.Estimate(ctx, Query{S: 0, T: uncertain.NodeID(4 + i), K: 100, Estimator: "MC"})
		if !errors.Is(res.Err, ErrEstimatorPanic) {
			t.Fatalf("query %d: want ErrEstimatorPanic, got %v", i, res.Err)
		}
		if res.Cached {
			t.Fatalf("query %d: faulted result claims cached", i)
		}
	}
	p := e.state.Load().pools["MC"]
	if got := p.faults(); got != faultsWanted {
		t.Fatalf("pool discards = %d, want %d", got, faultsWanted)
	}
	if size := p.size(); size != 0 {
		t.Fatalf("pool still holds %d replicas after discarding every fault", size)
	}

	restore() // clear injection: the pool must rebuild and serve
	res := e.Estimate(ctx, Query{S: 0, T: 5, K: 100, Estimator: "MC"})
	if res.Err != nil {
		t.Fatalf("post-fault query failed: %v", res.Err)
	}
	if size := p.size(); size < 1 || size > 2 {
		t.Fatalf("pool rebuilt to %d replicas, capacity 2", size)
	}
	// A faulted result must never have poisoned the cache.
	res2 := e.Estimate(ctx, Query{S: 0, T: 4, K: 100, Estimator: "MC"})
	if res2.Err != nil || res2.Cached {
		t.Fatalf("first clean serve of a previously-faulted query: err=%v cached=%v", res2.Err, res2.Cached)
	}
}

// cancelAfter is a test injector that cancels a context on the Nth
// SlowReplica consultation — the deterministic way to cancel exactly
// mid-batch, after some units completed and before others started.
type cancelAfter struct {
	cancel context.CancelFunc
	left   atomic.Int64
}

func (c *cancelAfter) At(p faultinject.Point, key uint64) faultinject.Outcome {
	if p == faultinject.SlowReplica && c.left.Add(-1) == 0 {
		c.cancel()
	}
	return faultinject.Outcome{}
}

// TestBatchCancelMidFlight: cancelling mid-EstimateBatch fails exactly
// the untouched units with the context error, serves the completed units
// with fault-free values, and never lets a cancelled unit into the cache.
func TestBatchCancelMidFlight(t *testing.T) {
	g := testGraph(t)
	cfg := Config{Seed: 42, MaxK: 500, Workers: 1, CacheSize: 256}
	base, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for i := 0; i < 8; i++ {
		queries = append(queries, Query{S: uncertain.NodeID(i % 3), T: uncertain.NodeID(4 + i), K: 100, Estimator: "MC"})
	}
	baseline := base.EstimateBatch(context.Background(), queries)

	eng, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := &cancelAfter{cancel: cancel}
	inj.left.Store(3) // cancel as the third unit begins
	restore := faultinject.Set(inj)
	results := eng.EstimateBatch(ctx, queries)
	restore()

	served, cancelled := 0, 0
	for i, res := range results {
		switch {
		case res.Err == nil:
			served++
			if math.Float64bits(res.Reliability) != math.Float64bits(baseline[i].Reliability) {
				t.Errorf("unit %d served %v, fault-free run served %v", i, res.Reliability, baseline[i].Reliability)
			}
		case errors.Is(res.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("unit %d: unexpected error %v", i, res.Err)
		}
	}
	if served < 2 || cancelled < 1 {
		t.Fatalf("served=%d cancelled=%d: cancellation did not land mid-batch", served, cancelled)
	}

	// Cancelled units must not have been cached: re-asking each one on a
	// live context computes fresh (and matches the fault-free value).
	for i, res := range results {
		if res.Err == nil {
			continue
		}
		re := eng.Estimate(context.Background(), queries[i])
		if re.Err != nil {
			t.Fatalf("re-serve of cancelled unit %d failed: %v", i, re.Err)
		}
		if re.Cached {
			t.Fatalf("cancelled unit %d was found in the cache", i)
		}
		if math.Float64bits(re.Reliability) != math.Float64bits(baseline[i].Reliability) {
			t.Fatalf("re-served unit %d diverged: %v vs %v", i, re.Reliability, baseline[i].Reliability)
		}
	}
}

// TestLoneQueryInjectsOnce: a query computed alone meets each injection
// point once, at its own stream seed, whether Estimate carried it or it
// was the only target of a source group in EstimateBatch.
func TestLoneQueryInjectsOnce(t *testing.T) {
	inj := faultinject.NewSeeded(1).WithRate(faultinject.SlowReplica, 1).WithDelay(time.Microsecond)
	defer faultinject.Set(inj)()
	e := testEngine(t, Config{Seed: 42, MaxK: 500, Workers: 2})
	ctx := context.Background()
	for _, name := range []string{"BFSSharing", "ProbTree", "PackMC"} {
		q := Query{S: 0, T: 5, K: 100, Estimator: name}
		before := inj.Fired(faultinject.SlowReplica)
		e.Estimate(ctx, q)
		e.EstimateBatch(ctx, []Query{q})
		if got := inj.Fired(faultinject.SlowReplica) - before; got != 2 {
			t.Errorf("%s: %d slow-replica injections for two lone queries, want 2", name, got)
		}
	}
}

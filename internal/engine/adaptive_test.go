package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"relcomp/internal/core"
	"relcomp/internal/uncertain"
)

// anytimeQueries builds a named-estimator anytime workload over several
// sources and targets. Named (non-routed) queries are the ones the
// batch==single determinism guarantee covers: routing is
// latency-dependent by design.
func anytimeQueries(names []string, eps float64, k int) []Query {
	var qs []Query
	for _, name := range names {
		for s := 0; s < 3; s++ {
			for t := 3; t < 7; t++ {
				qs = append(qs, Query{
					S: uncertain.NodeID(s), T: uncertain.NodeID(t),
					K: k, Estimator: name, Eps: eps,
				})
			}
		}
	}
	return qs
}

// TestAnytimeFixedBitIdentity: an ε=0, no-deadline query must return
// exactly what the pre-refactor fixed-K path returns, for every
// configured estimator.
func TestAnytimeFixedBitIdentity(t *testing.T) {
	a := testEngine(t, Config{Workers: 2, MaxK: 400, Seed: 42})
	b := testEngine(t, Config{Workers: 2, MaxK: 400, Seed: 42})
	ctx := context.Background()
	for _, name := range a.Names() {
		q := Query{S: 0, T: 5, K: 300, Estimator: name}
		fixed := a.Estimate(ctx, q)
		// Same query with an explicit (disabled) anytime configuration.
		anytime := b.Estimate(ctx, Query{S: 0, T: 5, K: 300, Estimator: name, Eps: 0})
		if fixed.Err != nil || anytime.Err != nil {
			t.Fatalf("%s: %v / %v", name, fixed.Err, anytime.Err)
		}
		if fixed.Reliability != anytime.Reliability {
			t.Errorf("%s: fixed %v != eps-0 %v", name, fixed.Reliability, anytime.Reliability)
		}
		if anytime.SamplesUsed != 300 {
			t.Errorf("%s: SamplesUsed %d, want full budget 300", name, anytime.SamplesUsed)
		}
	}
}

// TestAnytimeSavesSamples: with a real ε on an easy workload, queries
// stop under the cap, report their termination, and the engine accounts
// for the savings.
func TestAnytimeSavesSamples(t *testing.T) {
	e := testEngine(t, Config{Workers: 2, MaxK: 2000, Seed: 42})
	ctx := context.Background()
	res := e.Estimate(ctx, Query{S: 0, T: 5, K: 2000, Estimator: "MC", Eps: 0.25})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SamplesUsed <= 0 || res.SamplesUsed > 2000 {
		t.Fatalf("SamplesUsed %d", res.SamplesUsed)
	}
	if res.StopReason == "" {
		t.Error("anytime result has no StopReason")
	}
	st := e.Stats()
	if st.AnytimeQueries != 1 {
		t.Errorf("AnytimeQueries %d", st.AnytimeQueries)
	}
	if st.AnytimeSampleCap != 2000 || st.AnytimeSamplesDrawn != uint64(res.SamplesUsed) {
		t.Errorf("anytime accounting cap=%d drawn=%d, want 2000/%d",
			st.AnytimeSampleCap, st.AnytimeSamplesDrawn, res.SamplesUsed)
	}
	if st.AnytimeSamplesSaved != st.AnytimeSampleCap-st.AnytimeSamplesDrawn {
		t.Errorf("AnytimeSamplesSaved %d inconsistent", st.AnytimeSamplesSaved)
	}
}

// TestAnytimeBatchMatchesSingle: for named estimators, an anytime batch
// must return exactly what sequential anytime Estimate calls return —
// including the amortized lockstep groups (PackMC, BFSSharing) and the
// spliced per-target path (ProbTree).
func TestAnytimeBatchMatchesSingle(t *testing.T) {
	const eps, k = 0.2, 400
	names := []string{"MC", "PackMC", "BFSSharing", "ProbTree", "LP+", "RSS"}
	qs := anytimeQueries(names, eps, k)
	ctx := context.Background()

	single := testEngine(t, Config{Workers: 1, MaxK: k, Seed: 9, Estimators: names})
	batch := testEngine(t, Config{Workers: 4, MaxK: k, Seed: 9, Estimators: names})
	results := batch.EstimateBatch(ctx, qs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		want := single.Estimate(ctx, qs[i])
		if want.Err != nil {
			t.Fatalf("single %d: %v", i, want.Err)
		}
		if res.Reliability != want.Reliability {
			t.Errorf("query %d (%s %d->%d): batch %v != single %v",
				i, qs[i].Estimator, qs[i].S, qs[i].T, res.Reliability, want.Reliability)
		}
		if res.SamplesUsed != want.SamplesUsed {
			t.Errorf("query %d (%s): batch used %d, single used %d",
				i, qs[i].Estimator, res.SamplesUsed, want.SamplesUsed)
		}
		if res.StopReason != want.StopReason {
			t.Errorf("query %d (%s): batch reason %q, single %q",
				i, qs[i].Estimator, res.StopReason, want.StopReason)
		}
	}
}

// TestAnytimeBatchDeterministicUnderRace: concurrent anytime batches on
// one engine return identical values run to run (exercised with -race in
// CI). Each goroutine gets its own expectation from a single-worker twin.
func TestAnytimeBatchDeterministicUnderRace(t *testing.T) {
	const eps, k = 0.2, 300
	names := []string{"PackMC", "BFSSharing", "MC"}
	qs := anytimeQueries(names, eps, k)

	ref := testEngine(t, Config{Workers: 1, MaxK: k, Seed: 3, Estimators: names})
	want := ref.EstimateBatch(context.Background(), qs)

	e := testEngine(t, Config{Workers: 4, MaxK: k, Seed: 3, Estimators: names, CacheSize: 256})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for rep := 0; rep < 4; rep++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, res := range e.EstimateBatch(context.Background(), qs) {
				if res.Err != nil {
					errs <- res.Err.Error()
					return
				}
				if res.Reliability != want[i].Reliability || res.SamplesUsed != want[i].SamplesUsed {
					errs <- "concurrent anytime batch diverged from sequential reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestAnytimeDeadline: a query with an immediate deadline still returns
// an estimate, reports the deadline stop, and is never cached.
func TestAnytimeDeadline(t *testing.T) {
	e := testEngine(t, Config{Workers: 1, MaxK: 2000, Seed: 4, CacheSize: 64})
	ctx := context.Background()
	q := Query{S: 0, T: 5, K: 2000, Estimator: "MC", Eps: 1e-9, Deadline: time.Nanosecond}
	res := e.Estimate(ctx, q)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.StopReason != string(core.StopDeadline) {
		t.Fatalf("StopReason %q, want deadline", res.StopReason)
	}
	if res.SamplesUsed >= 2000 {
		t.Errorf("deadline query drew the full budget (%d samples)", res.SamplesUsed)
	}
	// Deadline results are timing-dependent: the second call must compute
	// afresh, not replay a cached truncation.
	again := e.Estimate(ctx, q)
	if again.Cached {
		t.Error("deadline-truncated result was cached")
	}
}

// TestContextCancellation: a canceled context fails single queries up
// front and batch units with the context error.
func TestContextCancellation(t *testing.T) {
	e := testEngine(t, Config{Workers: 2, MaxK: 300, Seed: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.Estimate(ctx, Query{S: 0, T: 5, K: 100, Estimator: "MC"})
	if res.Err == nil {
		t.Fatal("canceled context accepted")
	}
	results := e.EstimateBatch(ctx, []Query{
		{S: 0, T: 5, K: 100, Estimator: "MC"},
		{S: 1, T: 5, K: 100, Estimator: "PackMC"},
		{S: 0, T: 6, K: 100}, // routed
	})
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("batch query %d survived canceled context", i)
		}
	}
	// A context deadline acts as the anytime deadline. It must still be
	// ahead when Estimate is entered, or the query fails up front like the
	// canceled ones above: 1 ms was not, on a loaded machine under -race.
	dctx, dcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer dcancel()
	slow := e.Estimate(dctx, Query{S: 0, T: 5, K: 300, Estimator: "MC", Eps: 1e-12})
	if slow.Err != nil {
		t.Fatalf("deadline ctx: %v", slow.Err)
	}
	if slow.StopReason != string(core.StopDeadline) && slow.StopReason != string(core.StopMaxK) && slow.StopReason != string(core.StopEps) {
		t.Errorf("ctx-deadline StopReason %q", slow.StopReason)
	}
}

// TestAnytimeValidation: malformed anytime parameters are rejected before
// reaching an estimator.
func TestAnytimeValidation(t *testing.T) {
	e := testEngine(t, Config{Workers: 1, MaxK: 300, Seed: 4})
	ctx := context.Background()
	for _, q := range []Query{
		{S: 0, T: 5, K: 100, Eps: -0.1},
		{S: 0, T: 5, K: 100, Eps: 1},
		{S: 0, T: 5, K: 100, Deadline: -time.Second},
	} {
		if res := e.Estimate(ctx, q); res.Err == nil {
			t.Errorf("query %+v accepted", q)
		}
	}
}

// TestAnytimeCachedReplay: an ε-keyed cache hit replays the termination
// report, and different ε values occupy different entries.
func TestAnytimeCachedReplay(t *testing.T) {
	e := testEngine(t, Config{Workers: 1, MaxK: 2000, Seed: 4, CacheSize: 64})
	ctx := context.Background()
	q := Query{S: 0, T: 5, K: 2000, Estimator: "MC", Eps: 0.25}
	first := e.Estimate(ctx, q)
	if first.Err != nil || first.Cached {
		t.Fatalf("first: %+v", first)
	}
	second := e.Estimate(ctx, q)
	if !second.Cached {
		t.Fatal("anytime result not cached")
	}
	if second.Reliability != first.Reliability || second.SamplesUsed != first.SamplesUsed || second.StopReason != first.StopReason {
		t.Errorf("cached replay %+v != original %+v", second, first)
	}
	// A different ε must not reuse the entry.
	other := e.Estimate(ctx, Query{S: 0, T: 5, K: 2000, Estimator: "MC", Eps: 0.5})
	if other.Cached {
		t.Error("eps=0.5 hit the eps=0.25 cache entry")
	}
}

// TestAnytimeRoutedAndNamedCacheApart: a routed anytime query runs a
// bounds-seeded chunk schedule that can stop at different boundaries than
// a named query's default schedule, so the two must never share a cache
// entry — each must stay self-consistent on replay instead.
func TestAnytimeRoutedAndNamedCacheApart(t *testing.T) {
	// MC-only engine: routing always resolves to MC, so the routed and
	// named variants name the same estimator and differ only in schedule.
	e := testEngine(t, Config{Workers: 1, MaxK: 2000, Seed: 4, CacheSize: 256, Estimators: []string{"MC"}})
	ctx := context.Background()
	routedQ := Query{S: 0, T: 5, K: 2000, Eps: 0.3}
	namedQ := Query{S: 0, T: 5, K: 2000, Eps: 0.3, Estimator: "MC"}

	routed := e.Estimate(ctx, routedQ)
	if routed.Err != nil || routed.Used != "MC" {
		t.Fatalf("routed: %+v", routed)
	}
	named := e.Estimate(ctx, namedQ)
	if named.Err != nil {
		t.Fatal(named.Err)
	}
	if named.Cached {
		t.Fatal("named anytime query served from the routed query's cache entry")
	}
	// Replays are self-consistent within each variant.
	for _, q := range []Query{routedQ, namedQ} {
		first := e.Estimate(ctx, q)
		again := e.Estimate(ctx, q)
		if !again.Cached && first.Used == again.Used {
			t.Errorf("replay of %+v not cached", q)
		}
		if again.Reliability != first.Reliability || again.SamplesUsed != first.SamplesUsed {
			t.Errorf("replay of %+v diverged: %+v vs %+v", q, again, first)
		}
	}
}

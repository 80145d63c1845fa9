package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"relcomp/internal/arena"
	"relcomp/internal/core"
	"relcomp/internal/uncertain"
)

// Wide-kernel engine integration: the 256- and 512-lane PackMC variants
// must behave as first-class pool citizens — batch == single, anytime ==
// fixed at ε=0, deterministic under concurrency — and pool replicas must
// never share arena scratch (each replica owns its arena; two concurrent
// borrowers touching one arena would corrupt both queries' counts).

var wideNames = []string{"PackMC", "PackMC256", "PackMC512"}

// TestWideAnytimeBatchMatchesSingle: anytime batches over the wide
// kernels (grouped lockstep path) return exactly what sequential anytime
// Estimate calls return, at every pack width.
func TestWideAnytimeBatchMatchesSingle(t *testing.T) {
	const eps, k = 0.2, 400
	qs := anytimeQueries(wideNames, eps, k)
	ctx := context.Background()

	single := testEngine(t, Config{Workers: 1, MaxK: k, Seed: 9, Estimators: wideNames})
	batch := testEngine(t, Config{Workers: 4, MaxK: k, Seed: 9, Estimators: wideNames})
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
	}
}

// TestWideSourceRootedKinds: single-source, top-k, k-terminal, and
// evidence-conditioned queries answer through the wide kernels (which are
// evidence-capable and groupable like PackMC) with in-range values, and
// identically across engine instances.
func TestWideSourceRootedKinds(t *testing.T) {
	cfg := Config{Workers: 2, MaxK: 300, Seed: 42, CacheSize: 0}
	a := testEngine(t, cfg)
	b := testEngine(t, cfg)
	ctx := context.Background()
	for _, name := range []string{"PackMC256", "PackMC512"} {
		qs := []Query{
			{Kind: KindSingleSource, S: 0, K: 200, Estimator: name},
			{Kind: KindTopK, S: 0, K: 200, TopK: 3, Estimator: name},
			{S: 0, T: 5, K: 200, Estimator: name, Evidence: Evidence{Include: []uncertain.EdgeID{0}}},
		}
		for i, q := range qs {
			ra, rb := a.Estimate(ctx, q), b.Estimate(ctx, q)
			if ra.Err != nil || rb.Err != nil {
				t.Fatalf("%s query %d: %v / %v", name, i, ra.Err, rb.Err)
			}
			if ra.Reliability != rb.Reliability {
				t.Errorf("%s query %d: %v vs %v across engines", name, i, ra.Reliability, rb.Reliability)
			}
			for v, r := range ra.Reliabilities {
				if r != rb.Reliabilities[v] {
					t.Fatalf("%s query %d: Reliabilities[%d] differs: %v vs %v", name, i, v, r, rb.Reliabilities[v])
				}
			}
			if len(ra.TopTargets) != len(rb.TopTargets) {
				t.Fatalf("%s query %d: top-k sizes differ", name, i)
			}
			for j := range ra.TopTargets {
				if ra.TopTargets[j] != rb.TopTargets[j] {
					t.Errorf("%s query %d: top-k entry %d differs", name, i, j)
				}
			}
		}
	}
}

// scratchArenaOwner is the slice of the estimator surface the arena
// regression cares about: every PackMC-family kernel exposes its arena.
type scratchArenaOwner interface {
	ScratchArena() *arena.Arena
}

// TestArenaScratchNotSharedAcrossReplicas: every replica a pool can hand
// out owns a distinct arena — two borrowers of the same pool must never
// see the same *arena.Arena (pointer identity), or concurrent queries
// would interleave writes into one scratch region.
func TestArenaScratchNotSharedAcrossReplicas(t *testing.T) {
	e := testEngine(t, Config{Workers: 4, MaxK: 300, Seed: 1,
		Estimators: []string{"PackMC", "PackMC256", "PackMC512"}})
	for _, name := range []string{"PackMC", "PackMC256", "PackMC512"} {
		p := e.state.Load().pools[name]
		seen := make(map[*arena.Arena]int)
		var borrowed []core.Estimator
		for i := 0; i < 4; i++ {
			inst := p.get()
			borrowed = append(borrowed, inst)
			owner, ok := inst.(scratchArenaOwner)
			if !ok {
				t.Fatalf("%s replica %T exposes no ScratchArena", name, inst)
			}
			ar := owner.ScratchArena()
			if ar == nil {
				t.Fatalf("%s replica has nil arena", name)
			}
			if prev, dup := seen[ar]; dup {
				t.Fatalf("%s replicas %d and %d share one arena %p", name, prev, i, ar)
			}
			seen[ar] = i
		}
		for _, inst := range borrowed {
			p.put(inst)
		}
	}
}

// TestWideConcurrentMatchesSequential runs the wide-kernel workload from
// many goroutines against one engine (exercised with -race in CI): the
// concurrent answers must equal a sequential baseline, which they can
// only do if no two in-flight queries share scratch.
func TestWideConcurrentMatchesSequential(t *testing.T) {
	cfg := Config{Workers: 4, MaxK: 300, Seed: 7, CacheSize: 0,
		Estimators: []string{"PackMC256", "PackMC512"}}
	e := testEngine(t, cfg)
	baseline := testEngine(t, Config{Workers: 1, MaxK: 300, Seed: 7, CacheSize: 0,
		Estimators: []string{"PackMC256", "PackMC512"}})
	qs := testQueries([]string{"PackMC256", "PackMC512"})
	want := make([]float64, len(qs))
	ctx := context.Background()
	for i, q := range qs {
		res := baseline.Estimate(ctx, q)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want[i] = res.Reliability
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(qs))
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range qs {
				// Interleave the order per goroutine so borrowers collide.
				j := (i + w) % len(qs)
				res := e.Estimate(ctx, qs[j])
				if res.Err != nil {
					errs <- res.Err.Error()
					return
				}
				if res.Reliability != want[j] {
					errs <- qs[j].Estimator
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatalf("concurrent result diverged or failed: %s", msg)
	}
}

// TestRouterSweepWidthByCost pins the width choice: an unmeasured width
// runs first, then the width with the lower cost per sample; searchEach
// weighs n searches, by searchMargin, against the cheaper of the two
// sweep rows.
func TestRouterSweepWidthByCost(t *testing.T) {
	r := newRouter([]string{"MC"}, 0, 16)
	if r.searchEach(100) {
		t.Fatal("searchEach before any sweep is measured: want a sweep")
	}
	for _, want := range sweepWidths {
		if got := r.sweepWidth(); got != want {
			t.Fatalf("unmeasured: sweep width %d, want %d", got, want)
		}
		if r.searchEach(100) {
			t.Fatalf("searchEach with %d lanes unmeasured: want a sweep", want)
		}
		r.observeSweep(want, 256e-6/float64(want)) // 64 lanes 4µs, 256 lanes 1µs
	}
	if got := r.sweepWidth(); got != 256 {
		t.Fatalf("256 lanes cost 1µs per sample, 64 lanes 4µs: sweep width %d", got)
	}
	r.observeSweep(256, 9e-6) // 256's mean is now 5µs
	if got := r.sweepWidth(); got != 64 {
		t.Fatalf("64 lanes cost 4µs per sample, 256 lanes 5µs: sweep width %d", got)
	}
	if !r.searchEach(100) {
		t.Fatal("searchEach with a sweep and no search measured: want a search")
	}
	r.observeSearch(1e-6)
	// Against the cheaper sweep (4µs), three searches (3µs) win and four
	// (4µs) do not; against the dearer one (5µs) four would.
	for _, c := range []struct {
		n    int
		want bool
	}{{3, true}, {4, false}, {5, false}} {
		if got := r.searchEach(c.n); got != c.want {
			t.Errorf("searchEach(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Ten searches must undercut the 4µs sweep by searchMargin: at 0.35µs
	// each (3.5µs) the group still sweeps, at 0.3µs (3µs) it searches.
	for _, c := range []struct {
		secs float64
		want bool
	}{{0.35e-6, false}, {0.3e-6, true}} {
		r.search = latencyMean{secs: c.secs, n: 10}
		if got := r.searchEach(10); got != c.want {
			t.Errorf("searchEach(10) at %gs per search = %v, want %v", c.secs, got, c.want)
		}
	}
}

// TestPackNamesShareOneReplica: the three pack names run on one pool, so
// a 1-worker engine serving all three builds exactly one replica; and a
// source group answers identically at either sweep width.
func TestPackNamesShareOneReplica(t *testing.T) {
	names := []string{packName, pack256Name, pack512Name}
	e := testEngine(t, Config{Workers: 1, MaxK: 300, Seed: 11, CacheSize: 0, Estimators: names})
	ctx := context.Background()
	group := func(name string) []Query {
		var qs []Query
		for d := 1; d < 7; d++ {
			qs = append(qs, Query{S: 0, T: uncertain.NodeID(d), K: 200, Estimator: name})
		}
		return qs
	}
	for _, res := range append([]Response{
		e.Estimate(ctx, Query{S: 0, T: 5, K: 200, Estimator: pack512Name}),
		e.Estimate(ctx, Query{S: 1, T: 6, K: 200, Estimator: packName}),
	}, e.EstimateBatch(ctx, group(pack256Name))...) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := e.state.Load()
	for _, name := range names {
		if got := e.Stats().Estimators[name].PoolReplicas; got != 1 {
			t.Errorf("%s: %d pool replicas, want 1", name, got)
		}
		if st.pools[name] != st.pools[packName] {
			t.Errorf("%s has a pool of its own", name)
		}
	}

	// Force each width in turn: costs that make it the cheaper sweep, and
	// a search dear enough that the group sweeps.
	var got [][]float64
	for _, lanes := range sweepWidths {
		r := e.router
		r.mu.Lock()
		for _, w := range sweepWidths {
			cost := 2.0
			if w == lanes {
				cost = 1
			}
			r.sweeps[w] = latencyMean{secs: cost, n: 1}
		}
		r.search = latencyMean{secs: 100, n: 1}
		r.mu.Unlock()
		var vals []float64
		for _, res := range e.EstimateBatch(ctx, group(pack512Name)) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			vals = append(vals, res.Reliability)
		}
		if n := r.sweeps[lanes].n; n != 2 {
			t.Fatalf("forced %d lanes: that width has %d sweeps measured, want 2", lanes, n)
		}
		got = append(got, vals)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("64-lane group %v != 256-lane group %v", got[0], got[1])
	}
}

package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"relcomp/internal/core"
	"relcomp/internal/datasets"
	"relcomp/internal/uncertain"
)

func testGraph(t testing.TB) *uncertain.Graph {
	t.Helper()
	spec, err := datasets.ByName("lastFM")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(0.03, 7)
}

func testEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(testGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testQueries returns a mixed workload: several sources, several targets
// per source, two sample budgets, across all six estimators.
func testQueries(names []string) []Query {
	var qs []Query
	for i, name := range names {
		for s := 0; s < 3; s++ {
			for t := 3; t < 7; t++ {
				k := 100
				if (s+t+i)%2 == 1 {
					k = 150
				}
				qs = append(qs, Query{
					S: uncertain.NodeID(s), T: uncertain.NodeID(t),
					K: k, Estimator: name,
				})
			}
		}
	}
	return qs
}

func TestEstimateBasic(t *testing.T) {
	e := testEngine(t, Config{Workers: 2, MaxK: 300, Seed: 42, CacheSize: 64})
	for _, name := range e.Names() {
		res := e.Estimate(context.Background(), Query{S: 0, T: 5, K: 100, Estimator: name})
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if res.Used != name {
			t.Errorf("%s: answered by %q", name, res.Used)
		}
		if res.Reliability < 0 || res.Reliability > 1 {
			t.Errorf("%s: reliability %v", name, res.Reliability)
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	e := testEngine(t, Config{Workers: 1, MaxK: 200, Seed: 1})
	bad := []Query{
		{S: -1, T: 5, K: 100},                      // s out of range
		{S: 0, T: 999999, K: 100},                  // t out of range
		{S: 0, T: 5, K: 0},                         // no budget
		{S: 0, T: 5, K: 500},                       // budget above MaxK
		{S: 0, T: 5, K: 100, Estimator: "Unknown"}, // unknown estimator
	}
	for _, q := range bad {
		if res := e.Estimate(context.Background(), q); res.Err == nil {
			t.Errorf("query %+v accepted", q)
		}
	}
	results := e.EstimateBatch(context.Background(), bad)
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("batch query %+v accepted", bad[i])
		}
	}
}

func TestUnknownConfiguredEstimator(t *testing.T) {
	if _, err := New(testGraph(t), Config{Estimators: []string{"Nope"}}); err == nil {
		t.Fatal("unknown estimator accepted at construction")
	}
	if _, err := New(testGraph(t), Config{Estimators: []string{"MC", "MC"}}); err == nil {
		t.Fatal("duplicate estimator accepted at construction")
	}
}

// TestDeterministicAcrossInstances: equal configs answer equally, and the
// same engine answers a repeated query equally (via cache and without).
func TestDeterministicAcrossInstances(t *testing.T) {
	cfg := Config{Workers: 2, MaxK: 300, Seed: 42, CacheSize: 0}
	a := testEngine(t, cfg)
	b := testEngine(t, cfg)
	for _, q := range testQueries(a.Names()) {
		ra, rb := a.Estimate(context.Background(), q), b.Estimate(context.Background(), q)
		if ra.Err != nil || rb.Err != nil {
			t.Fatalf("%+v: %v / %v", q, ra.Err, rb.Err)
		}
		if ra.Reliability != rb.Reliability {
			t.Errorf("%+v: %v vs %v across engines", q, ra.Reliability, rb.Reliability)
		}
		again := a.Estimate(context.Background(), q)
		if again.Reliability != ra.Reliability {
			t.Errorf("%+v: %v vs %v on repeat", q, again.Reliability, ra.Reliability)
		}
	}
}

// TestBatchMatchesSingle: EstimateBatch, over the whole workload and as
// batches of one, must return field for field (Latency aside) what
// per-query Estimate calls return — amortized source groups, routing, the
// bounds pseudo-estimator, anytime stopping, every non-plain kind and
// rejected queries included. Routed queries are compared only when the
// latency-dependent router picked the same estimator on both engines.
// Estimate must not count as a batch in Stats.
func TestBatchMatchesSingle(t *testing.T) {
	cfg := Config{Workers: 4, MaxK: 300, Seed: 42, CacheSize: 0}
	single := testEngine(t, cfg)
	batch := testEngine(t, cfg)
	ones := testEngine(t, cfg)
	queries := testQueries(append(single.Names(), BoundsName, ""))
	for _, name := range []string{"MC", "PackMC", "BFSSharing", "ProbTree", "RSS", ""} {
		queries = append(queries,
			Query{S: 0, T: 5, K: 300, Eps: 0.2, Estimator: name},
			Query{S: 0, T: 6, K: 300, Eps: 0.2, Estimator: name})
	}
	queries = append(queries,
		Query{Kind: KindDistance, S: 0, T: 6, K: 100, D: 3},
		Query{Kind: KindTopK, S: 1, TopK: 3, K: 100},
		Query{Kind: KindSingleSource, S: 2, K: 100},
		Query{Kind: KindKTerminal, S: 0, Targets: []uncertain.NodeID{4, 5}, K: 100},
		Query{S: 0, T: 5, K: 100, Evidence: Evidence{Include: []uncertain.EdgeID{2}, Exclude: []uncertain.EdgeID{7}}},
		Query{S: 0, T: 5, K: 500, Estimator: "MC"}, // rejected: budget above MaxK
	)
	ctx := context.Background()
	want := make([]Response, len(queries))
	for i, q := range queries {
		want[i] = single.Estimate(ctx, q)
	}
	if st := single.Stats(); st.Batches != 0 || st.BatchQueries != 0 {
		t.Errorf("Estimate counted as a batch: batches %d, batch queries %d", st.Batches, st.BatchQueries)
	}
	same := func(a, b Response) bool {
		a.Latency, b.Latency = 0, 0
		aerr, berr := a.Err, b.Err
		a.Err, b.Err = nil, nil
		return (aerr == nil) == (berr == nil) && reflect.DeepEqual(a, b)
	}
	check := func(how string, i int, got Response) {
		if queries[i].Estimator == "" && got.Used != want[i].Used {
			return
		}
		if !same(got, want[i]) {
			t.Errorf("query %d (%+v): %s\n got %+v\nwant %+v", i, queries[i], how, got, want[i])
		}
	}
	for i, r := range batch.EstimateBatch(ctx, queries) {
		check("batch", i, r)
	}
	for i, q := range queries {
		check("batch of one", i, ones.EstimateBatch(ctx, []Query{q})[0])
	}
	if want[len(want)-1].Err == nil {
		t.Error("over-budget query accepted")
	}
}

func TestCacheHitsAndEviction(t *testing.T) {
	e := testEngine(t, Config{Workers: 1, MaxK: 300, Seed: 42, CacheSize: 2})
	q := Query{S: 0, T: 5, K: 100, Estimator: "MC"}
	first := e.Estimate(context.Background(), q)
	if first.Cached {
		t.Fatal("first answer marked cached")
	}
	second := e.Estimate(context.Background(), q)
	if !second.Cached {
		t.Fatal("second answer not cached")
	}
	if second.Reliability != first.Reliability {
		t.Fatalf("cache returned %v, computed %v", second.Reliability, first.Reliability)
	}
	// Fill the 2-entry cache with two other keys; q must be evicted.
	e.Estimate(context.Background(), Query{S: 1, T: 5, K: 100, Estimator: "MC"})
	e.Estimate(context.Background(), Query{S: 2, T: 5, K: 100, Estimator: "MC"})
	third := e.Estimate(context.Background(), q)
	if third.Cached {
		t.Fatal("evicted entry still cached")
	}
	if third.Reliability != first.Reliability {
		t.Fatalf("recomputed %v, originally %v", third.Reliability, first.Reliability)
	}
	st := e.Stats()
	if st.CacheHits != 1 {
		t.Errorf("cache hits %d, want 1", st.CacheHits)
	}
	if st.CacheLen > st.CacheCap {
		t.Errorf("cache len %d above cap %d", st.CacheLen, st.CacheCap)
	}
}

func TestAdaptiveRouting(t *testing.T) {
	e := testEngine(t, Config{Workers: 2, MaxK: 300, Seed: 42, CacheSize: 64})
	sawEstimator := false
	for s := 0; s < 4; s++ {
		for d := 4; d < 8; d++ {
			res := e.Estimate(context.Background(), Query{S: uncertain.NodeID(s), T: uncertain.NodeID(d), K: 100})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Used == "" {
				t.Fatalf("routed query reports no estimator")
			}
			if res.Reliability < 0 || res.Reliability > 1 {
				t.Errorf("routed reliability %v", res.Reliability)
			}
			if res.Used != BoundsName {
				sawEstimator = true
			}
		}
	}
	st := e.Stats()
	var routed uint64
	for _, es := range st.Estimators {
		routed += es.Routed
	}
	if routed+st.BoundsAnswered == 0 {
		t.Error("router recorded no decisions")
	}
	if sawEstimator && routed == 0 {
		t.Error("estimator answered routed queries but Routed counters are zero")
	}
}

// TestRouterPrefersAccuracyOnWideBounds pins the paper-guided policy: a
// maximally wide interval routes to RSS (the accuracy ranking's best).
func TestRouterPrefersAccuracyOnWideBounds(t *testing.T) {
	r := newRouter(DefaultEstimators(), 0.02, 0.25, 0)
	if got := r.pick(0.9); got != "RSS" {
		t.Errorf("wide bounds routed to %s, want RSS", got)
	}
	// Narrow-but-not-pinched bounds with no latency observations fall back
	// to the paper's online-time prior: ProbTree.
	if got := r.pick(0.1); got != "ProbTree" {
		t.Errorf("narrow bounds routed to %s, want ProbTree", got)
	}
	// Unmeasured candidates are explored before measured EWMAs are
	// trusted: once ProbTree has a sample, the next-best unmeasured
	// candidate by the online-time prior (the widest word-packed kernel)
	// is tried.
	r.observe("ProbTree", 0.5)
	if got := r.pick(0.1); got != "PackMC512" {
		t.Errorf("exploration chose %s, want PackMC512", got)
	}
	// Once every candidate is measured, the lowest EWMA wins — routing
	// can shift away from a slow first choice.
	r2 := newRouter([]string{"ProbTree", "MC"}, 0.02, 0.25, 0)
	r2.observe("ProbTree", 0.5)
	r2.observe("MC", 0.001)
	if got := r2.pick(0.1); got != "MC" {
		t.Errorf("measured-latency routing chose %s, want MC", got)
	}
}

// TestRoutedBatchUsesSharedGroups: adaptive batch queries resolved to
// BFS Sharing must join its amortized source groups and still return
// exactly what explicit single queries return.
func TestRoutedBatchUsesSharedGroups(t *testing.T) {
	cfg := Config{Workers: 4, MaxK: 300, Seed: 42, CacheSize: 0,
		Estimators: []string{"BFSSharing"}}
	batch := testEngine(t, cfg)
	single := testEngine(t, cfg)
	var qs []Query
	for d := 3; d < 15; d++ {
		qs = append(qs, Query{S: 0, T: uncertain.NodeID(d), K: 100})
	}
	for i, res := range batch.EstimateBatch(context.Background(), qs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		switch res.Used {
		case BoundsName: // pinched by the bounds; nothing to compare
		case "BFSSharing":
			want := single.Estimate(context.Background(), Query{S: qs[i].S, T: qs[i].T, K: qs[i].K,
				Estimator: "BFSSharing"})
			if res.Reliability != want.Reliability {
				t.Errorf("query %d: routed batch %v vs explicit single %v",
					i, res.Reliability, want.Reliability)
			}
		default:
			t.Errorf("query %d answered by %q", i, res.Used)
		}
	}
}

// TestExplicitBoundsEstimator: the BoundsName the engine reports for
// pinched queries must itself be accepted as Query.Estimator, in both
// single and batch calls.
func TestExplicitBoundsEstimator(t *testing.T) {
	e := testEngine(t, Config{Workers: 2, MaxK: 300, Seed: 42, CacheSize: 64})
	q := Query{S: 0, T: 9, K: 100, Estimator: BoundsName}
	res := e.Estimate(context.Background(), q)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// K is unused on the bounds path, so its zero value must be accepted.
	if zeroK := e.Estimate(context.Background(), Query{S: 0, T: 9, Estimator: BoundsName}); zeroK.Err != nil {
		t.Fatalf("bounds query with zero K rejected: %v", zeroK.Err)
	} else if zeroK.Reliability != res.Reliability {
		t.Errorf("zero-K bounds answer %v != %v", zeroK.Reliability, res.Reliability)
	}
	if res.Used != BoundsName {
		t.Errorf("answered by %q", res.Used)
	}
	if res.Reliability < 0 || res.Reliability > 1 {
		t.Errorf("reliability %v", res.Reliability)
	}
	for _, r := range e.EstimateBatch(context.Background(), []Query{q, q}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Used != BoundsName || r.Reliability != res.Reliability {
			t.Errorf("batch answer %+v vs single %v", r, res.Reliability)
		}
	}
}

// TestRouterBoundsMemo: repeated adaptive queries for the same (s, t)
// must not recompute the analytic bounds each time.
func TestRouterBoundsMemo(t *testing.T) {
	e := testEngine(t, Config{Workers: 1, MaxK: 300, Seed: 42, CacheSize: 64})
	q := Query{S: 0, T: 9, K: 100}
	first := e.Estimate(context.Background(), q)
	second := e.Estimate(context.Background(), q) // may explore a different estimator; only the
	// bounds computation must be memoized
	if first.Err != nil || second.Err != nil {
		t.Fatalf("%v / %v", first.Err, second.Err)
	}
	ms := e.router.memoStats()
	if ms.Misses != 1 || ms.Hits < 1 {
		t.Errorf("bounds memo hits=%d misses=%d, want 1 miss then hits", ms.Hits, ms.Misses)
	}
	// The memo stats surface through engine Stats for operators.
	st := e.Stats()
	if st.BoundsMemo != ms {
		t.Errorf("Stats().BoundsMemo %+v != router memo %+v", st.BoundsMemo, ms)
	}
	// So does the planner's cost: the one computation, timed, and the
	// cutoff it is compared against.
	if st.BoundsComputed != 1 || st.BoundsSeconds <= 0 || st.BoundsCutoff != defaultBoundsCutoff {
		t.Errorf("Stats() bounds computed %d in %v s at cutoff %v, want 1, > 0, %v", st.BoundsComputed, st.BoundsSeconds, st.BoundsCutoff, defaultBoundsCutoff)
	}
}

func TestStatsCounters(t *testing.T) {
	e := testEngine(t, Config{Workers: 2, MaxK: 300, Seed: 42, CacheSize: 64})
	qs := testQueries([]string{"MC", "RSS"})
	e.EstimateBatch(context.Background(), qs)
	e.Estimate(context.Background(), qs[0]) // cache hit
	st := e.Stats()
	if st.Batches != 1 {
		t.Errorf("batches %d", st.Batches)
	}
	if st.BatchQueries != uint64(len(qs)) {
		t.Errorf("batch queries %d, want %d", st.BatchQueries, len(qs))
	}
	if st.Queries != uint64(len(qs))+1 {
		t.Errorf("queries %d, want %d", st.Queries, len(qs)+1)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hit recorded")
	}
	mc := st.Estimators["MC"]
	if mc.Queries == 0 || mc.PoolReplicas == 0 {
		t.Errorf("MC stats %+v", mc)
	}
}

// TestDo borrows a concrete estimator instance for an advanced query.
func TestDo(t *testing.T) {
	e := testEngine(t, Config{Workers: 1, MaxK: 300, Seed: 42})
	err := e.Do("BFSSharing", func(est core.Estimator) error {
		bs, ok := est.(*core.BFSQuerier)
		if !ok {
			t.Fatalf("borrowed %T", est)
		}
		if got := bs.EstimateAll(0, 100); len(got) != e.Graph().NumNodes() {
			t.Errorf("EstimateAll returned %d entries", len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Do("Unknown", func(core.Estimator) error { return nil }); err == nil {
		t.Error("unknown estimator accepted")
	}
	// Borrowed sampling estimators are reseeded, so results depend only
	// on the engine seed, never on earlier traffic.
	borrowed := func() float64 {
		var v float64
		if err := e.Do("MC", func(est core.Estimator) error {
			v = est.Estimate(0, 5, 100)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := borrowed()
	e.Estimate(context.Background(), Query{S: 1, T: 6, K: 150, Estimator: "MC"}) // perturb the replica
	if again := borrowed(); again != first {
		t.Errorf("borrowed result drifted with traffic: %v vs %v", again, first)
	}
}

// TestBatchDedupesIdenticalQueries: N identical queries in one batch
// compute once and fan out with cache-hit semantics, even with the cache
// disabled — on both the per-query and the shared BFS Sharing paths.
func TestBatchDedupesIdenticalQueries(t *testing.T) {
	for _, est := range []string{"MC", "BFSSharing"} {
		e := testEngine(t, Config{Workers: 4, MaxK: 300, Seed: 42, CacheSize: 0})
		q := Query{S: 0, T: 5, K: 100, Estimator: est}
		results := e.EstimateBatch(context.Background(), []Query{q, q, q, q})
		computed := 0
		for i, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.Reliability != results[0].Reliability {
				t.Errorf("%s result %d: %v != %v", est, i, r.Reliability, results[0].Reliability)
			}
			if !r.Cached {
				computed++
			}
		}
		if computed != 1 {
			t.Errorf("%s: %d computations for 4 identical queries, want 1", est, computed)
		}
	}
}

// TestForEachParallelPanicContained: a panic on an engine worker must be
// contained to its work item — reported through onPanic as a typed error
// carrying the original message — while every other item still runs;
// nothing may escape to the caller's goroutine or kill the process.
func TestForEachParallelPanicContained(t *testing.T) {
	e := testEngine(t, Config{Workers: 4, MaxK: 300, Seed: 1})
	var mu sync.Mutex
	ran := make([]bool, 8)
	var faults []error
	e.forEachParallel(8, func(j int) {
		mu.Lock()
		ran[j] = true
		mu.Unlock()
		if j == 3 {
			panic("boom")
		}
	}, func(j int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if j != 3 {
			t.Errorf("panic attributed to unit %d, want 3", j)
		}
		faults = append(faults, err)
	})
	for j, ok := range ran {
		if !ok {
			t.Errorf("unit %d did not run after unit 3 panicked", j)
		}
	}
	if len(faults) != 1 {
		t.Fatalf("%d fault reports, want 1", len(faults))
	}
	if !errors.Is(faults[0], ErrEstimatorPanic) {
		t.Errorf("fault %v does not wrap ErrEstimatorPanic", faults[0])
	}
	if !strings.Contains(faults[0].Error(), "boom") {
		t.Errorf("panic message lost: %v", faults[0])
	}
}

func TestPoolBoundsReplicaCount(t *testing.T) {
	e := testEngine(t, Config{Workers: 3, MaxK: 300, Seed: 42, CacheSize: 0})
	qs := make([]Query, 0, 64)
	for i := 0; i < 64; i++ {
		qs = append(qs, Query{
			S: uncertain.NodeID(i % 8), T: uncertain.NodeID(8 + i%5),
			K: 100, Estimator: "MC",
		})
	}
	e.EstimateBatch(context.Background(), qs)
	if n := e.Stats().Estimators["MC"].PoolReplicas; n > 3 {
		t.Errorf("pool built %d replicas, cap 3", n)
	}
}

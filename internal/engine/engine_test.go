package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"relcomp/internal/bounds"
	"relcomp/internal/core"
	"relcomp/internal/datasets"
	"relcomp/internal/exact"
	"relcomp/internal/rng"
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
// latency-dependent router picked the same estimator on both engines. A
// routed query that the batch resolved onto an identical named query
// earlier in it is that query's duplicate: it must carry the named
// query's batch answer, reported as reused.
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
	// Separate Estimate calls on the cache-less engine compute a routed
	// query that a batch answers as the duplicate of an identical named
	// query (fanOut reports duplicates as Cached, cache or no cache).
	got := batch.EstimateBatch(ctx, queries)
	for i, r := range got {
		if queries[i].Estimator == "" && r.Cached && !want[i].Cached {
			named := queries[i]
			named.Estimator = r.Used
			j := slices.IndexFunc(queries[:i], func(q Query) bool { return reflect.DeepEqual(q, named) })
			if j < 0 {
				t.Errorf("query %d (%+v): batch reports Cached with no identical named query before it", i, queries[i])
				continue
			}
			dup := got[j]
			dup.Request, dup.Cached, dup.Latency = want[i].Request, true, 0
			if !same(r, dup) {
				t.Errorf("query %d (%+v): not the duplicate of query %d\n got %+v\nwant %+v", i, queries[i], j, r, dup)
			}
			continue
		}
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

// TestRouterPrefersAccuracyOnWideBounds pins the routing policy. Its
// name is kept from the policy it used to pin, which sent wide-bounds
// queries to the most accurate estimator, RSS, whatever they cost; routing
// now follows measured cost alone.
func TestRouterPrefersAccuracyOnWideBounds(t *testing.T) {
	// Unmeasured candidates are explored in engine order.
	names := []string{"RSS", "ProbTree", "MC"}
	r := newRouter(names, 0.02, 16)
	for i, name := range names {
		if got := r.pick(); got != name {
			t.Fatalf("exploration step %d chose %s, want %s", i, got, name)
		}
		r.observe(name, []float64{0.5, 0.2, 0.001}[i])
	}
	// Once every candidate is measured, the cheapest wins, whatever the
	// bounds width: wide, hard-classified bounds no longer route to RSS.
	g := uncertain.NewBuilder(2).Build()
	for tag, b := range [][2]float64{{0.05, 0.95}, {0, 1}, {0.4, 0.5}} {
		r.memo.put(cacheKey{s: 0, t: 1, epoch: uint64(tag)}, memoBounds{lo: b[0], hi: b[1], full: true})
		if d := r.route(g, uint64(tag), 0, 1); d.estimator != "MC" {
			t.Errorf("bounds %v routed to %q, want the cheapest, MC", b, d.estimator)
		}
	}
	// The bit-identical pack widths are one candidate: with PackMC built,
	// PackMC256 and PackMC512 are never routed.
	e := testEngine(t, Config{Workers: 2, MaxK: 300, Seed: 42})
	want := []string{"MC", "BFSSharing", "ProbTree", "LP+", "RHH", "RSS", "PackMC"}
	if !reflect.DeepEqual(e.router.candidates, want) {
		t.Errorf("routing candidates %v, want %v", e.router.candidates, want)
	}
}

// TestRouterRoutesOnePackWidth: without PackMC built, another pack width
// is routable; with it built, the other widths still answer when named
// but are never routed.
func TestRouterRoutesOnePackWidth(t *testing.T) {
	only512 := testEngine(t, Config{Workers: 2, MaxK: 300, Seed: 42, Estimators: []string{pack512Name}})
	if got := only512.router.candidates; !reflect.DeepEqual(got, []string{pack512Name}) {
		t.Errorf("routing candidates %v, want [%s]", got, pack512Name)
	}
	if res := only512.Estimate(context.Background(), Query{S: 0, T: 5, K: 200}); res.Err != nil {
		t.Fatal(res.Err)
	} else if res.Used != pack512Name && res.Used != BoundsName {
		t.Errorf("routed query answered by %q", res.Used)
	}

	e := testEngine(t, Config{Workers: 2, MaxK: 300, Seed: 42})
	for _, name := range []string{pack256Name, pack512Name} {
		if slices.Contains(e.router.candidates, name) {
			t.Errorf("%s is a routing candidate beside %s", name, packName)
		}
		res := e.Estimate(context.Background(), Query{S: 0, T: 5, K: 200, Estimator: name})
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if res.Used != name || res.Reliability < 0 || res.Reliability > 1 {
			t.Errorf("%s: answered %v by %q", name, res.Reliability, res.Used)
		}
	}
}

// TestRouterLatencyDoesNotFlip: a few costly queries must not lift a
// well-measured cheap estimator above a dearer one's stale estimate (a
// 5-query-deep EWMA put MC at 2.95 ms here and routed to LP+), yet the
// estimate must still follow a lasting change in cost.
func TestRouterLatencyDoesNotFlip(t *testing.T) {
	r := newRouter([]string{"LP+", "MC"}, 0.02, 16)
	observe := func(name string, n int, secs float64) {
		for i := 0; i < n; i++ {
			r.observe(name, secs)
		}
	}
	observe("LP+", 30, 1.5e-3)
	observe("MC", 200, 1.0e-3)
	observe("MC", 3, 5e-3)
	if got := r.pick(); got != "MC" {
		t.Errorf("after three costly MC queries routed to %s (MC %v s, LP+ %v s), want MC",
			got, r.latency["MC"].secs, r.latency["LP+"].secs)
	}

	const steady = 4e-3
	from := r.latency["MC"].secs
	observe("MC", 1000, steady)
	if moved := (r.latency["MC"].secs - from) / (steady - from); moved < 0.95 {
		t.Errorf("after 1000 samples the estimate moved %.3f of the way to the new cost, want >= 0.95", moved)
	}
	if got := r.pick(); got != "LP+" {
		t.Errorf("after MC's cost rose routed to %s, want LP+", got)
	}
}

// TestRouterRetriesUnderSampledCandidates: a cheap candidate whose first
// sample was unlucky must not be shut out for good, while a candidate
// whose samples show it dearer stops being tried, at once when it is
// far dearer.
func TestRouterRetriesUnderSampledCandidates(t *testing.T) {
	cost := map[string]float64{"MC": 1.0e-3, "LP+": 1.8e-3, "RSS": 30e-3}
	r := newRouter([]string{"MC", "LP+", "RSS"}, 0.02, 16)
	r.observe("MC", 2.1e-3) // a costly pair
	r.observe("LP+", cost["LP+"])
	r.observe("RSS", cost["RSS"])
	picked := map[string]int{}
	for i := 0; i < 2000; i++ {
		name := r.pick()
		r.observe(name, cost[name])
		if i >= 1000 {
			picked[name]++
		}
	}
	if picked["MC"] != 1000 {
		t.Errorf("last 1000 picks %v (MC %v s, LP+ %v s), want all MC", picked, r.latency["MC"].secs, r.latency["LP+"].secs)
	}
	if n := r.latency["RSS"].n; n != 1 {
		t.Errorf("RSS, 30x dearer, was tried %d times, want once", n)
	}
}

// TestRouterDegradesToCheapest: the degradation ladder's choice is the
// lowest measured latency, never a candidate still being explored or
// retried on few samples.
func TestRouterDegradesToCheapest(t *testing.T) {
	r := newRouter([]string{"MC", "LP+", "RSS"}, 0.02, 16)
	if got := r.cheapest(); got != "MC" {
		t.Errorf("nothing measured: cheapest %s, want the first candidate, MC", got)
	}
	r.observe("RSS", 30e-3)
	if got, explore := r.cheapest(), r.pick(); got != "RSS" || explore != "MC" {
		t.Errorf("only RSS measured: cheapest %s, pick %s; want RSS, MC", got, explore)
	}
	r.observe("MC", 2.1e-3)
	for i := 0; i < 64; i++ {
		r.observe("LP+", 1.8e-3)
	}
	if got, retry := r.cheapest(), r.pick(); got != "LP+" || retry != "MC" {
		t.Errorf("cheapest %s, pick %s; want LP+ (lowest mean), MC (retried on one sample)", got, retry)
	}
}

// TestRoutedAnswersMatchExact checks routed answers against the exact
// oracle on small random graphs, after every candidate is measured, so
// that the answers come from whichever estimator measures cheapest:
// sampled answers lie within 5 standard errors (plus 1e-3) of R, and
// bounds-answered ones within half the pinch cutoff. An engine with only
// PackMC built answers the same queries too, so that some answers always
// come from the routed two-phase plan.
func TestRoutedAnswersMatchExact(t *testing.T) {
	const k = 1000
	used := map[string]int{}
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		const n = 7
		b := uncertain.NewBuilder(n)
		for i, m := 0, 10+src.Intn(7); i < m; i++ {
			from, to := uncertain.NodeID(src.Intn(n)), uncertain.NodeID(src.Intn(n))
			if from != to {
				b.MustAddEdge(from, to, 0.05+0.9*src.Float64())
			}
		}
		g := b.Build()
		e, err := New(g, Config{Workers: 2, MaxK: k, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		packOnly, err := New(g, Config{Workers: 2, MaxK: k, Seed: seed, Estimators: []string{packName}})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range e.router.candidates {
			if res := e.Estimate(context.Background(), Query{S: 0, T: 1, K: k, Estimator: name}); res.Err != nil {
				t.Fatalf("seed %d warming %s: %v", seed, name, res.Err)
			}
		}
		if len(e.router.latency) != len(e.router.candidates) {
			t.Fatalf("seed %d: %d of %d candidates measured", seed, len(e.router.latency), len(e.router.candidates))
		}
		for s := uncertain.NodeID(0); s < 2; s++ {
			for d := uncertain.NodeID(0); d < n; d++ {
				if d == s {
					continue
				}
				want, err := exact.Enumerate(g, s, d)
				if err != nil {
					t.Fatal(err)
				}
				for _, eng := range []*Engine{e, packOnly} {
					res := eng.Estimate(context.Background(), Query{S: s, T: d, K: k})
					if res.Err != nil {
						t.Fatalf("seed %d (%d,%d): %v", seed, s, d, res.Err)
					}
					used[res.Used]++
					tol := 5*math.Sqrt(want*(1-want)/k) + 1e-3
					if res.Used == BoundsName {
						tol = defaultBoundsCutoff/2 + 1e-12
					}
					if got := res.Reliability; got < 0 || got > 1 || math.Abs(got-want) > tol {
						t.Errorf("seed %d (%d,%d): %s answered %v, exact %v, tolerance %v", seed, s, d, res.Used, got, want, tol)
					}
				}
			}
		}
	}
	if len(used) < 2 || used[planName] == 0 {
		t.Errorf("routed answers came only from %v; want sampled, plan and bounds answers", used)
	}
	t.Logf("routed answers by estimator: %v", used)
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

// TestRoutedAnytimeGetsFullBounds: a routed fixed-k query memoizes
// decision-grade bounds, and a routed eps query of the same pair after it
// (or beside it in one batch) must still seed its schedule from the full
// bounds, answering exactly as on an engine that never saw the fixed-k
// query.
func TestRoutedAnytimeGetsFullBounds(t *testing.T) {
	cfg := Config{Workers: 2, MaxK: 20000, Seed: 42, Estimators: []string{"MC"}}
	e := testEngine(t, cfg)
	g := e.Graph()
	// A pair whose decision-grade lower bound is below the full one.
	fixed := Query{S: -1, K: 200}
	for s := uncertain.NodeID(0); fixed.S < 0 && int(s) < g.NumNodes(); s++ {
		for d := uncertain.NodeID(0); int(d) < g.NumNodes(); d++ {
			if lo, _, full, err := bounds.Decide(g, s, d, defaultBoundsCutoff); err == nil && !full {
				if blo, _, _ := bounds.Bounds(g, s, d); lo < blo {
					fixed.S, fixed.T = s, d
					break
				}
			}
		}
	}
	if fixed.S < 0 {
		t.Fatal("no pair stops its lower-bound rounds early")
	}
	lo, hi, _ := bounds.Bounds(g, fixed.S, fixed.T)
	memoIsFull := func(label string, e *Engine) {
		t.Helper()
		key := cacheKey{s: fixed.S, t: fixed.T, epoch: e.state.Load().srcTag(fixed.S)}
		if b, _ := e.router.memo.peek(key); b != (memoBounds{lo: lo, hi: hi, full: true}) {
			t.Errorf("%s: the memo holds %+v, want the full bounds [%v, %v]", label, b, lo, hi)
		}
	}
	eps := Query{S: fixed.S, T: fixed.T, K: cfg.MaxK, Eps: 0.05}
	first := testEngine(t, cfg)
	fresh := first.Estimate(context.Background(), eps)
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	memoIsFull("eps alone", first)
	same := func(label string, got Result) {
		t.Helper()
		if got.Err != nil || got.Used != fresh.Used || got.Reliability != fresh.Reliability ||
			got.SamplesUsed != fresh.SamplesUsed || got.StopReason != fresh.StopReason {
			t.Errorf("%s: %s answered %v on %d samples (%s, err %v); a fresh engine %s answered %v on %d (%s)", label,
				got.Used, got.Reliability, got.SamplesUsed, got.StopReason, got.Err,
				fresh.Used, fresh.Reliability, fresh.SamplesUsed, fresh.StopReason)
		}
	}
	if res := e.Estimate(context.Background(), fixed); res.Err != nil {
		t.Fatal(res.Err)
	}
	key := cacheKey{s: fixed.S, t: fixed.T, epoch: e.state.Load().srcTag(fixed.S)}
	if b, ok := e.router.memo.peek(key); !ok || b.full {
		t.Fatalf("after the fixed-k query the memo holds %+v (present %v), want decision-grade bounds", b, ok)
	}
	same("eps after fixed-k", e.Estimate(context.Background(), eps))
	memoIsFull("eps after fixed-k", e)

	mixed := testEngine(t, cfg)
	same("eps beside fixed-k in one batch", mixed.EstimateBatch(context.Background(), []Query{fixed, eps})[1])
	memoIsFull("eps beside fixed-k in one batch", mixed)
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

// TestRoutedPackPlan: a routed fixed-k query the router sends to PackMC
// runs the two-phase plan under its own name, stream and cache entries;
// batch answers equal single ones; the router's PackMC row measures it;
// Do borrows it by that name; and an eps-targeted routed query keeps the
// plain pack.
func TestRoutedPackPlan(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Workers: 2, MaxK: 500, Seed: 42, CacheSize: 64, Estimators: []string{packName}}
	batch, single := testEngine(t, cfg), testEngine(t, cfg)
	var qs []Query
	for d := uncertain.NodeID(3); d < 15; d++ {
		qs = append(qs, Query{S: 0, T: d, K: 300}, Query{S: 1, T: d, K: 300})
	}
	qs = append(qs, qs[0], qs[5])
	planned := 0
	for i, res := range batch.EstimateBatch(ctx, qs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want := single.Estimate(ctx, qs[i])
		if res.Used != want.Used || res.Reliability != want.Reliability || res.SamplesUsed != want.SamplesUsed {
			t.Errorf("query %d: batch %s %v (%d samples), single %s %v (%d)", i, res.Used, res.Reliability, res.SamplesUsed,
				want.Used, want.Reliability, want.SamplesUsed)
		}
		switch res.Used {
		case planName:
			planned++
		case BoundsName:
		default:
			t.Errorf("query %d routed to %q", i, res.Used)
		}
	}
	if planned == 0 {
		t.Fatal("no routed query ran the plan")
	}
	st := batch.Stats()
	if st.Estimators[packName].Routed == 0 || st.Estimators[packName].EwmaLatencyMs == 0 {
		t.Errorf("router's PackMC row %+v does not count the plan", st.Estimators[packName])
	}

	// The plan's cache entries are its own: a named PackMC query of a
	// planned pair computes afresh, and a repeat of the routed one hits.
	var q Query
	for _, res := range batch.EstimateBatch(ctx, qs) {
		if res.Used == planName {
			q = res.Request
			if !res.Cached {
				t.Errorf("repeated routed query (%d,%d) missed the cache", q.S, q.T)
			}
		}
	}
	named := q
	named.Estimator = packName
	if res := batch.Estimate(ctx, named); res.Cached || res.Used != packName {
		t.Errorf("named PackMC after the plan: used %q, cached %v", res.Used, res.Cached)
	}
	anytime := q
	anytime.Eps = 0.05
	if res := batch.Estimate(ctx, anytime); res.Err != nil || res.Used != packName {
		t.Errorf("eps-targeted routed query: used %q, err %v", res.Used, res.Err)
	}

	var borrowed float64
	if err := batch.Do(planName, func(est core.Estimator) error {
		if est.Name() != planName {
			t.Errorf("Do(%q) lent %s", planName, est.Name())
		}
		borrowed = est.Estimate(q.S, q.T, q.K)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if borrowed < 0 || borrowed > 1 {
		t.Errorf("borrowed plan answered %v", borrowed)
	}
}

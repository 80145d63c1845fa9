package core

import (
	"math"
	"reflect"
	"testing"

	"relcomp/internal/exact"
	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// TestPackMCMatchesExactFixtures: the word-packed sampler must agree with
// the exact reliability on the cascade and cycle fixtures that exercise
// its fixpoint propagation, at a K that makes the MC standard error tiny.
func TestPackMCMatchesExactFixtures(t *testing.T) {
	fixtures := [][]uncertain.Edge{
		{ // diamond with back edge: cascading updates required
			{From: 0, To: 1, P: 0.3},
			{From: 0, To: 2, P: 0.9},
			{From: 2, To: 1, P: 0.9},
			{From: 1, To: 3, P: 0.8},
		},
		{ // directed cycle on the path
			{From: 0, To: 1, P: 0.9},
			{From: 1, To: 2, P: 0.9},
			{From: 2, To: 1, P: 0.9},
			{From: 2, To: 3, P: 0.9},
		},
	}
	for fi, edges := range fixtures {
		g := testGraph(t, 4, edges)
		want, err := exact.Factoring(g, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		pm := NewPackMC(g, uint64(fi)+3)
		if got := pm.Estimate(0, 3, 100000); math.Abs(got-want) > 0.01 {
			t.Errorf("fixture %d: R = %.4f, exact %.4f", fi, got, want)
		}
	}
}

// TestPackMCStatisticallyEquivalentToMC: at equal K, PackMC draws the same
// number of independent Bernoulli worlds as MC, so repeated reseeded runs
// must produce the same mean within sampling noise — the tolerance the
// exact-agreement tests use (0.03 at K = 20000).
func TestPackMCStatisticallyEquivalentToMC(t *testing.T) {
	r := rng.New(31)
	g := randomTestGraph(r, 10, 28)
	const k, repeats = 2000, 30
	mean := func(est Estimator, seeder Seeder) float64 {
		sum := 0.0
		for rep := 0; rep < repeats; rep++ {
			seeder.Reseed(uint64(rep)*7919 + 5)
			sum += est.Estimate(0, 9, k)
		}
		return sum / repeats
	}
	mc := NewMC(g, 1)
	pm := NewPackMC(g, 1)
	mcMean := mean(mc, mc)
	pmMean := mean(pm, pm)
	if math.Abs(mcMean-pmMean) > 0.03 {
		t.Errorf("PackMC mean %.4f vs MC mean %.4f", pmMean, mcMean)
	}
	want, err := exact.Factoring(g, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmMean-want) > 0.03 {
		t.Errorf("PackMC mean %.4f vs exact %.4f", pmMean, want)
	}
}

// TestPackMCDeterminismAndFreshWorlds: a fixed seed replays the exact
// estimate sequence, while successive calls without a reseed must draw
// fresh worlds (the round counter salts the mask streams).
func TestPackMCDeterminismAndFreshWorlds(t *testing.T) {
	g := testGraph(t, 4, []uncertain.Edge{ // R(0,3) = 0.4375: mid-range,
		{From: 0, To: 1, P: 0.5}, // so 64-lane estimates vary
		{From: 1, To: 3, P: 0.5},
		{From: 0, To: 2, P: 0.5},
		{From: 2, To: 3, P: 0.5},
	})
	pm := NewPackMC(g, 9)
	var first []float64
	seen := map[float64]bool{}
	for i := 0; i < 6; i++ {
		v := pm.Estimate(0, 3, 64)
		first = append(first, v)
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Error("successive estimates did not vary: rounds are not drawing fresh worlds")
	}
	pm.Reseed(9)
	for i, want := range first {
		if got := pm.Estimate(0, 3, 64); got != want {
			t.Fatalf("call %d after Reseed: %v, want %v", i, got, want)
		}
	}
	// A fresh instance with the same seed replays the same sequence too.
	pm2 := NewPackMC(g, 9)
	if got := pm2.Estimate(0, 3, 64); got != first[0] {
		t.Errorf("fresh instance: %v, want %v", got, first[0])
	}
}

// TestPackMCEstimateAllMatchesEstimate is the bit-identity contract the
// engine's source-grouped batch path relies on: from the same (seed,
// round) state, EstimateAll(s, k)[t] must equal Estimate(s, t, k) exactly
// — the counter-based mask streams make early termination invisible in
// the values.
func TestPackMCEstimateAllMatchesEstimate(t *testing.T) {
	r := rng.New(35)
	g := randomTestGraph(r, 12, 36)
	for _, k := range []int{1, 50, 64, 200} {
		pm := NewPackMC(g, 17)
		all := pm.EstimateAll(0, k)
		if len(all) != g.NumNodes() {
			t.Fatalf("EstimateAll returned %d entries", len(all))
		}
		if all[0] != 1 {
			t.Errorf("k=%d: source reliability %v, want 1", k, all[0])
		}
		for v := 1; v < g.NumNodes(); v++ {
			pm.Reseed(17)
			if got := pm.Estimate(0, uncertain.NodeID(v), k); got != all[v] {
				t.Errorf("k=%d target %d: Estimate %v vs EstimateAll %v", k, v, got, all[v])
			}
		}
	}
}

// TestParallelPackMCMatchesSequential: sharding packs over any number of
// workers must be bit-identical to the sequential PackMC — the shard
// boundaries cannot show because every pack's masks are a pure function
// of (seed, round, pack, edge).
func TestParallelPackMCMatchesSequential(t *testing.T) {
	r := rng.New(37)
	g := randomTestGraph(r, 10, 30)
	for _, k := range []int{1, 63, 64, 65, 200, 1000} {
		pm := NewPackMC(g, 21)
		want := pm.Estimate(0, 9, k)
		for _, workers := range []int{1, 2, 3, 8} {
			pp := NewParallelPackMC(g, 21, workers)
			if got := pp.Estimate(0, 9, k); got != want {
				t.Errorf("k=%d workers=%d: %v, want %v", k, workers, got, want)
			}
		}
	}
	// Successive calls advance the shared round convention in lockstep.
	pm := NewPackMC(g, 23)
	pp := NewParallelPackMC(g, 23, 4)
	for call := 0; call < 4; call++ {
		a, b := pm.Estimate(0, 9, 300), pp.Estimate(0, 9, 300)
		if a != b {
			t.Fatalf("call %d: sequential %v vs parallel %v", call, a, b)
		}
	}
}

// TestPackMCPartialPacks: budgets that do not fill the final 64-world pack
// must count only the live lanes — a certain chain gives exactly 1 and a
// broken chain exactly 0 at any K.
func TestPackMCPartialPacks(t *testing.T) {
	chain := testGraph(t, 4, []uncertain.Edge{
		{From: 0, To: 1, P: 1},
		{From: 1, To: 2, P: 1},
		{From: 2, To: 3, P: 1},
	})
	broken := testGraph(t, 4, []uncertain.Edge{
		{From: 0, To: 1, P: 1},
		{From: 2, To: 3, P: 1},
	})
	for _, k := range []int{1, 7, 63, 64, 65, 100, 128} {
		if got := NewPackMC(chain, 1).Estimate(0, 3, k); got != 1 {
			t.Errorf("certain chain k=%d: %v, want 1", k, got)
		}
		if got := NewPackMC(broken, 1).Estimate(0, 3, k); got != 0 {
			t.Errorf("broken chain k=%d: %v, want 0", k, got)
		}
	}
}

// TestPackMCTopKUsesSourcePath: PackMC's EstimateAll plugs into the top-k
// reliability search as a SourceEstimator.
func TestPackMCTopKUsesSourcePath(t *testing.T) {
	g := testGraph(t, 4, []uncertain.Edge{
		{From: 0, To: 1, P: 0.9},
		{From: 0, To: 2, P: 0.2},
		{From: 1, To: 3, P: 0.5},
	})
	top, err := TopKReliableTargets(NewPackMC(g, 7), g, 0, 2, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Node != 1 {
		t.Fatalf("top-2 from 0: %+v, want node 1 first", top)
	}
}

// bidiTestGraph draws a random graph of 2–16 nodes whose edges take
// probability p (< 0: a per-edge mix of 0, 1, 0.003 and uniform). Repeated
// and reversed endpoint pairs are frequent: the builder merges repeats
// into one parallel-free edge, and reversals give the bi-directed shape of
// the real datasets. The builder rejects p = 0, so such edges are
// tombstoned after building, the way a mutation removes an edge. With
// noIn, the last node gets no in-edges.
func bidiTestGraph(t *testing.T, r *rng.Source, p float64, noIn bool) *uncertain.Graph {
	t.Helper()
	n := 2 + r.Intn(15)
	b := uncertain.NewBuilder(n)
	var last uncertain.Edge
	var tombs []uncertain.EdgeDelta
	for i, m := 0, r.Intn(4*n); i < m; i++ {
		e := uncertain.Edge{From: uncertain.NodeID(r.Intn(n)), To: uncertain.NodeID(r.Intn(n)), P: p}
		switch r.Intn(8) {
		case 0:
			e.From, e.To = last.From, last.To
		case 1, 2:
			e.From, e.To = last.To, last.From
		}
		if noIn && int(e.To) == n-1 {
			e.To = 0
		}
		if e.From == e.To {
			continue
		}
		if p < 0 {
			e.P = []float64{0, 1, 0.003, 0.01 + 0.98*r.Float64()}[r.Intn(4)]
		}
		if e.P == 0 {
			tombs = append(tombs, uncertain.EdgeDelta{From: e.From, To: e.To})
			e.P = 0.5
		}
		b.MustAddEdge(e.From, e.To, e.P)
		last = e
	}
	g, _, err := uncertain.ApplyDeltas(b.Build(), tombs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPackMCBidirectionalMatchesForward: the s-t pack meets in the middle,
// yet must return, lane by lane, exactly the forward sweep's fixpoint mask
// at t — on merged parallel and bi-directed edges, certain, tombstoned and
// near-zero edges, unreachable targets, targets with no in-edges, and
// every shape of active-lane mask (full, one lane, a partial final pack,
// random, k = 0 and k = 1). Its estimates must also agree with the exact
// reliability.
func TestPackMCBidirectionalMatchesForward(t *testing.T) {
	r := rng.New(47)
	probs := []float64{-1, 0, 1, 0.003, 0.5}
	var packs, unreachable, noInTargets, exactChecks int
	for gi := 0; gi < 240; gi++ {
		noIn := gi%3 == 0
		g := bidiTestGraph(t, r, probs[gi%len(probs)], noIn)
		n := g.NumNodes()
		bidi, fwd := NewPackMC(g, uint64(gi)), NewPackMC(g, uint64(gi))
		base := r.Uint64()
		masks := []uint64{
			^uint64(0), uint64(1) << uint(r.Intn(64)), activeLanes(1, 100),
			0x5555555555555555, r.Uint64(), activeLanes(0, 0), activeLanes(0, 1),
		}
		for s := 0; s < n; s++ {
			for tt := 0; tt < n; tt++ {
				if s == tt {
					continue
				}
				src, dst := uncertain.NodeID(s), uncertain.NodeID(tt)
				for j, active := range masks {
					got := bidi.runPack(base, uint64(j), src, dst, active)
					fwd.sweepPack(base, uint64(j), src, active)
					var want uint64
					if fn := fwd.fwd.nodes[dst]; fn.epoch == fwd.epoch {
						want = fn.mask & active
					}
					if got != want {
						t.Fatalf("graph %d (%d nodes, %d edges) %d->%d pack %d active %#x: bidirectional %#x, forward %#x",
							gi, n, g.NumEdges(), s, tt, j, active, got, want)
					}
					packs++
					if j == 0 && want == 0 {
						unreachable++
					}
				}
				if noIn && tt == n-1 {
					noInTargets++
				}
			}
		}
		if g.NumEdges() > 14 {
			continue // keep exact.Enumerate's 2^m worlds small
		}
		s, tt := uncertain.NodeID(0), uncertain.NodeID(n-1)
		want, err := exact.Enumerate(g, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		const k = 4096
		// One sample's worth on top of 5σ: a count of k worlds cannot
		// resolve a probability far below 1/k.
		tol := 5*math.Sqrt(want*(1-want)/k) + 1.0/k
		if got := bidi.Estimate(s, tt, k); math.Abs(got-want) > tol {
			t.Errorf("graph %d: Estimate(%d, %d, %d) = %.5f, exact %.5f (tolerance %.5f)", gi, s, tt, k, got, want, tol)
		}
		exactChecks++
	}
	if unreachable == 0 || noInTargets == 0 || exactChecks < 50 {
		t.Fatalf("weak coverage: %d unreachable pairs, %d in-degree-0 targets, %d exact checks", unreachable, noInTargets, exactChecks)
	}
	t.Logf("%d packs, %d unreachable pairs, %d in-degree-0 targets, %d exact checks", packs, unreachable, noInTargets, exactChecks)
}

// TestPackMCEpochWrap: the wrap-around clear of the pack epoch must reset
// both search sides. Each round leaves state stamped at epochs 1 and 2 and
// then wraps again; a clear that forgot a side would let those stale
// stamps read as live in the next round's post-wrap packs.
func TestPackMCEpochWrap(t *testing.T) {
	// A sparse graph, so most lanes miss t and a stale stamp shows.
	g := randomTestGraph(rng.New(9), 14, 24)
	used, fresh := NewPackMC(g, 5), NewPackMC(g, 5)
	base := mix(5, 1, 0)
	for s := uncertain.NodeID(0); s < 14; s++ {
		tt := 13 - s
		if s == tt {
			continue
		}
		used.epoch = ^uint32(0) - 1
		for j := uint64(0); j < 3; j++ {
			got := used.runPack(base+uint64(s), j, s, tt, ^uint64(0))
			want := fresh.runPack(base+uint64(s), j, s, tt, ^uint64(0))
			if got != want {
				t.Fatalf("%d->%d pack %d after the epoch wrap: %#x, fresh instance %#x", s, tt, j, got, want)
			}
		}
	}
}

// TestPackMCMemoryBytesCoversSlices: MemoryBytes must count at least every
// byte the instance's slices hold after queries in both modes, backward
// search state included; ParallelPackMC's arithmetic must cover one fresh
// kernel per worker.
func TestPackMCMemoryBytesCoversSlices(t *testing.T) {
	g := randomTestGraph(rng.New(3), 300, 2400)
	pm := NewPackMC(g, 1)
	pm.Estimate(0, 299, 500)
	pm.EstimateAll(0, 500)
	if got, held := pm.MemoryBytes(), sliceBytes(reflect.ValueOf(pm).Elem()); got < held {
		t.Errorf("PackMC MemoryBytes %d below the %d bytes its slices hold", got, held)
	}
	const workers = 3
	par := NewParallelPackMC(g, 1, workers)
	if got, held := par.MemoryBytes(), workers*sliceBytes(reflect.ValueOf(NewPackMC(g, 1)).Elem()); got < held {
		t.Errorf("ParallelPackMC MemoryBytes %d below %d workers' fresh slices (%d bytes)", got, workers, held)
	}
}

// sliceBytes sums cap·element size over every slice reachable from v
// through struct fields (pointers are not followed).
func sliceBytes(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Slice:
		return int64(v.Cap()) * int64(v.Type().Elem().Size())
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += sliceBytes(v.Field(i))
		}
		return b
	}
	return 0
}

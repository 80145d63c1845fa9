package bounds

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"relcomp/internal/datasets"
	"relcomp/internal/exact"
	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
	"relcomp/internal/workload"
)

func buildGraph(t *testing.T, n int, edges []uncertain.Edge) *uncertain.Graph {
	t.Helper()
	b := uncertain.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.From, e.To, e.P); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestMostReliablePathChain(t *testing.T) {
	g := buildGraph(t, 4, []uncertain.Edge{
		{From: 0, To: 1, P: 0.9},
		{From: 1, To: 2, P: 0.8},
		{From: 2, To: 3, P: 0.7},
	})
	p, err := MostReliablePath(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Prob-0.9*0.8*0.7) > 1e-12 {
		t.Errorf("prob %v", p.Prob)
	}
	if len(p.Nodes) != 4 || p.Nodes[0] != 0 || p.Nodes[3] != 3 {
		t.Errorf("path %v", p.Nodes)
	}
}

func TestMostReliablePathPicksBetterRoute(t *testing.T) {
	// Short low-prob route vs long high-prob route.
	g := buildGraph(t, 5, []uncertain.Edge{
		{From: 0, To: 4, P: 0.2},
		{From: 0, To: 1, P: 0.9},
		{From: 1, To: 2, P: 0.9},
		{From: 2, To: 3, P: 0.9},
		{From: 3, To: 4, P: 0.9},
	})
	p, err := MostReliablePath(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9 * 0.9 * 0.9 * 0.9 // 0.6561 > 0.2
	if math.Abs(p.Prob-want) > 1e-12 {
		t.Errorf("prob %v, want %v", p.Prob, want)
	}
	if len(p.Nodes) != 5 {
		t.Errorf("path %v", p.Nodes)
	}
}

func TestMostReliablePathUnreachable(t *testing.T) {
	g := buildGraph(t, 3, []uncertain.Edge{{From: 0, To: 1, P: 0.5}})
	p, err := MostReliablePath(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Prob != 0 || p.Nodes != nil {
		t.Errorf("unreachable path %+v", p)
	}
	p, err = MostReliablePath(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Prob != 1 || len(p.Nodes) != 1 {
		t.Errorf("s==t path %+v", p)
	}
	if _, err := MostReliablePath(g, 0, 9); err == nil {
		t.Error("out-of-range target accepted")
	}
}

// TestMostReliablePathOptimal: on the oracle graphs no path found by
// brute-force search beats the returned one, which is a real path from s
// to t whose edge probabilities multiply to Prob.
func TestMostReliablePathOptimal(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		g, s, tt := oracleCase(seed)
		got, err := MostReliablePath(g, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if want := bestPathBrute(g, s, tt); math.Abs(got.Prob-want) > 1e-12 {
			t.Errorf("seed %d: prob %v, brute force %v", seed, got.Prob, want)
		}
		if got.Prob == 0 {
			if got.Nodes != nil {
				t.Errorf("seed %d: nodes %v on a zero-probability path", seed, got.Nodes)
			}
			continue
		}
		if got.Nodes[0] != s || got.Nodes[len(got.Nodes)-1] != tt {
			t.Errorf("seed %d: path %v does not run from %d to %d", seed, got.Nodes, s, tt)
		}
		prob := 1.0
		for i := 1; i < len(got.Nodes); i++ {
			id := g.FindEdge(got.Nodes[i-1], got.Nodes[i])
			if id < 0 {
				t.Fatalf("seed %d: path %v takes a missing edge", seed, got.Nodes)
			}
			prob *= g.Edge(id).P
		}
		if math.Abs(prob-got.Prob) > 1e-12 {
			t.Errorf("seed %d: path %v has product %v, reported %v", seed, got.Nodes, prob, got.Prob)
		}
	}
}

// bestPathBrute finds the max-probability simple path by DFS enumeration.
func bestPathBrute(g *uncertain.Graph, s, t uncertain.NodeID) float64 {
	if s == t {
		return 1
	}
	visited := make([]bool, g.NumNodes())
	best := 0.0
	var dfs func(v uncertain.NodeID, prob float64)
	dfs = func(v uncertain.NodeID, prob float64) {
		if v == t {
			if prob > best {
				best = prob
			}
			return
		}
		visited[v] = true
		tos := g.OutNeighbors(v)
		ps := g.OutProbs(v)
		for i, w := range tos {
			if !visited[w] {
				dfs(w, prob*ps[i])
			}
		}
		visited[v] = false
	}
	dfs(s, 1)
	return best
}

// oracleCase draws a small graph and a query for the oracle tests: random
// edges, often a direct s-t edge, then a batch of deltas that tombstones
// some edges (and may append or reweigh others), and now and then s == t.
// Many of the pairs end up unreachable.
func oracleCase(seed uint64) (g *uncertain.Graph, s, t uncertain.NodeID) {
	r := rng.New(seed)
	n := 2 + r.Intn(6)
	b := uncertain.NewBuilder(n)
	s, t = uncertain.NodeID(r.Intn(n)), uncertain.NodeID(r.Intn(n))
	for i := r.Intn(12); i > 0; i-- {
		if u, v := uncertain.NodeID(r.Intn(n)), uncertain.NodeID(r.Intn(n)); u != v {
			b.MustAddEdge(u, v, 0.05+0.9*r.Float64())
		}
	}
	if s != t && r.Intn(3) == 0 {
		b.MustAddEdge(s, t, 0.05+0.9*r.Float64())
	}
	g = b.Build()
	var deltas []uncertain.EdgeDelta
	for _, e := range g.Edges() {
		switch r.Intn(4) {
		case 0:
			deltas = append(deltas, uncertain.EdgeDelta{From: e.From, To: e.To, P: 0})
		case 1:
			deltas = append(deltas, uncertain.EdgeDelta{From: e.From, To: e.To, P: r.Float64()})
		}
	}
	if u, v := uncertain.NodeID(r.Intn(n)), uncertain.NodeID(r.Intn(n)); u != v && g.FindEdge(u, v) < 0 {
		deltas = append(deltas, uncertain.EdgeDelta{From: u, To: v, P: 0.05 + 0.9*r.Float64()})
	}
	g, _, err := uncertain.ApplyDeltas(g, deltas)
	if err != nil {
		panic(err)
	}
	return g, s, t
}

// TestBoundsSandwichExact: lower <= exact <= upper (the defining property
// of the bounds) on the oracle graphs, tombstoned edges included.
func TestBoundsSandwichExact(t *testing.T) {
	var tombstoned, direct, unreachable, same int
	for seed := uint64(1); seed <= 400; seed++ {
		g, s, tt := oracleCase(seed)
		lo, hi, err := Bounds(g, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := exact.Factoring(g, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		const tol = 1e-9
		if !(lo <= ex+tol && ex <= hi+tol && lo >= 0 && hi <= 1) {
			t.Errorf("seed %d: bounds [%v, %v] around exact %v on %v (%d,%d)", seed, lo, hi, ex, g.Edges(), s, tt)
		}
		for _, e := range g.Edges() {
			if e.P == 0 {
				tombstoned++
				break
			}
		}
		switch id := g.FindEdge(s, tt); {
		case s == tt:
			same++
			if lo != 1 || hi != 1 {
				t.Errorf("seed %d: s == t bounds [%v, %v]", seed, lo, hi)
			}
		case ex == 0:
			unreachable++
			if lo != 0 {
				t.Errorf("seed %d: lower bound %v on an unreachable pair", seed, lo)
			}
		case id >= 0 && g.Edge(id).P > 0:
			direct++
		}
	}
	if min(tombstoned, direct, unreachable, same) < 10 {
		t.Errorf("oracle cases too thin: %d tombstoned, %d direct, %d unreachable, %d s == t", tombstoned, direct, unreachable, same)
	}
}

// lowerBoundPaths runs the lower bound with the scratch's visit hook set
// and returns the bound with each consumed path's edge ids.
func lowerBoundPaths(t *testing.T, g *uncertain.Graph, s, tt uncertain.NodeID) (float64, [][]uncertain.EdgeID) {
	t.Helper()
	var paths [][]uncertain.EdgeID
	lo, err := with(g, s, tt, func(sc *scratch, g *uncertain.Graph, s, tt uncertain.NodeID) float64 {
		sc.visit = func(path []uncertain.EdgeID) { paths = append(paths, append([]uncertain.EdgeID(nil), path...)) }
		defer func() { sc.visit = nil }()
		lo, _ := sc.lowerBound(g, s, tt, 0)
		return lo
	})
	if err != nil {
		t.Fatal(err)
	}
	return lo, paths
}

// checkDisjointPaths asserts what makes the lower bound valid: every
// consumed path is a simple s-t path of live edges, no edge serves two
// paths, and the bound is the disjoint product of the paths' probabilities.
func checkDisjointPaths(t *testing.T, g *uncertain.Graph, s, tt uncertain.NodeID, lo float64, paths [][]uncertain.EdgeID) {
	t.Helper()
	used := map[uncertain.EdgeID]bool{}
	miss := 1.0
	for _, path := range paths {
		next := map[uncertain.NodeID]uncertain.Edge{}
		for _, id := range path {
			e := g.Edge(id)
			if used[id] || e.P <= 0 {
				t.Fatalf("(%d,%d): edge %d (%v) is reused or dead", s, tt, id, e)
			}
			if _, dup := next[e.From]; dup {
				t.Fatalf("(%d,%d): path %v leaves node %d twice", s, tt, path, e.From)
			}
			used[id], next[e.From] = true, e
		}
		prob, v := 1.0, s
		for range path {
			e, ok := next[v]
			if !ok {
				t.Fatalf("(%d,%d): path %v breaks at node %d", s, tt, path, v)
			}
			prob, v = prob*e.P, e.To
		}
		if v != tt {
			t.Fatalf("(%d,%d): path %v ends at %d", s, tt, path, v)
		}
		miss *= 1 - prob
	}
	if math.Abs(lo-(1-miss)) > 1e-12 {
		t.Errorf("(%d,%d): lower bound %v, its %d paths give %v", s, tt, lo, len(paths), 1-miss)
	}
}

func TestLowerBoundPathsAreLiveAndDisjoint(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		g, s, tt := oracleCase(seed)
		lo, paths := lowerBoundPaths(t, g, s, tt)
		if s == tt {
			continue
		}
		checkDisjointPaths(t, g, s, tt, lo, paths)
	}
	g, pairs := netHept(t, 40)
	for _, p := range pairs {
		lo, paths := lowerBoundPaths(t, g, p.S, p.T)
		if len(paths) < 2 {
			t.Errorf("(%d,%d): %d paths on an h=2 NetHept pair", p.S, p.T, len(paths))
		}
		checkDisjointPaths(t, g, p.S, p.T, lo, paths)
	}
}

// netHept returns the NetHept stand-in and h=2 query pairs on it.
func netHept(t testing.TB, pairs int) (*uncertain.Graph, []workload.Pair) {
	t.Helper()
	g := datasets.NetHEPT(1, 42)
	ps, err := workload.Pairs(g, pairs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, ps
}

type answer struct {
	lo, hi float64
	path   string
}

func answerFor(t testing.TB, g *uncertain.Graph, s, tt uncertain.NodeID) answer {
	lo, hi, err := Bounds(g, s, tt)
	if err != nil {
		t.Error(err)
	}
	p, err := MostReliablePath(g, s, tt)
	if err != nil {
		t.Error(err)
	}
	return answer{lo, hi, fmt.Sprint(p.Nodes, p.Prob)}
}

// reuseQueries interleaves queries on two graphs of different size, so a
// scratch sized for the larger serves the smaller and back.
func reuseQueries(t *testing.T) (graphs []*uncertain.Graph, idx []int, pairs []workload.Pair) {
	big, bigPairs := netHept(t, 24)
	small := datasets.LastFM(0.2, 7)
	smallPairs, err := workload.Pairs(small, 24, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bigPairs {
		idx = append(idx, 0, 1)
		pairs = append(pairs, bigPairs[i], smallPairs[i%len(smallPairs)])
	}
	return []*uncertain.Graph{big, small}, idx, pairs
}

// TestScratchReuseInvisible: answers computed in scratch that earlier
// queries (on another graph, of another size) have used equal the answers
// computed in scratch nothing has used, bit for bit.
func TestScratchReuseInvisible(t *testing.T) {
	graphs, idx, pairs := reuseQueries(t)
	fresh := make([]answer, len(pairs))
	for i, p := range pairs {
		runtime.GC() // two collections empty a sync.Pool
		runtime.GC()
		fresh[i] = answerFor(t, graphs[idx[i]], p.S, p.T)
	}
	for round := 0; round < 3; round++ {
		for i, p := range pairs {
			if got := answerFor(t, graphs[idx[i]], p.S, p.T); got != fresh[i] {
				t.Fatalf("round %d query %d (%d,%d): %+v in used scratch, %+v in fresh", round, i, p.S, p.T, got, fresh[i])
			}
		}
	}
}

// TestScratchEpochWrap: a scratch whose epoch counter is about to wrap
// onto the stamps its first searches left must not read them as current.
func TestScratchEpochWrap(t *testing.T) {
	graphs, idx, pairs := reuseQueries(t)
	want := make([]answer, len(pairs))
	for i, p := range pairs {
		want[i] = answerFor(t, graphs[idx[i]], p.S, p.T)
	}
	for _, back := range []uint32{0, 3, 20, 31, 32, 60} {
		runtime.GC() // a scratch nothing has used: its first stamps are epochs 1, 2, ...
		runtime.GC()
		// The scratch this hands out is the one Get returns next (unless
		// the pool dropped it, as it may: then this checks less).
		var used *scratch
		if _, err := with(graphs[0], 0, 1, func(sc *scratch, _ *uncertain.Graph, _, _ uncertain.NodeID) int { used = sc; return 0 }); err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs[:4] {
			answerFor(t, graphs[idx[i]], p.S, p.T)
		}
		used.epoch = math.MaxUint32 - back
		for i, p := range pairs {
			if got := answerFor(t, graphs[idx[i]], p.S, p.T); got != want[i] {
				t.Fatalf("epoch 2^32-1-%d, query %d (%d,%d): %+v, want %+v", back, i, p.S, p.T, got, want[i])
			}
		}
	}
}

// TestConcurrentBoundsMatchSequential: goroutines sharing the pool get the
// sequential answers (run under -race).
func TestConcurrentBoundsMatchSequential(t *testing.T) {
	graphs, idx, pairs := reuseQueries(t)
	want := make([]answer, len(pairs))
	for i, p := range pairs {
		want[i] = answerFor(t, graphs[idx[i]], p.S, p.T)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for j := range pairs {
					i := (j + w*5) % len(pairs)
					if got := answerFor(t, graphs[idx[i]], pairs[i].S, pairs[i].T); got != want[i] {
						t.Errorf("worker %d query %d: %+v, want %+v", w, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBoundsAllocateNothing: once the pool is warm a Bounds call allocates
// nothing, and MostReliablePath only the Nodes it returns.
func TestBoundsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, pairs := netHept(t, 64)
	for _, p := range pairs {
		answerFor(t, g, p.S, p.T) // warm: the heaps and the pool reach their steady size
	}
	i := 0
	if n := testing.AllocsPerRun(256, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, _, err := Bounds(g, p.S, p.T); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("Bounds allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(256, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := MostReliablePath(g, p.S, p.T); err != nil {
			t.Error(err)
		}
	}); n > 1 {
		t.Errorf("MostReliablePath allocates %v times per call, want only Nodes", n)
	}
}

func TestBoundsTightOnSeriesParallel(t *testing.T) {
	// Single path: both bounds are exact.
	g := buildGraph(t, 3, []uncertain.Edge{
		{From: 0, To: 1, P: 0.6},
		{From: 1, To: 2, P: 0.5},
	})
	lo, hi, err := Bounds(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-0.3) > 1e-12 {
		t.Errorf("lower %v, want 0.3 (path product)", lo)
	}
	if hi < 0.3 || hi > 0.6+1e-12 {
		t.Errorf("upper %v outside [0.3, 0.6]", hi)
	}

	// Two disjoint parallel paths: the lower bound is exact.
	g2 := buildGraph(t, 4, []uncertain.Edge{
		{From: 0, To: 1, P: 0.9},
		{From: 1, To: 3, P: 0.8},
		{From: 0, To: 2, P: 0.5},
		{From: 2, To: 3, P: 0.7},
	})
	want := 1 - (1-0.9*0.8)*(1-0.5*0.7)
	lo2, _, err := Bounds(g2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo2-want) > 1e-9 {
		t.Errorf("disjoint-paths lower bound %v, want exact %v", lo2, want)
	}
}

func TestBoundsUnreachable(t *testing.T) {
	g := buildGraph(t, 3, []uncertain.Edge{{From: 0, To: 1, P: 0.5}})
	lo, hi, err := Bounds(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != 0 {
		t.Errorf("unreachable bounds (%v, %v)", lo, hi)
	}
	lo, hi, err = Bounds(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 1 || hi != 1 {
		t.Errorf("s==t bounds (%v, %v)", lo, hi)
	}
}

func TestChernoffSamples(t *testing.T) {
	// Eq. 5 with eps=0.1, lambda=0.05, R=0.5: K = 3/(0.01*0.5)*ln(40).
	k, err := ChernoffSamples(0.1, 0.05, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(3 / (0.01 * 0.5) * math.Log(40)))
	if k != want {
		t.Errorf("K = %d, want %d", k, want)
	}
	// Lower reliability needs more samples.
	k2, err := ChernoffSamples(0.1, 0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k2 <= k {
		t.Errorf("K(R=0.05) = %d not above K(R=0.5) = %d", k2, k)
	}
	for _, bad := range [][3]float64{{0, 0.1, 0.5}, {0.1, 0, 0.5}, {0.1, 1, 0.5}, {0.1, 0.1, 0}, {0.1, 0.1, 2}} {
		if _, err := ChernoffSamples(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("ChernoffSamples(%v) accepted", bad)
		}
	}
}

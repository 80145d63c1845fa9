package core

import (
	"math"
	"testing"
	"testing/quick"

	"relcomp/internal/exact"
	"relcomp/internal/rng"
	"relcomp/internal/stats"
	"relcomp/internal/uncertain"
)

// TestConditionBacktracking: include/exclude/undo round-trips restore the
// state array exactly (property-based).
func TestConditionBacktracking(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(8)
		g := randomTestGraph(r, n, 4+r.Intn(16))
		if g.NumEdges() == 0 {
			return true
		}
		c := newCondition(g)
		// Apply a random decision sequence with nested undo marks.
		type frame struct{ mark int }
		var frames []frame
		for step := 0; step < 50; step++ {
			switch r.Intn(4) {
			case 0:
				frames = append(frames, frame{c.mark()})
				c.include(uncertain.EdgeID(r.Intn(g.NumEdges())))
			case 1:
				frames = append(frames, frame{c.mark()})
				c.exclude(uncertain.EdgeID(r.Intn(g.NumEdges())))
			case 2:
				if len(frames) > 0 {
					c.undoTo(frames[len(frames)-1].mark)
					frames = frames[:len(frames)-1]
				}
			case 3:
				c.include(uncertain.EdgeID(r.Intn(g.NumEdges())))
			}
		}
		c.reset()
		for _, s := range c.state {
			if s != 0 {
				return false
			}
		}
		return len(c.trail) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConditionPathAndCut: structural terminations on a known graph.
func TestConditionPathAndCut(t *testing.T) {
	// 0 -> 1 -> 2 with a bypass 0 -> 2.
	g := testGraph(t, 3, []uncertain.Edge{
		{From: 0, To: 1, P: 0.5}, // id 0
		{From: 0, To: 2, P: 0.5}, // id 1
		{From: 1, To: 2, P: 0.5}, // id 2
	})
	c := newCondition(g)
	if c.hasIncludedPath(0, 2) {
		t.Error("empty E1 cannot contain a path")
	}
	if c.hasCut(0, 2) {
		t.Error("empty E2 cannot contain a cut")
	}
	c.include(0)
	c.include(2)
	if !c.hasIncludedPath(0, 2) {
		t.Error("0->1->2 in E1 not detected")
	}
	c.reset()
	c.exclude(1)
	if c.hasCut(0, 2) {
		t.Error("excluding only the bypass is not a cut")
	}
	c.exclude(2)
	if !c.hasCut(0, 2) {
		t.Error("excluding 0->2 and 1->2 must cut s from t")
	}
	// s == t special cases.
	if !c.hasIncludedPath(1, 1) {
		t.Error("s==t must count as included path")
	}
	if c.hasCut(1, 1) {
		t.Error("s==t can never be cut")
	}
}

// TestConditionedMCRespectsStates: included edges always exist, excluded
// never do.
func TestConditionedMCRespectsStates(t *testing.T) {
	g := testGraph(t, 3, []uncertain.Edge{
		{From: 0, To: 1, P: 0.01}, // id 0: nearly never present
		{From: 1, To: 2, P: 0.01}, // id 1
	})
	c := newCondition(g)
	r := rng.New(5)
	c.include(0)
	c.include(1)
	if got := c.conditionedMC(0, 2, 500, r); got != 1 {
		t.Errorf("all-included chain: %v, want 1", got)
	}
	c.reset()
	c.exclude(0)
	if got := c.conditionedMC(0, 2, 500, r); got != 0 {
		t.Errorf("excluded first hop: %v, want 0", got)
	}
}

// TestSelectEdgeDFS: the selected edge must always be undetermined and
// reachable from s through included edges.
func TestSelectEdgeDFS(t *testing.T) {
	g := testGraph(t, 4, []uncertain.Edge{
		{From: 0, To: 1, P: 0.5}, // id 0
		{From: 1, To: 2, P: 0.5}, // id 1
		{From: 2, To: 3, P: 0.5}, // id 2
	})
	c := newCondition(g)
	e := c.selectEdgeDFS(0)
	if e != 0 {
		t.Errorf("first selection = %d, want edge 0 (only edge out of s)", e)
	}
	c.include(0)
	e = c.selectEdgeDFS(0)
	if e != 1 {
		t.Errorf("selection after including 0 = %d, want 1", e)
	}
	c.include(1)
	c.include(2)
	if e = c.selectEdgeDFS(0); e != -1 {
		t.Errorf("selection with all included = %d, want -1", e)
	}
	c.reset()
	c.exclude(0)
	if e = c.selectEdgeDFS(0); e != -1 {
		t.Errorf("selection with frontier excluded = %d, want -1", e)
	}
}

// TestSelectEdgesBFS: RSS's stratification edges are undetermined, unique,
// and at most r.
func TestSelectEdgesBFS(t *testing.T) {
	r := rng.New(61)
	g := randomTestGraph(r, 12, 30)
	c := newCondition(g)
	for _, limit := range []int{1, 3, 10, 100} {
		sel := c.selectEdgesBFS(0, limit)
		if len(sel) > limit {
			t.Fatalf("selected %d edges, limit %d", len(sel), limit)
		}
		seen := map[uncertain.EdgeID]bool{}
		for _, e := range sel {
			if seen[e] {
				t.Fatalf("duplicate edge %d in selection", e)
			}
			seen[e] = true
			if c.state[e] != 0 {
				t.Fatalf("selected determined edge %d", e)
			}
		}
	}
}

// TestRHHVarianceBelowMC verifies the variance-reduction claim (Theorem 2
// of Jin et al., reproduced as the paper's Fig. 7): at equal K, RHH's
// estimator variance across repeated runs is below plain MC's.
func TestRHHVarianceBelowMC(t *testing.T) {
	r := rng.New(67)
	g := randomTestGraph(r, 30, 90)
	s, tt := uncertain.NodeID(0), uncertain.NodeID(29)
	if !g.Reachable(s, tt) {
		t.Skip("fixture target unreachable; adjust seed")
	}
	const k, reps = 300, 60
	var mcW, rhhW stats.Welford
	for i := 0; i < reps; i++ {
		mcW.Add(NewMC(g, uint64(1000+i)).Estimate(s, tt, k))
		rhhW.Add(NewRHH(g, uint64(2000+i)).Estimate(s, tt, k))
	}
	if rhhW.Variance() >= mcW.Variance() {
		t.Errorf("RHH variance %.3g not below MC variance %.3g", rhhW.Variance(), mcW.Variance())
	}
	t.Logf("variance: MC %.3g, RHH %.3g", mcW.Variance(), rhhW.Variance())
}

// TestRSSVarianceBelowMC: same claim for RSS (Theorems 4.2/4.3 of Li et
// al.); RSS should also not be worse than RHH on average.
func TestRSSVarianceBelowMC(t *testing.T) {
	r := rng.New(71)
	g := randomTestGraph(r, 30, 90)
	s, tt := uncertain.NodeID(0), uncertain.NodeID(29)
	if !g.Reachable(s, tt) {
		t.Skip("fixture target unreachable; adjust seed")
	}
	const k, reps = 300, 60
	var mcW, rssW stats.Welford
	for i := 0; i < reps; i++ {
		mcW.Add(NewMC(g, uint64(3000+i)).Estimate(s, tt, k))
		rssW.Add(NewRSS(g, uint64(4000+i)).Estimate(s, tt, k))
	}
	if rssW.Variance() >= mcW.Variance() {
		t.Errorf("RSS variance %.3g not below MC variance %.3g", rssW.Variance(), mcW.Variance())
	}
	t.Logf("variance: MC %.3g, RSS %.3g", mcW.Variance(), rssW.Variance())
}

// TestRecursiveThresholdExtremes: a huge threshold degenerates both
// recursive estimators into conditioned MC on the full graph — estimates
// must remain unbiased at both extremes (Fig. 16's sweep endpoints).
func TestRecursiveThresholdExtremes(t *testing.T) {
	r := rng.New(73)
	g := randomTestGraph(r, 8, 20)
	want, err := exact.Factoring(g, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	const k = 20000
	for _, th := range []int{1, 2, 100, k + 1} {
		rhh := NewRHHThreshold(g, 9, th)
		if got := rhh.Estimate(0, 7, k); math.Abs(got-want) > 0.03 {
			t.Errorf("RHH threshold %d: %.4f, exact %.4f", th, got, want)
		}
		rss := NewRSSParams(g, 9, th, DefaultStratumCount)
		if got := rss.Estimate(0, 7, k); math.Abs(got-want) > 0.03 {
			t.Errorf("RSS threshold %d: %.4f, exact %.4f", th, got, want)
		}
	}
}

// TestRSSStratumCounts: r=1 (the RHH special case) through large r all
// stay unbiased.
func TestRSSStratumCounts(t *testing.T) {
	r := rng.New(79)
	g := randomTestGraph(r, 8, 20)
	want, err := exact.Factoring(g, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	const k = 20000
	for _, sr := range []int{1, 2, 5, 50, 500} {
		rss := NewRSSParams(g, 11, DefaultRecursiveThreshold, sr)
		if got := rss.Estimate(0, 7, k); math.Abs(got-want) > 0.03 {
			t.Errorf("RSS r=%d: %.4f, exact %.4f", sr, got, want)
		}
	}
}

// TestRecursiveConstructorValidation: bad parameters panic.
func TestRecursiveConstructorValidation(t *testing.T) {
	g := testGraph(t, 2, []uncertain.Edge{{From: 0, To: 1, P: 0.5}})
	for _, fn := range []func(){
		func() { NewRHHThreshold(g, 1, 0) },
		func() { NewRSSParams(g, 1, 0, 10) },
		func() { NewRSSParams(g, 1, 5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid constructor parameters did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestRecursiveMaxDepth: depth accounting is positive after a non-trivial
// estimate and bounded by the edge count.
func TestRecursiveMaxDepth(t *testing.T) {
	r := rng.New(83)
	g := randomTestGraph(r, 20, 60)
	rhh := NewRHH(g, 1)
	rhh.Estimate(0, 19, 2000)
	if d := rhh.MaxDepth(); d < 1 || d > g.NumEdges()+1 {
		t.Errorf("RHH depth %d outside (0, m]", d)
	}
	rss := NewRSS(g, 1)
	rss.Estimate(0, 19, 2000)
	if d := rss.MaxDepth(); d < 1 || d > g.NumEdges()+1 {
		t.Errorf("RSS depth %d outside (0, m]", d)
	}
}

// TestRSSProbabilityOneEdges: strata with zero mass (edges of probability
// 1 excluded) are skipped without breaking the estimate.
func TestRSSProbabilityOneEdges(t *testing.T) {
	g := testGraph(t, 4, []uncertain.Edge{
		{From: 0, To: 1, P: 1},
		{From: 1, To: 2, P: 0.5},
		{From: 1, To: 3, P: 1},
		{From: 3, To: 2, P: 0.5},
	})
	want, err := exact.Factoring(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rss := NewRSS(g, 13)
	if got := rss.Estimate(0, 2, 20000); math.Abs(got-want) > 0.03 {
		t.Errorf("RSS with p=1 edges: %.4f, exact %.4f", got, want)
	}
}

// TestRecursiveFanInUnitInterval: on a fan s → m middle nodes → t with
// certain second hops, the strata sum Σπᵢμᵢ is 1 up to float rounding,
// which must never carry an estimate above 1.
func TestRecursiveFanInUnitInterval(t *testing.T) {
	for draw := uint64(0); draw < 30; draw++ {
		r := rng.New(draw)
		m := 2 + r.Intn(60)
		b := uncertain.NewBuilder(m + 2)
		s, tt := uncertain.NodeID(0), uncertain.NodeID(m+1)
		for i := 1; i <= m; i++ {
			b.MustAddEdge(s, uncertain.NodeID(i), 0.05+0.95*r.Float64())
			b.MustAddEdge(uncertain.NodeID(i), tt, 1)
		}
		g := b.Build()
		for _, k := range []int{200, 1000} {
			for _, est := range []Estimator{NewRSS(g, draw), NewRHH(g, draw)} {
				if got := est.Estimate(s, tt, k); got < 0 || got > 1 {
					t.Errorf("%s on fan m=%d k=%d (draw %d): %v outside [0, 1]", est.Name(), m, k, draw, got)
				}
			}
		}
	}
}

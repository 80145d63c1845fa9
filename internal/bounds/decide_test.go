package bounds

import (
	"math"
	"testing"

	"relcomp/internal/datasets"
	"relcomp/internal/exact"
	"relcomp/internal/uncertain"
	"relcomp/internal/workload"
)

// decideCutoffs are the pinch widths the Decide tests ask about: 0 and 1
// at the extremes, the router's default and two in between.
var decideCutoffs = []float64{0, defaultCutoff, 0.1, 0.5, 1}

// defaultCutoff is the router's default pinch width.
const defaultCutoff = 0.02

// checkDecide asserts Decide's contract against Bounds on one query and
// cutoff, and reports whether the pair pinched and whether the lower
// bound's rounds stopped early. ex, when not NaN, is the exact R(s,t).
func checkDecide(t testing.TB, g *uncertain.Graph, s, tt uncertain.NodeID, cutoff, ex float64) (pinched, early bool) {
	t.Helper()
	lo, hi, full, err := Decide(g, s, tt, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	blo, bhi, err := Bounds(g, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	pinched = bhi-blo <= cutoff
	if got := hi-lo <= cutoff; got != pinched {
		t.Errorf("(%d,%d) cutoff %v: Decide [%v, %v] pinches %v, Bounds [%v, %v] %v", s, tt, cutoff, lo, hi, got, blo, bhi, pinched)
	}
	if math.Float64bits(hi) != math.Float64bits(bhi) {
		t.Errorf("(%d,%d) cutoff %v: Decide upper %v, Bounds %v", s, tt, cutoff, hi, bhi)
	}
	if !(lo <= blo) {
		t.Errorf("(%d,%d) cutoff %v: Decide lower %v above Bounds's %v", s, tt, cutoff, lo, blo)
	}
	if (pinched || full) && math.Float64bits(lo) != math.Float64bits(blo) {
		t.Errorf("(%d,%d) cutoff %v: Decide lower %v (full %v, pinched %v), Bounds %v", s, tt, cutoff, lo, full, pinched, blo)
	}
	if pinched && !full {
		t.Errorf("(%d,%d) cutoff %v: a pinched pair stopped its rounds early", s, tt, cutoff)
	}
	if !math.IsNaN(ex) && !(lo <= ex+1e-9 && lo >= 0) {
		t.Errorf("(%d,%d) cutoff %v: Decide lower %v against exact %v", s, tt, cutoff, lo, ex)
	}
	return pinched, !full
}

// TestDecideMatchesBounds: Decide's pinch verdict and upper bound are
// Bounds's, its lower bound never exceeds Bounds's (nor the exact value)
// and equals it wherever the pair pinches or every round ran. The early
// stop must actually fire on the h=2 pairs, or this checks nothing.
func TestDecideMatchesBounds(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		g, s, tt := oracleCase(seed)
		ex, err := exact.Factoring(g, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		for _, cutoff := range decideCutoffs {
			checkDecide(t, g, s, tt, cutoff, ex)
		}
	}
	nethept, _ := netHept(t, 1)
	for _, c := range []struct {
		name string
		g    *uncertain.Graph
	}{{"NetHept", nethept}, {"DBLP_0.2", datasets.DBLP02(1, 42)}} {
		pairs, err := workload.Pairs(c.g, 256, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		var pinched, early int
		for _, p := range pairs {
			for _, cutoff := range decideCutoffs {
				ok, stopped := checkDecide(t, c.g, p.S, p.T, cutoff, math.NaN())
				if cutoff != defaultCutoff {
					continue
				}
				if ok {
					pinched++
				}
				if stopped {
					early++
				}
			}
		}
		t.Logf("%s: %d of %d pairs pinch at %v, %d stopped early", c.name, pinched, len(pairs), defaultCutoff, early)
		if early == 0 {
			t.Errorf("%s: no pair stopped its lower-bound rounds early at cutoff %v", c.name, defaultCutoff)
		}
	}
}

// TestDecideAllocatesNothing: once the pool is warm a Decide call
// allocates nothing.
func TestDecideAllocatesNothing(t *testing.T) {
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
		if _, _, _, err := Decide(g, p.S, p.T, defaultCutoff); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("Decide allocates %v times per call", n)
	}
}

// fuzzGraph builds a graph of 2 to 8 nodes and at most 16 edges from
// data: a node count and the query, then three bytes per edge (its ends
// and its probability). A probability byte of 0 adds the edge and then
// tombstones it, as a mutation would.
func fuzzGraph(data []byte) (g *uncertain.Graph, s, t uncertain.NodeID, cutoff float64, ok bool) {
	if len(data) < 4 {
		return nil, 0, 0, 0, false
	}
	n := 2 + int(data[0])%7
	s, t = uncertain.NodeID(int(data[1])%n), uncertain.NodeID(int(data[2])%n)
	cutoff = float64(data[3]) / 255
	b := uncertain.NewBuilder(n)
	var deltas []uncertain.EdgeDelta
	for rest, m := data[4:], 0; len(rest) >= 3 && m < 16; rest, m = rest[3:], m+1 {
		u, v := uncertain.NodeID(int(rest[0])%n), uncertain.NodeID(int(rest[1])%n)
		if u == v {
			continue
		}
		p := float64(rest[2]) / 255
		if p == 0 {
			deltas = append(deltas, uncertain.EdgeDelta{From: u, To: v, P: 0})
			p = 0.5
		}
		b.MustAddEdge(u, v, p)
	}
	g = b.Build()
	if len(deltas) > 0 {
		var err error
		if g, _, err = uncertain.ApplyDeltas(g, deltas); err != nil {
			return nil, 0, 0, 0, false
		}
	}
	return g, s, t, cutoff, true
}

// FuzzDecide: on any small graph, Decide keeps its contract against Bounds
// and the exact reliability, at the fuzzed cutoff and at the fixed ones.
func FuzzDecide(f *testing.F) {
	f.Add([]byte{4, 0, 3, 5, 0, 1, 200, 1, 3, 200, 0, 2, 150, 2, 3, 150, 0, 3, 10})
	f.Add([]byte{6, 0, 5, 20, 0, 1, 255, 0, 2, 255, 0, 3, 255, 0, 4, 255, 1, 5, 40, 2, 5, 30, 3, 5, 20, 4, 5, 10})
	f.Add([]byte{3, 0, 2, 0, 0, 1, 0, 1, 2, 128, 0, 2, 60})
	f.Add([]byte{5, 2, 2, 100, 2, 3, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, s, tt, cutoff, ok := fuzzGraph(data)
		if !ok {
			return
		}
		ex, err := exact.Factoring(g, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		checkDecide(t, g, s, tt, cutoff, ex)
		for _, c := range decideCutoffs {
			checkDecide(t, g, s, tt, c, ex)
		}
	})
}

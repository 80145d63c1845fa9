// Package bounds implements polynomial-time lower and upper bounds on s-t
// reliability, the "theory" branch of the paper's taxonomy of the
// reliability problem (Fig. 2, refs [5,7,8,16,27,35]), plus the
// most-reliable-path query ([9,22,26]) and the Chernoff sample-size bound
// the paper quotes as Eq. 5.
//
// Bounds are useful to practitioners in two ways the paper highlights:
// they sanity-check sampling estimates for free, and they can prune
// queries entirely (if the upper bound is below a threshold, no sampling
// is needed).
package bounds

import (
	"fmt"
	"math"
	"slices"

	"relcomp/internal/uncertain"
)

// Path is a most-reliable s-t path: the node sequence and its probability
// (the product of its edge probabilities).
type Path struct {
	Nodes []uncertain.NodeID
	Prob  float64
}

// MostReliablePath returns the s-t path maximizing the product of edge
// probabilities, by a bidirectional Dijkstra on the probabilities
// themselves. The probability of the returned path is a lower bound on
// R(s,t). If t is unreachable it returns a zero-probability path with nil
// nodes.
func MostReliablePath(g *uncertain.Graph, s, t uncertain.NodeID) (Path, error) {
	return with(g, s, t, (*scratch).mostReliablePath)
}

func (sc *scratch) mostReliablePath(g *uncertain.Graph, s, t uncertain.NodeID) Path {
	if s == t {
		return Path{Nodes: []uncertain.NodeID{s}, Prob: 1}
	}
	prob, meet := sc.search(g, s, t)
	if meet < 0 {
		return Path{}
	}
	sc.consume(g, 0, meet)
	slices.Reverse(sc.consumed) // meet back to s becomes s on to meet
	sc.consume(g, 1, meet)
	nodes := append(make([]uncertain.NodeID, 0, len(sc.consumed)+1), s)
	for _, id := range sc.consumed {
		nodes = append(nodes, g.Edge(id).To)
	}
	return Path{Nodes: nodes, Prob: prob}
}

// LowerBound returns a polynomial-time lower bound on R(s,t): the
// disjoint-products bound over greedily extracted edge-disjoint
// most-reliable paths (cf. Ball & Provan). Edge-disjoint paths exist
// independently, so R >= 1 - Π(1 - Prob(path_i)) for any such set of
// paths, whichever way ties between equally reliable paths break.
func LowerBound(g *uncertain.Graph, s, t uncertain.NodeID) (float64, error) {
	return with(g, s, t, func(sc *scratch, g *uncertain.Graph, s, t uncertain.NodeID) float64 {
		lo, _ := sc.lowerBound(g, s, t, 0)
		return lo
	})
}

// lowerBound runs the rounds of LowerBound, but stops early once the
// bound can no longer reach floor, and then reports full false. Each
// round searches a subset of the edges the one before it searched, so no
// later path is more reliable than the last one found, p: with r rounds
// left the bound can reach at most 1 - miss·(1-p)^r. A floor of 0 or
// less never stops it, as that reach is never negative.
func (sc *scratch) lowerBound(g *uncertain.Graph, s, t uncertain.NodeID, floor float64) (lo float64, full bool) {
	if s == t {
		return 1, true
	}
	// At most 16 paths. Each takes one out-edge of s and one in-edge of t,
	// so no round is spent finding that either kind has run out.
	miss := 1.0
	for rounds := min(16, g.OutDegree(s), g.InDegree(t)); rounds > 0; rounds-- {
		prob, meet := sc.search(g, s, t)
		if meet < 0 {
			break
		}
		miss *= 1 - prob
		from := len(sc.consumed)
		sc.consume(g, 0, meet)
		sc.consume(g, 1, meet)
		if sc.visit != nil {
			sc.visit(sc.consumed[from:])
		}
		if left := rounds - 1; left > 0 && 1-miss*math.Pow(1-prob, float64(left)) < floor {
			return 1 - miss, false
		}
	}
	return 1 - miss, true
}

// UpperBound returns a polynomial-time upper bound on R(s,t): the minimum
// over a family of s-t edge cuts of the probability that at least one cut
// edge exists. Any cut C gives R <= 1 - Π_{e∈C}(1-P(e)); the family
// examined here consists of the BFS level cuts from s (all edges from
// level < i to level >= i, up to t's level) and the in-cut of t.
func UpperBound(g *uncertain.Graph, s, t uncertain.NodeID) (float64, error) {
	return with(g, s, t, (*scratch).upperBound)
}

func (sc *scratch) upperBound(g *uncertain.Graph, s, t uncertain.NodeID) float64 {
	if s == t {
		return 1
	}
	if !sc.levelCuts(g, s, t) {
		return 0 // structurally unreachable
	}
	// In-cut of t: every path ends with an in-edge of t.
	miss := 1.0
	for _, id := range g.InEdgeIDs(t) {
		miss *= 1 - g.Edge(id).P
	}
	// Level cuts: every s-t path crosses each level 1..level(t).
	for _, m := range sc.cutMiss[1:] {
		miss = max(miss, m)
	}
	return 1 - miss
}

// Bounds returns (lower, upper) together.
func Bounds(g *uncertain.Graph, s, t uncertain.NodeID) (lo, hi float64, err error) {
	// Every width is within an infinite cutoff, so every round runs.
	lo, hi, _, err = Decide(g, s, t, math.Inf(1))
	return lo, hi, err
}

// Decide returns bounds good enough to tell whether they pinch R(s,t),
// that is whether hi - lo <= cutoff, at a fraction of Bounds's cost. hi
// is Bounds's upper bound. The lower bound's rounds stop as soon as lo
// can no longer reach hi - cutoff, so lo may be below Bounds's lower
// bound, but only on a pair that does not pinch: the verdict is always
// Bounds's. full reports that every round ran, in which case lo is
// Bounds's lower bound too; on a pair that pinches it always is.
func Decide(g *uncertain.Graph, s, t uncertain.NodeID, cutoff float64) (lo, hi float64, full bool, err error) {
	type out struct {
		lo, hi float64
		full   bool
	}
	b, err := with(g, s, t, func(sc *scratch, g *uncertain.Graph, s, t uncertain.NodeID) out {
		hi := sc.upperBound(g, s, t)
		lo, full := sc.lowerBound(g, s, t, hi-cutoff-decideSlack)
		return out{lo, hi, full}
	})
	// min guards against floating-point crossing on near-degenerate inputs.
	return min(b.lo, b.hi), b.hi, b.full, err
}

// decideSlack keeps Decide's early stop clear of the pinch verdict by far
// more than rounding moves a path's probability between rounds.
const decideSlack = 1e-9

// ChernoffSamples returns the Monte Carlo sample size that guarantees
// Pr(|R̂ - R| >= eps·R) <= lambda for a reliability at least rLow,
// following Eq. 5 of the paper (Potamias et al.):
//
//	K >= 3/(eps²·R) · ln(2/lambda)
func ChernoffSamples(eps, lambda, rLow float64) (int, error) {
	if !(eps > 0) || !(lambda > 0 && lambda < 1) || !(rLow > 0 && rLow <= 1) {
		return 0, fmt.Errorf("bounds: need eps > 0, lambda in (0,1), rLow in (0,1]; got %v, %v, %v", eps, lambda, rLow)
	}
	k := 3 / (eps * eps * rLow) * math.Log(2/lambda)
	return int(math.Ceil(k)), nil
}

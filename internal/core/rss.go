package core

import (
	"fmt"
	"math"

	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// DefaultStratumCount is the number of edges r used to partition the
// probability space in RSS; the paper recommends r = 50 (Fig. 17).
const DefaultStratumCount = 50

// RSS is the recursive stratified sampling estimator of Li et al. (TKDE
// 2016), Algorithm 5 of the paper. It picks r undetermined edges by BFS
// from s and partitions the probability space into r+1 strata (Table 1):
// stratum 0 excludes all r edges; stratum i (1<=i<=r) excludes edges
// 1..i-1, includes edge i, and leaves the rest undetermined. Each stratum
// receives a deterministic sample budget K_i = π_i·K proportional to its
// probability mass (Eq. 10) and is estimated recursively; the estimate is
// Σ π_i·µ_i. Stratification over r edges reduces the estimator variance
// strictly below RHH's single-edge split (RHH is the special case r = 1).
type RSS struct {
	g         *uncertain.Graph
	rng       *rng.Source
	cond      *condition
	threshold int
	r         int
	maxDepth  int
	s, t      uncertain.NodeID
	strata    [][]uncertain.EdgeID // reusable per-depth edge buffers
}

// NewRSS returns an RSS estimator with the paper's defaults (threshold 5,
// r = 50).
func NewRSS(g *uncertain.Graph, seed uint64) *RSS {
	return NewRSSParams(g, seed, DefaultRecursiveThreshold, DefaultStratumCount)
}

// NewRSSParams returns an RSS estimator with explicit threshold and stratum
// count (both >= 1).
func NewRSSParams(g *uncertain.Graph, seed uint64, threshold, r int) *RSS {
	if threshold < 1 {
		panic(fmt.Sprintf("core: RSS threshold %d must be >= 1", threshold))
	}
	if r < 1 {
		panic(fmt.Sprintf("core: RSS stratum count %d must be >= 1", r))
	}
	return &RSS{
		g:         g,
		rng:       rng.New(seed),
		cond:      newCondition(g),
		threshold: threshold,
		r:         r,
	}
}

// Name implements Estimator.
func (e *RSS) Name() string { return "RSS" }

// Reseed implements Seeder.
func (e *RSS) Reseed(seed uint64) { e.rng.Seed(seed) }

// Threshold returns the non-recursive fallback threshold.
func (e *RSS) Threshold() int { return e.threshold }

// StratumCount returns r, the number of stratification edges.
func (e *RSS) StratumCount() int { return e.r }

// MaxDepth returns the deepest recursion reached by the last Estimate call.
func (e *RSS) MaxDepth() int { return e.maxDepth }

// Estimate implements Estimator.
func (e *RSS) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(e.g, s, t, k)
	if s == t {
		return 1
	}
	e.s, e.t = s, t
	e.maxDepth = 0
	e.cond.reset()
	return e.recurse(k, 0)
}

func (e *RSS) recurse(k, depth int) float64 {
	if depth+1 > e.maxDepth {
		e.maxDepth = depth + 1
	}
	c := e.cond
	if k < e.threshold {
		return c.conditionedMC(e.s, e.t, k, e.rng)
	}
	if c.hasIncludedPath(e.s, e.t) {
		return 1
	}
	if c.hasCut(e.s, e.t) {
		return 0
	}

	// Select up to r stratification edges by BFS from s (Alg. 5 line 9);
	// copy them out of the shared scratch since we recurse below.
	if depth >= len(e.strata) {
		e.strata = append(e.strata, nil)
	}
	sel := c.selectEdgesBFS(e.s, e.r)
	if len(sel) == 0 {
		return c.conditionedMC(e.s, e.t, k, e.rng)
	}
	edges := append(e.strata[depth][:0], sel...)
	e.strata[depth] = edges

	total := 0.0
	// Stratum 0: all selected edges excluded. Stratum i: edges[0..i-2]
	// excluded, edges[i-1] included, the rest undetermined.
	for i := 0; i <= len(edges); i++ {
		pi := 1.0
		mark := c.mark()
		if i == 0 {
			for _, ed := range edges {
				pi *= 1 - e.g.Edge(ed).P
				c.exclude(ed)
			}
		} else {
			for j := 0; j < i-1; j++ {
				pi *= 1 - e.g.Edge(edges[j]).P
				c.exclude(edges[j])
			}
			pi *= e.g.Edge(edges[i-1]).P
			c.include(edges[i-1])
		}
		if pi <= 0 {
			c.undoTo(mark)
			continue
		}
		ki := int(pi * float64(k))
		mu := e.recurse(ki, depth+1)
		c.undoTo(mark)
		total += pi * mu
	}
	// The strata partition the outcome space, so Σπᵢ = 1 and the sum is at
	// most 1 in exact arithmetic; float rounding can carry it just past.
	return math.Min(total, 1)
}

// Sampler implements IncrementalEstimator via the restart-doubling
// adapter: RSS's stratified budget split (Eq. 10) depends on the total K,
// so samples cannot accumulate across chunks; each Advance re-runs the
// full estimate at the grown budget instead. The reported half-width uses
// the MC binomial formula, a conservative bound (RSS's variance is
// provably below MC's at equal K).
func (e *RSS) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(e.g, s, t, 1)
	if s == t {
		return &trivialSampler{estimate: 1}
	}
	return newRestartSampler(e, s, t)
}

var _ IncrementalEstimator = (*RSS)(nil)

// MemoryBytes implements MemoryReporter.
func (e *RSS) MemoryBytes() int64 {
	m := e.cond.memoryBytes()
	for _, s := range e.strata {
		m += int64(cap(s)) * 4
	}
	return m + int64(e.maxDepth)*64
}

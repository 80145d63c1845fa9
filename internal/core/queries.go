package core

import (
	"fmt"
	"sort"

	"relcomp/internal/uncertain"
)

// Advanced queries built on the six estimators. The paper notes (§2.9)
// that "many of the efficient sampling and indexing strategies that we
// investigate in this work can also be employed to answer such advanced
// queries"; this file implements the two it repeatedly references:
//
//   - single-source / top-k reliability search — the query BFS Sharing was
//     originally designed for (Zhu et al., ICDM 2015),
//   - distance-constrained reachability — the query RHH was originally
//     designed for (Jin et al., PVLDB 2011).

// SourceEstimator is implemented by estimators that can answer every
// target of one source in a single traversal (BFS Sharing's queriers);
// batch layers use it to amortize same-source query groups.
type SourceEstimator interface {
	Estimator
	EstimateAll(s uncertain.NodeID, k int) []float64
}

// EstimateAll runs the shared BFS once and returns the reliability of
// every node from the source s, which is what one BFS Sharing traversal
// actually computes (the s-t query of Algorithm 2 just reads one entry):
// one Advance(k) of the querier's source session. The returned slice has
// one value per node; unvisited nodes have 0.
func (q *BFSQuerier) EstimateAll(s uncertain.NodeID, k int) []float64 {
	mustValidQuery(q.ix.g, s, s, k)
	q.checkWidth(k)
	return estimateAll(q.AllSampler(s), k)
}

// Reliability pairs a node with its estimated reliability from a source.
type Reliability struct {
	Node uncertain.NodeID
	R    float64
}

// TopKReliableTargets returns the k nodes with the highest estimated
// reliability from s (excluding s itself), the top-k reliability search
// of Zhu et al. When the estimator is a SourceEstimator (BFS Sharing),
// one shared traversal answers the whole query; any other estimator is
// called once per candidate node (quadratically slower, provided for
// comparison).
func TopKReliableTargets(est Estimator, g *uncertain.Graph, s uncertain.NodeID, topK, samples int) ([]Reliability, error) {
	if err := CheckQuery(g, s, s, samples); err != nil {
		return nil, err
	}
	if topK <= 0 {
		return nil, fmt.Errorf("core: topK %d must be positive", topK)
	}
	var all []Reliability
	if bs, ok := est.(SourceEstimator); ok {
		rs := bs.EstimateAll(s, samples)
		for v, r := range rs {
			if uncertain.NodeID(v) != s && r > 0 {
				all = append(all, Reliability{uncertain.NodeID(v), r})
			}
		}
	} else {
		for v := uncertain.NodeID(0); int(v) < g.NumNodes(); v++ {
			if v == s {
				continue
			}
			if r := est.Estimate(s, v, samples); r > 0 {
				all = append(all, Reliability{v, r})
			}
		}
	}
	sortReliabilities(all)
	if len(all) > topK {
		all = all[:topK]
	}
	return all, nil
}

// sortReliabilities orders a ranking by reliability descending, ties broken
// by ascending NodeID. The stable sort plus the total tie-break make every
// ranking deterministic: two nodes with equal estimates always appear in
// NodeID order, whatever order the candidates were scanned in.
func sortReliabilities(all []Reliability) {
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].R != all[j].R {
			return all[i].R > all[j].R
		}
		return all[i].Node < all[j].Node
	})
}

// DistanceConstrainedMC estimates the d-hop constrained reliability
// R_d(s,t): the probability that t is reachable from s within at most d
// hops — the query recursive sampling was originally proposed for. It is
// a Monte Carlo estimator with the same guarantees as MC.
type DistanceConstrainedMC struct {
	mc   *MC
	d    int
	dist []int32
}

// NewDistanceConstrainedMC returns an estimator of R_d(s,t) with hop bound
// d >= 1.
func NewDistanceConstrainedMC(g *uncertain.Graph, seed uint64, d int) *DistanceConstrainedMC {
	if d < 1 {
		panic(fmt.Sprintf("core: distance bound %d must be >= 1", d))
	}
	return &DistanceConstrainedMC{
		mc:   NewMC(g, seed),
		d:    d,
		dist: make([]int32, g.NumNodes()),
	}
}

// Name implements Estimator.
func (dc *DistanceConstrainedMC) Name() string { return fmt.Sprintf("MC(d<=%d)", dc.d) }

// Reseed implements Seeder.
func (dc *DistanceConstrainedMC) Reseed(seed uint64) { dc.mc.Reseed(seed) }

// Bound returns the hop bound d.
func (dc *DistanceConstrainedMC) Bound() int { return dc.d }

// Estimate implements Estimator: one Advance(k) of the query's session.
func (dc *DistanceConstrainedMC) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(dc.mc.g, s, t, k)
	return estimateOnce(dc.Sampler(s, t), k)
}

// sampleOnce is MC's lazy BFS with a hop budget.
func (dc *DistanceConstrainedMC) sampleOnce(s, t uncertain.NodeID) bool {
	mc := dc.mc
	g, r := mc.g, mc.rng
	mc.seen.nextRound()
	mc.seen.visit(s)
	dc.dist[s] = 0
	q := mc.queue[:0]
	q = append(q, s)
	for head := 0; head < len(q); head++ {
		v := q[head]
		if int(dc.dist[v]) >= dc.d {
			continue
		}
		tos := g.OutNeighbors(v)
		ps := g.OutProbs(v)
		for i, w := range tos {
			if mc.seen.visited(w) {
				continue
			}
			if !r.Bernoulli(ps[i]) {
				continue
			}
			if w == t {
				mc.queue = q
				return true
			}
			mc.seen.visit(w)
			dc.dist[w] = dc.dist[v] + 1
			q = append(q, w)
		}
	}
	mc.queue = q
	return false
}

// MemoryBytes implements MemoryReporter.
func (dc *DistanceConstrainedMC) MemoryBytes() int64 {
	return dc.mc.MemoryBytes() + int64(len(dc.dist))*4
}

// Sampler implements IncrementalEstimator. The per-sample BFS consumes the
// random stream sequentially, so Advance(a); Advance(b) accumulates the
// hit count Advance(a+b) would.
func (dc *DistanceConstrainedMC) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(dc.mc.g, s, t, 1)
	if s == t {
		return &trivialSampler{estimate: 1}
	}
	return &hitSampler{draw: func(lo, hi int) int {
		return drawEach(hi-lo, func() bool { return dc.sampleOnce(s, t) })
	}}
}

var _ IncrementalEstimator = (*DistanceConstrainedMC)(nil)

package core

import (
	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// MC is the baseline Monte Carlo estimator (Fishman 1986), Algorithm 1 of
// the paper: for each of the K samples it runs a BFS from s that samples
// each encountered edge on demand with its probability, stopping early as
// soon as t is reached. The fraction of samples in which t was reached is
// an unbiased estimate of R(s,t) with variance R(1-R)/K (Eq. 3–4).
type MC struct {
	g     *uncertain.Graph
	rng   *rng.Source
	seen  *epochSet
	queue []uncertain.NodeID
}

// mcQueueCap is the initial BFS queue capacity of an MC instance.
const mcQueueCap = 256

// NewMC returns an MC estimator over g with the given random seed.
func NewMC(g *uncertain.Graph, seed uint64) *MC {
	return &MC{
		g:     g,
		rng:   rng.New(seed),
		seen:  newEpochSet(g.NumNodes()),
		queue: make([]uncertain.NodeID, 0, mcQueueCap),
	}
}

// Name implements Estimator.
func (mc *MC) Name() string { return "MC" }

// Reseed implements Seeder.
func (mc *MC) Reseed(seed uint64) { mc.rng.Seed(seed) }

// Estimate implements Estimator: one Advance(k) of the query's session.
func (mc *MC) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(mc.g, s, t, k)
	return estimateOnce(mc.Sampler(s, t), k)
}

// sampleOnce draws one possible world lazily and reports whether t is
// reachable from s in it. Each edge is probed at most once per sample
// because every node is dequeued at most once.
func (mc *MC) sampleOnce(s, t uncertain.NodeID) bool {
	g, r := mc.g, mc.rng
	mc.seen.nextRound()
	mc.seen.visit(s)
	q := mc.queue[:0]
	q = append(q, s)
	for head := 0; head < len(q); head++ {
		v := q[head]
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
			q = append(q, w)
		}
	}
	mc.queue = q
	return false
}

// Sampler implements IncrementalEstimator: MC's sample stream is
// sequential, so a session advanced in chunks accumulates exactly the hit
// count one Advance with the summed budget would.
func (mc *MC) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(mc.g, s, t, 1)
	if s == t {
		return &trivialSampler{estimate: 1}
	}
	return &hitSampler{draw: func(lo, hi int) int {
		return drawEach(hi-lo, func() bool { return mc.sampleOnce(s, t) })
	}}
}

// MemoryBytes implements MemoryReporter: MC keeps only the visited set and
// the BFS queue beyond the shared graph.
func (mc *MC) MemoryBytes() int64 {
	return mc.seen.bytes() + int64(cap(mc.queue))*4
}

var _ IncrementalEstimator = (*MC)(nil)

package core

import (
	"fmt"

	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// KTerminal estimates the source-rooted k-terminal reliability: the
// probability that EVERY node of a target set T is reachable from the
// source s in a possible world. It generalizes the s-t query (|T| = 1)
// toward the k-terminal problems the paper's introduction surveys (Hardy
// et al., IEEE Trans. Rel. 2007), and is the Monte Carlo formulation of
// the "reliable set" queries of Khan et al. (EDBT 2014).
type KTerminal struct {
	g       *uncertain.Graph
	rng     *rng.Source
	targets []uncertain.NodeID
	isTgt   []bool
	seen    *epochSet
	queue   []uncertain.NodeID
}

// NewKTerminal returns an estimator for the given non-empty target set.
// Duplicate targets are ignored.
func NewKTerminal(g *uncertain.Graph, seed uint64, targets []uncertain.NodeID) (*KTerminal, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: k-terminal query needs at least one target")
	}
	n := uncertain.NodeID(g.NumNodes())
	isTgt := make([]bool, n)
	var uniq []uncertain.NodeID
	for _, t := range targets {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("core: target %d out of range [0,%d)", t, n)
		}
		if !isTgt[t] {
			isTgt[t] = true
			uniq = append(uniq, t)
		}
	}
	return &KTerminal{
		g:       g,
		rng:     rng.New(seed),
		targets: uniq,
		isTgt:   isTgt,
		seen:    newEpochSet(g.NumNodes()),
	}, nil
}

// Name returns the estimator's display name.
func (kt *KTerminal) Name() string { return fmt.Sprintf("KTerminal(|T|=%d)", len(kt.targets)) }

// Reseed implements Seeder.
func (kt *KTerminal) Reseed(seed uint64) { kt.rng.Seed(seed) }

// Targets returns the deduplicated target set.
func (kt *KTerminal) Targets() []uncertain.NodeID { return kt.targets }

// Estimate returns the probability that all targets are reachable from s,
// from k Monte Carlo samples: one Advance(k) of Sampler(s). The
// per-sample BFS terminates early once every target has been found.
func (kt *KTerminal) Estimate(s uncertain.NodeID, k int) float64 {
	mustValidQuery(kt.g, s, s, k)
	return estimateOnce(kt.Sampler(s), k)
}

func (kt *KTerminal) sampleOnce(s uncertain.NodeID) bool {
	g, r := kt.g, kt.rng
	kt.seen.nextRound()
	kt.seen.visit(s)
	remaining := len(kt.targets)
	if kt.isTgt[s] {
		remaining--
	}
	if remaining == 0 {
		return true
	}
	q := kt.queue[:0]
	q = append(q, s)
	for head := 0; head < len(q); head++ {
		v := q[head]
		tos := g.OutNeighbors(v)
		ps := g.OutProbs(v)
		for i, w := range tos {
			if kt.seen.visited(w) {
				continue
			}
			if !r.Bernoulli(ps[i]) {
				continue
			}
			kt.seen.visit(w)
			if kt.isTgt[w] {
				remaining--
				if remaining == 0 {
					kt.queue = q
					return true
				}
			}
			q = append(q, w)
		}
	}
	kt.queue = q
	return false
}

// Sampler opens an incremental estimation session for the probability that
// every target is reachable from s — KTerminal's analogue of the s-t
// Sampler contract. The per-sample BFS consumes the random stream
// sequentially, so Advance(a); Advance(b) accumulates the hit count
// Advance(a+b) would.
func (kt *KTerminal) Sampler(s uncertain.NodeID) Sampler {
	mustValidQuery(kt.g, s, s, 1)
	return &hitSampler{draw: func(lo, hi int) int {
		return drawEach(hi-lo, func() bool { return kt.sampleOnce(s) })
	}}
}

// MemoryBytes implements MemoryReporter.
func (kt *KTerminal) MemoryBytes() int64 {
	return kt.seen.bytes() + int64(cap(kt.queue))*4 + int64(len(kt.isTgt)) + int64(len(kt.targets))*4
}

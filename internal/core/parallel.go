package core

import (
	"runtime"
	"sync"

	"relcomp/internal/uncertain"
)

// ParallelMC is a multi-core extension of the baseline Monte Carlo
// estimator. The paper restricts its comparison to sequential algorithms
// (its §1 explicitly excludes distributed ones); ParallelMC is the obvious
// next step it leaves open: MC samples are embarrassingly parallel, so the
// K-sample budget is sharded over W workers with independent RNG streams.
// The estimate is statistically identical to MC's (same unbiasedness and
// variance), only wall-clock time changes.
//
// Unlike the other estimators, ParallelMC's Estimate is itself safe for
// the internal concurrency it manages, but the type still must not be
// shared between goroutines.
type ParallelMC struct {
	g       *uncertain.Graph
	seed    uint64
	epoch   uint64
	workers int
	pool    sync.Pool // *MC workers
}

// NewParallelMC returns a ParallelMC with workers goroutines (0 means
// GOMAXPROCS).
func NewParallelMC(g *uncertain.Graph, seed uint64, workers int) *ParallelMC {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ParallelMC{g: g, seed: seed, workers: workers}
	p.pool.New = func() interface{} { return NewMC(g, seed) }
	return p
}

// Name implements Estimator.
func (p *ParallelMC) Name() string { return "ParallelMC" }

// Reseed implements Seeder.
func (p *ParallelMC) Reseed(seed uint64) {
	p.seed = seed
	p.epoch = 0
}

// Estimate implements Estimator: one Advance(k) of the query's session,
// which shards the k samples over the workers and sums the per-shard hit
// counts.
func (p *ParallelMC) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(p.g, s, t, k)
	return estimateOnce(p.Sampler(s, t), k)
}

// shardHits draws `total` samples sharded over the workers of epoch
// `epoch` and returns the hit count: one Advance of a session. Each worker
// accumulates its count locally and hands it back over a channel —
// workers writing adjacent elements of a shared slice would false-share
// cache lines and serialize on coherence traffic exactly in the loop this
// type exists to speed up.
func (p *ParallelMC) shardHits(s, t uncertain.NodeID, epoch uint64, total int) int {
	workers := p.workers
	if workers > total {
		workers = total
	}
	results := make(chan int, workers)
	for w := 0; w < workers; w++ {
		share := total / workers
		if w < total%workers {
			share++
		}
		go func(w, share int) {
			mc := p.pool.Get().(*MC)
			// Derive an independent stream per (epoch, worker).
			mc.Reseed(mix(p.seed, epoch, uint64(w)))
			n := drawEach(share, func() bool { return mc.sampleOnce(s, t) })
			p.pool.Put(mc)
			results <- n
		}(w, share)
	}
	hits := 0
	for w := 0; w < workers; w++ {
		hits += <-results
	}
	return hits
}

// Sampler implements IncrementalEstimator. Each Advance is one sharded
// draw under a fresh epoch; chunked advancement accumulates statistically
// identical (but not bit-identical) hits to one Advance with the summed
// budget, because ParallelMC's sample sharding — like its worker count —
// shapes the per-worker streams.
func (p *ParallelMC) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(p.g, s, t, 1)
	if s == t {
		return &trivialSampler{estimate: 1}
	}
	return &hitSampler{draw: func(lo, hi int) int {
		p.epoch++
		return p.shardHits(s, t, p.epoch, hi-lo)
	}}
}

// mix combines the seed, query epoch, and worker id into one stream seed
// (splitmix64 finalizer).
func mix(seed, epoch, worker uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*epoch + 0xbf58476d1ce4e5b9*worker + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MemoryBytes implements MemoryReporter: one MC scratch per worker — the
// epoch-set (4 bytes per node) plus the initial BFS queue — computed
// arithmetically rather than by allocating a throwaway MC just to
// measure it.
func (p *ParallelMC) MemoryBytes() int64 {
	per := int64(p.g.NumNodes())*4 + mcQueueCap*4
	return per * int64(p.workers)
}

var _ IncrementalEstimator = (*ParallelMC)(nil)

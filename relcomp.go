// Package relcomp is a Go reproduction of "An In-Depth Comparison of s-t
// Reliability Algorithms over Uncertain Graphs" (Ke, Khan, Lim; 2019).
//
// An uncertain graph assigns every directed edge an independent existence
// probability; the s-t reliability R(s,t) is the probability that t is
// reachable from s across the exponentially many possible worlds. Exact
// computation is #P-complete, so this package provides the six
// state-of-the-art estimators the paper compares — Monte Carlo sampling,
// BFS Sharing, ProbTree indexing, corrected lazy propagation (LP+), and
// the two recursive estimators RHH and RSS — together with exact baselines
// for small graphs, dataset generators, query workloads, and the full
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	b := relcomp.NewGraphBuilder(4)
//	b.AddEdge(0, 1, 0.9)
//	b.AddEdge(1, 3, 0.8)
//	b.AddEdge(0, 2, 0.5)
//	b.AddEdge(2, 3, 0.7)
//	g := b.Build()
//	est := relcomp.NewRSS(g, 42)
//	r := est.Estimate(0, 3, 1000)
//
// See the examples/ directory for complete programs and DESIGN.md for the
// architecture and the experiment index.
package relcomp

import (
	"relcomp/internal/convergence"
	"relcomp/internal/core"
	"relcomp/internal/datasets"
	"relcomp/internal/exact"
	"relcomp/internal/uncertain"
	"relcomp/internal/workload"
)

// Core graph types, re-exported from the internal substrate.
type (
	// Graph is an immutable uncertain (probabilistic) directed graph.
	Graph = uncertain.Graph
	// GraphBuilder accumulates probabilistic edges into a Graph.
	GraphBuilder = uncertain.Builder
	// Edge is one directed probabilistic edge.
	Edge = uncertain.Edge
	// NodeID identifies a node (dense integers from 0).
	NodeID = uncertain.NodeID
	// EdgeID identifies an edge (dense integers from 0).
	EdgeID = uncertain.EdgeID

	// Estimator estimates s-t reliability with a sample budget.
	Estimator = core.Estimator
	// Sampler is an open incremental estimation session for one (s, t)
	// query: Advance draws further samples, Snapshot reports the running
	// estimate, sample count, and confidence half-width.
	Sampler = core.Sampler
	// SampleSnapshot is a Sampler's running state.
	SampleSnapshot = core.SampleSnapshot
	// AdaptiveOptions configures AdaptiveEstimate's stopping rules.
	AdaptiveOptions = core.AdaptiveOptions
	// AdaptiveResult reports an adaptive estimate and why it stopped.
	AdaptiveResult = core.AdaptiveResult
	// StopReason names the rule that ended an adaptive estimate.
	StopReason = core.StopReason
	// Pair is one s-t reliability query.
	Pair = workload.Pair

	// ConvergenceConfig controls a variance-convergence sweep.
	ConvergenceConfig = convergence.Config
	// ConvergenceResult is the outcome of a sweep.
	ConvergenceResult = convergence.Result
)

// NewGraphBuilder returns a builder for an uncertain graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return uncertain.NewBuilder(n) }

// ReadGraphFile loads a graph from the text format ("n m" header followed
// by "from to prob" lines).
func ReadGraphFile(path string) (*Graph, error) { return uncertain.ReadFile(path) }

// WriteGraphFile stores a graph in the text format.
func WriteGraphFile(path string, g *Graph) error { return uncertain.WriteFile(path, g) }

// NewMC returns the baseline Monte Carlo estimator (Alg. 1 of the paper).
func NewMC(g *Graph, seed uint64) Estimator { return core.NewMC(g, seed) }

// NewBFSSharing builds the BFS Sharing index with `width` pre-sampled
// possible worlds and returns its estimator (Alg. 2–3). Estimate calls may
// use any k <= width.
func NewBFSSharing(g *Graph, seed uint64, width int) Estimator {
	return core.NewBFSSharing(g, seed, width)
}

// NewRHH returns the recursive sampling estimator of Jin et al. (Alg. 4).
func NewRHH(g *Graph, seed uint64) Estimator { return core.NewRHH(g, seed) }

// NewRSS returns the recursive stratified sampling estimator of Li et al.
// (Alg. 5).
func NewRSS(g *Graph, seed uint64) Estimator { return core.NewRSS(g, seed) }

// NewLazyProp returns the corrected lazy propagation estimator LP+
// (Alg. 6 with the paper's c_v+1 fix).
func NewLazyProp(g *Graph, seed uint64) Estimator { return core.NewLazyProp(g, seed) }

// NewProbTree builds the FWD ProbTree index (w = 2, lossless) and returns
// its estimator with MC as the inner sampler (Alg. 7–8).
func NewProbTree(g *Graph, seed uint64) Estimator { return core.NewProbTree(g, seed) }

// NewPackMC returns the bit-parallel world-packed Monte Carlo estimator:
// statistically identical to MC at equal K, but it samples 64 possible
// worlds per traversal as machine-word lanes, with per-edge existence
// masks drawn lazily by geometric skips and packs terminated early once
// the target's mask can no longer change.
func NewPackMC(g *Graph, seed uint64) Estimator { return core.NewPackMC(g, seed) }

// NewParallelPackMC returns a PackMC that shards its 64-world packs over
// `workers` goroutines (0 means GOMAXPROCS). Its estimates are
// bit-identical to NewPackMC with the same seed, for any worker count.
func NewParallelPackMC(g *Graph, seed uint64, workers int) Estimator {
	return core.NewParallelPackMC(g, seed, workers)
}

// NewWidePackMC returns NewPackMC under the name PackMC256 or PackMC512
// (lanes must be 256 or 512). Its source sweeps (single-source and top-k
// queries) run 256 worlds per traversal as an unrolled lane group at
// either width, with fused multi-word mask draws (AVX-512 accelerated
// where available) and a dense bitmap sweep for saturated frontiers; its
// s-t queries run NewPackMC's 64-lane bidirectional search. Its estimates
// are bit-identical to NewPackMC's with the same seed.
func NewWidePackMC(g *Graph, seed uint64, lanes int) Estimator {
	return core.NewWidePackMC(g, seed, lanes)
}

// Estimators returns fresh instances of the paper's six estimators, in
// table order, sharing the graph. The BFS Sharing index is sized for
// Estimate calls up to maxK samples.
func Estimators(g *Graph, seed uint64, maxK int) []Estimator {
	return []Estimator{
		core.NewMC(g, seed),
		core.NewBFSSharing(g, seed, maxK),
		core.NewProbTree(g, seed),
		core.NewLazyProp(g, seed),
		core.NewRHH(g, seed),
		core.NewRSS(g, seed),
	}
}

// ExactReliability computes R(s,t) exactly by the factoring recursion.
// It is exponential in the worst case; intended for small graphs and
// validation.
func ExactReliability(g *Graph, s, t NodeID) (float64, error) {
	return exact.Factoring(g, s, t)
}

// QueryPairs draws count s-t pairs at exact hop distance hops, the
// workload shape of the paper's evaluation.
func QueryPairs(g *Graph, count, hops int, seed uint64) ([]Pair, error) {
	return workload.Pairs(g, count, hops, seed)
}

// DatasetNames lists the six synthetic stand-in datasets in the paper's
// order.
func DatasetNames() []string {
	specs := datasets.All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Dataset generates the named synthetic dataset at the given scale
// (1.0 = laptop default size) and seed.
func Dataset(name string, scale float64, seed uint64) (*Graph, error) {
	spec, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(scale, seed), nil
}

// ConvergenceSweep runs the paper's variance-convergence procedure
// (ρ_K = V_K/R_K < 0.001) for one estimator over a workload, resuming
// incremental samplers between sweep points instead of re-running every
// point from K = 0.
func ConvergenceSweep(est Estimator, pairs []Pair, cfg ConvergenceConfig) ConvergenceResult {
	return convergence.Sweep(est, pairs, cfg)
}

// Stop reasons reported by AdaptiveEstimate and the engine's anytime
// queries.
const (
	StopEps      = core.StopEps      // accuracy target reached
	StopRho      = core.StopRho      // dispersion criterion fired
	StopDeadline = core.StopDeadline // wall-clock deadline expired
	StopMaxK     = core.StopMaxK     // sample budget exhausted
	StopCanceled = core.StopCanceled // context canceled
)

// NewSampler opens an incremental estimation session for (s, t) on est:
// the estimator's native sampler when it supports chunked advancement
// (MC, PackMC, BFS Sharing, LP+, ProbTree — each one's Estimate is one
// Advance of this session, and chunked Advances equal it at equal total
// samples), or a restart-doubling adapter (RHH, RSS), whose first Advance
// is one Estimate. At most one session per estimator instance may be open
// at a time.
func NewSampler(est Estimator, s, t NodeID) Sampler { return core.NewSampler(est, s, t) }

// AdaptiveEstimate advances a sampler in geometrically growing chunks
// until the relative 95% CI half-width reaches opts.Eps, the paper's
// dispersion criterion fires, the deadline expires, or the budget
// opts.MaxK is exhausted — anytime s-t reliability with a termination
// report. With every stopping rule disabled the result is bit-identical
// to a fixed-K Estimate at opts.MaxK.
func AdaptiveEstimate(sp Sampler, opts AdaptiveOptions) AdaptiveResult {
	return core.AdaptiveEstimate(sp, opts)
}

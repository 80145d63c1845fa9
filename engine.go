package relcomp

import (
	"relcomp/internal/core"
	"relcomp/internal/engine"
)

// The concurrent batch query engine, re-exported from internal/engine.
// The engine is the serving layer over the six estimators: per-worker
// estimator pools (the estimators are not goroutine-safe) whose
// index-based members share one immutable offline index per estimator
// kind — pool replicas are cheap online-scratch handles, so index memory
// stays O(index) regardless of Workers — a batch API that groups queries
// by source so BFS Sharing amortizes one traversal across all targets of
// a source, ProbTree amortizes its source-side bag expansion across a
// source group, and the PackMC names amortize one pack sweep, at the
// width measured cheaper, across a source group, a bounded LRU result
// cache, and an adaptive per-query
// estimator router driven by analytic bounds width and online latency
// statistics. Queries carrying an accuracy target (Query.Eps) or latency
// target (Query.Deadline) run anytime: the engine advances incremental
// samplers under sequential stopping, spends only the samples each pair
// needs, and reports SamplesUsed and StopReason per result. Engine
// methods take a context.Context; cancellation fails queued work and
// stops anytime queries between sample chunks.
//
// Every query kind flows through the one typed Request union: plain s-t
// reliability, distance-constrained reachability (Request.D), top-k
// ranking (Request.TopK, with CI-separation early termination when Eps is
// set), single-source, and k-terminal (Request.Targets) — each optionally
// conditioned on per-request Evidence applied as a probability overlay.
// See cmd/relserver for the HTTP surface and DESIGN.md §4–6 for the
// architecture.

type (
	// Engine is the concurrent batch query engine; all methods are safe
	// for concurrent use.
	Engine = engine.Engine
	// EngineConfig configures NewEngine.
	EngineConfig = engine.Config
	// EngineStats is a snapshot of engine counters (cache hit/miss,
	// per-estimator latency, routing decisions, per-kind traffic).
	EngineStats = engine.Stats
	// EngineEstimatorStats is one estimator's entry in
	// EngineStats.Estimators.
	EngineEstimatorStats = engine.EstimatorStats

	// Request is one typed query of the unified surface: Kind selects the
	// query shape (s-t reliability, distance-constrained reachability,
	// top-k ranking, single-source, k-terminal), Evidence conditions it
	// on known edges, and Eps/Deadline make it anytime. The zero Kind is
	// KindReliability, so a plain s-t literal keeps its meaning.
	Request = engine.Request
	// Response is the engine's answer to one Request, with exactly one
	// per-kind payload populated (Reliability, Reliabilities, or
	// TopTargets).
	Response = engine.Response
	// QueryKind names a Request's query kind.
	QueryKind = engine.Kind
	// Evidence conditions a Request on partial world knowledge: edges in
	// Include definitely exist, edges in Exclude definitely do not. The
	// engine applies it as a per-request probability overlay — no graph
	// rebuild — and keys its result cache on the evidence set.
	Evidence = engine.Evidence

	// Query is the pre-union name of Request, kept as an alias.
	Query = engine.Query
	// Result is the pre-union name of Response, kept as an alias.
	Result = engine.Result

	// AdmissionConfig configures EngineConfig.Admission: the bounded
	// admission queue and load-shedding budgets. The zero value disables
	// admission control entirely.
	AdmissionConfig = engine.AdmissionConfig
	// AdmissionStats is the admission-control section of EngineStats:
	// admitted/queued/shed/timed-out/degraded counters plus current
	// inflight occupancy.
	AdmissionStats = engine.AdmissionStats
)

// The overload errors a shedding engine returns instead of computing.
// Serving layers map these to backpressure statuses (HTTP 429/503) rather
// than treating them as client errors.
var (
	// ErrOverloaded is wrapped when admission control rejects a request
	// outright: the queue is full, so waiting would not help.
	ErrOverloaded = engine.ErrOverloaded
	// ErrQueueTimeout is wrapped when a request was queued but no capacity
	// freed within the admission queue-wait window.
	ErrQueueTimeout = engine.ErrQueueTimeout
	// ErrEstimatorPanic is wrapped when an estimator panicked while
	// serving the request; the fault was contained to this request and the
	// replica discarded.
	ErrEstimatorPanic = engine.ErrEstimatorPanic
)

// The query kinds of the unified Request surface.
const (
	// KindReliability is the paper's s-t reliability query R(s,t).
	KindReliability = engine.KindReliability
	// KindDistance is distance-constrained reachability R_d(s,t) with hop
	// bound Request.D (Jin et al., PVLDB 2011).
	KindDistance = engine.KindDistance
	// KindTopK ranks the Request.TopK most reliable targets from s
	// (Zhu et al., ICDM 2015).
	KindTopK = engine.KindTopK
	// KindSingleSource estimates the reliability of every node from s.
	KindSingleSource = engine.KindSingleSource
	// KindKTerminal estimates the probability that every Request.Targets
	// node is reachable from s.
	KindKTerminal = engine.KindKTerminal
)

// QueryKinds lists the kinds the engine accepts, in documentation order.
func QueryKinds() []QueryKind { return engine.Kinds() }

// EngineBoundsName is the pseudo-estimator name reported when the
// analytic bounds answer a routed query without sampling.
const EngineBoundsName = engine.BoundsName

// StopSeparated is the stop reason of an anytime top-k request whose
// ranking converged by CI separation (the k-th and (k+1)-th candidates'
// confidence intervals no longer overlap).
const StopSeparated = core.StopSeparated

// StopDegraded is the stop reason of a request answered from the
// analytic-bounds floor by the overload degradation ladder; the response
// also reports Response.Degraded.
const StopDegraded = core.StopDegraded

// NewEngine builds a concurrent batch query engine over g. Estimator
// replicas are constructed lazily, so this is cheap even for the
// index-based methods.
func NewEngine(g *Graph, cfg EngineConfig) (*Engine, error) {
	return engine.New(g, cfg)
}

// DefaultEngineEstimators lists the estimators an engine builds when the
// config leaves the set empty: the paper's six plus the word-packed
// PackMC under its three names (PackMC, PackMC256, PackMC512, one replica
// pool) and the multi-core ParallelMC / ParallelPackMC extensions.
func DefaultEngineEstimators() []string { return engine.DefaultEstimators() }

// BorrowEstimator runs fn with exclusive use of a pooled instance of the
// named estimator — the escape hatch for advanced queries (TopK,
// single-source) that need a concrete estimator rather than one Estimate
// call. The instance is reseeded at borrow time, so results depend only
// on the engine seed, not on earlier traffic. fn must not call back into
// the engine for the same estimator — on a single-replica pool that
// blocks forever.
func BorrowEstimator(e *Engine, name string, fn func(Estimator) error) error {
	return e.Do(name, fn)
}

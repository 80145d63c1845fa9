package engine

import (
	"context"
	"fmt"
	"time"

	"relcomp/internal/core"
	"relcomp/internal/faultinject"
	"relcomp/internal/uncertain"
)

// Execution of the non-plain request kinds: distance-constrained
// reachability, top-k ranking, single-source, k-terminal, and any kind
// conditioned on evidence. Plain s-t reliability (no evidence) runs on the
// spine's own units in engine.go (routing, source groups); everything else
// is one kindRequest unit answered by runKind, which reuses the same
// machinery at the next level up: pooled estimator replicas (per-d pools
// for distance), the LRU result cache keyed on the full request identity
// (kind, parameters, evidence fingerprint), anytime sequential stopping
// over the core sampler sessions, and per-estimator stats accounting.

// ktName is the display/cache name of the k-terminal sampler, and distName
// builds the per-hop-bound name distance pools and stats rows use. Neither
// is a routable pool estimator; they exist in the name space so stats,
// cache keys, and per-query seeds stay uniform across kinds.
const ktName = "KTerminal"

func distName(d int) string { return fmt.Sprintf("MC(d<=%d)", d) }

// overlayCacheCap bounds the engine's evidence-overlay LRU: one entry per
// distinct evidence set seen recently, each holding an O(m) probability
// copy over the shared topology.
const overlayCacheCap = 64

// evidenceCapable reports whether the named estimator can answer
// evidence-conditioned requests: it must be index-free (an offline index
// bakes the base probabilities in) and constructible in O(n) per overlay.
func evidenceCapable(name string) bool { return name == "MC" || packLike(name) }

// kindEstimator resolves the estimator name a non-plain request runs on.
// Resolution is deterministic (no latency-dependent routing): the analytic
// bounds router is an s-t device, so the other kinds default to the
// estimator whose core API serves them best — one shared BFS Sharing
// traversal for the source-rooted kinds, the index-free PackMC under
// evidence, the MC family for the per-sample kinds.
func (e *Engine) kindEstimator(q Request) string { return kindEstimatorFor(q) }

// kindEstimatorFor is the static (engine-independent) kind resolution;
// the compat seeding helpers reuse it so callers can predict the name.
func kindEstimatorFor(q Request) string {
	switch q.kind() {
	case KindDistance:
		return distName(q.D)
	case KindKTerminal:
		return ktName
	case KindTopK, KindSingleSource:
		if q.Estimator != "" {
			return q.Estimator
		}
		if !q.Evidence.Empty() {
			return packName
		}
		return sharedName
	default: // KindReliability under evidence
		if q.Estimator != "" {
			return q.Estimator
		}
		return packName
	}
}

// kindKey builds the result-cache key for a non-plain request: the full
// request identity, with the estimator name resolved so an explicit
// default and an omitted one share the entry, tagged with the source's
// invalidation epoch like every other key.
func (e *Engine) kindKey(st *epochState, q Request, name string) cacheKey {
	return cacheKey{
		s: q.S, t: q.T, est: name, k: q.K, eps: q.Eps,
		kind: q.kind(), d: q.D, topk: q.TopK,
		targets:  fingerprintIDs(0x7a6e75, q.Targets),
		evidence: fingerprintEvidence(q.Evidence),
		epoch:    st.srcTag(q.S),
	}
}

// graphFor resolves the request's effective graph: the epoch's shared
// graph, or — under evidence — a probability overlay from the epoch's
// bounded overlay LRU, built on first use (overlay probabilities come
// from the epoch's graph, so the memo lives and dies with the state).
// Concurrent first requests for one evidence set may race to build the
// overlay; the race is benign (the overlays are identical) and the LRU
// keeps one.
func (e *Engine) graphFor(st *epochState, ev Evidence) (*uncertain.Graph, error) {
	if ev.Empty() {
		return st.g, nil
	}
	key := cacheKey{evidence: fingerprintEvidence(ev)}
	if g, ok := st.overlays.get(key); ok {
		return g, nil
	}
	g, err := uncertain.Overlay(st.g, ev.Include, ev.Exclude)
	if err != nil {
		return nil, err
	}
	st.overlays.put(key, g)
	return g, nil
}

// distPoolCap bounds the number of per-hop-bound distance pools an engine
// keeps alive: d is client-controlled, and each pool retains O(n) replica
// scratch, so an unbounded map would let a client sweeping hop bounds grow
// server memory without limit (the evidence overlays are bounded by an LRU
// for the same reason).
const distPoolCap = 32

// distPool returns the epoch's replica pool for the hop bound d, creating
// it on first demand. Distance pools are keyed per d — the hop bound is
// baked into the estimator — and sized like every named pool. At most
// distPoolCap distinct hop bounds are pooled at once; beyond that an
// arbitrary pool is evicted (in-flight borrowers keep their own pool
// pointer, so eviction never disturbs a running query).
func (e *Engine) distPool(st *epochState, d int) *pool {
	ds := st.dist
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if p, ok := ds.pools[d]; ok {
		return p
	}
	if len(ds.pools) >= distPoolCap {
		// Evict the largest-d pool. Any fixed rule works for capacity
		// control (evicted pools rebuild deterministically from their
		// seed); picking one by map iteration order would make eviction —
		// and therefore rebuild cost — vary run to run.
		evict := -1
		for k := range ds.pools { //lint:allow maprange commutative max over keys; eviction choice is order-independent
			if k > evict {
				evict = k
			}
		}
		delete(ds.pools, evict)
	}
	seed := replicaSeed(e.cfg.Seed, distName(d))
	g := ds.g
	p := newPool(e.cfg.Workers, func() core.Estimator {
		return core.NewDistanceConstrainedMC(g, seed, d)
	})
	ds.pools[d] = p
	return p
}

// kindSeed derives the deterministic sampling-stream seed of a non-plain
// request: the same querySeed chain the plain path uses, with the
// source-rooted kinds keyed target-less (their one traversal serves every
// target). Evidence does not enter the seed — two requests differing only
// in evidence draw common random numbers over different overlays, which
// is statistically sound and lets scenario comparisons share noise — and
// it is what makes the legacy-compat seeding (CompatQuerySeed) reach the
// evidence path too.
func (e *Engine) kindSeed(name string, q Request) uint64 {
	switch q.kind() {
	case KindReliability, KindDistance:
		return querySeed(e.cfg.Seed, name, q.S, q.T, q.K)
	default: // source-rooted: top-k, single-source, k-terminal
		return querySeed(e.cfg.Seed, name, q.S, q.S, q.K)
	}
}

// runKind answers one validated non-plain request: cache lookup on the
// full request identity, then per-kind computation, cache fill, and
// accounting. The deadline rule matches the plain path: deadline-truncated
// answers are timing-dependent and never cached.
func (e *Engine) runKind(ctx context.Context, st *epochState, q Request, res *Response) {
	name := e.kindEstimator(q)
	res.Used = name
	dl := effectiveDeadline(ctx, q.Deadline)
	key := e.kindKey(st, q, name)
	if dl.IsZero() {
		if v, ok := e.cache.get(key); ok {
			e.fillHit(res, name, v)
			return
		}
	}
	start := time.Now()
	if err := capturePanic(func() { e.computeKind(ctx, st, name, q, dl, res) }); err != nil {
		// Panics on the non-pooled kind paths (overlay estimators,
		// k-terminal samplers) are contained here; pooled borrows inside
		// computeKind contain and discard via withReplica before this.
		res.Err = err
	}
	res.Latency = time.Since(start)
	if res.Err == nil && dl.IsZero() {
		e.cache.put(key, answerOf(res, st.epoch))
	}
	e.record(name, res.Latency.Seconds(), false)
}

// computeKind dispatches one non-plain request to its kind's execution.
func (e *Engine) computeKind(ctx context.Context, st *epochState, name string, q Request, dl time.Time, res *Response) {
	if faultinject.Enabled() {
		// Keyed by the kind's deterministic stream seed; the injected
		// panic fires before any pool borrow and is contained by runKind.
		fkey := e.kindSeed(name, q)
		faultinject.Sleep(faultinject.SlowReplica, fkey)
		faultinject.MaybePanic(faultinject.EstimatorPanic, fkey)
	}
	g, err := e.graphFor(st, q.Evidence)
	if err != nil {
		res.Err = err
		return
	}
	anytime := q.Eps > 0 || !dl.IsZero()
	opts := core.AdaptiveOptions{Eps: q.Eps, MaxK: q.K, Deadline: dl, Ctx: ctx}
	switch q.kind() {
	case KindReliability: // evidence-conditioned s-t
		inst := e.overlayEstimator(name, g, q)
		e.runScalar(ctx, q, inst.Estimate, stSampler(inst, q), anytime, opts, res)
	case KindDistance:
		if q.Evidence.Empty() {
			p := e.distPool(st, q.D)
			if err := e.withReplica(p, func(inst core.Estimator) {
				inst.(core.Seeder).Reseed(e.kindSeed(name, q))
				e.runScalar(ctx, q, inst.Estimate, stSampler(inst, q), anytime, opts, res)
			}); err != nil {
				res.Err = err
			}
			return
		}
		inst := core.NewDistanceConstrainedMC(g, e.kindSeed(name, q), q.D)
		e.runScalar(ctx, q, inst.Estimate, stSampler(inst, q), anytime, opts, res)
	case KindKTerminal:
		kt, err := core.NewKTerminal(g, e.kindSeed(name, q), q.Targets)
		if err != nil {
			res.Err = err
			return
		}
		est := func(s, _ uncertain.NodeID, k int) float64 { return kt.Estimate(s, k) }
		e.runScalar(ctx, q, est, func() core.Sampler { return kt.Sampler(q.S) }, anytime, opts, res)
	case KindTopK, KindSingleSource:
		e.runSourceRooted(ctx, st, name, g, q, anytime, opts, res)
	default:
		res.Err = fmt.Errorf("engine: unknown kind %q", q.Kind)
	}
}

// stSampler defers opening an s-t sampler session until the anytime path
// actually needs it: opening a session can advance estimator stream state
// (PackMC's round counter), which would knock the fixed path off the
// bit-identical stream a hand-constructed estimator draws.
func stSampler(inst core.Estimator, q Request) func() core.Sampler {
	return func() core.Sampler { return core.NewSampler(inst, q.S, q.T) }
}

// runScalar answers the scalar kinds (plain s-t through runOne, s-t under
// evidence, distance, k-terminal): one fixed-budget call, or an anytime
// session under the request's stopping rules. The fixed path calls the
// estimator's own Estimate, so it stays bit-identical to a
// hand-constructed run with the same stream seed.
func (e *Engine) runScalar(ctx context.Context, q Request, est func(s, t uncertain.NodeID, k int) float64, open func() core.Sampler, anytime bool, opts core.AdaptiveOptions, res *Response) {
	if !anytime {
		res.Reliability = est(q.S, q.T, q.K)
		res.SamplesUsed = q.K
		return
	}
	e.fillAnytime(ctx, res, q.K, core.AdaptiveEstimate(open(), opts))
}

// runSourceRooted answers top-k and single-source: one shared multi-target
// traversal on a SourceSampler estimator — the pooled BFS Sharing querier
// over the shared index, the pooled PackMC, or an index-free PackMC built
// over the evidence overlay.
func (e *Engine) runSourceRooted(ctx context.Context, st *epochState, name string, g *uncertain.Graph, q Request, anytime bool, opts core.AdaptiveOptions, res *Response) {
	if q.Evidence.Empty() {
		p := st.pools[name]
		if err := e.withReplica(p, func(pooled core.Estimator) {
			e.sourceRootedOn(ctx, name, g, q, pooled, anytime, opts, res)
		}); err != nil {
			res.Err = err
		}
		return
	}
	// Under evidence, validate restricted name to a PackMC width; build the
	// index-free kernel at that width over the overlay.
	inst := newPackLike(name, g, replicaSeed(e.cfg.Seed, name))
	e.sourceRootedOn(ctx, name, g, q, inst, anytime, opts, res)
}

// sourceRootedOn runs the source-rooted kinds on an instance the caller
// owns (a pooled replica or an overlay-built estimator).
func (e *Engine) sourceRootedOn(ctx context.Context, name string, g *uncertain.Graph, q Request, inst core.Estimator, anytime bool, opts core.AdaptiveOptions, res *Response) {
	// PackMC is reseeded target-less exactly like the plain batch path, so
	// its traversal draws the world ensemble each single s-t query would.
	// The BFS querier has no per-query stream — its worlds are the shared
	// pre-sampled index — which is what makes engine answers reproduce a
	// hand-built BFSSharing with the matching index seed bit for bit.
	if s, ok := inst.(core.Seeder); ok {
		s.Reseed(e.kindSeed(name, q))
	}
	ss, ok := inst.(core.SourceSampler)
	if !ok {
		res.Err = fmt.Errorf("engine: estimator %q has no multi-target traversal", name)
		return
	}
	if q.kind() == KindTopK {
		if !anytime {
			top, err := core.TopKReliableTargets(ss, g, q.S, q.TopK, q.K)
			if err != nil {
				res.Err = err
				return
			}
			res.TopTargets = top
			res.SamplesUsed = q.K
			return
		}
		tk := core.AdaptiveTopK(ss.AllSampler(q.S), otherNodes(g, q.S), q.TopK, opts)
		res.TopTargets = tk.Top
		e.fillAnytime(ctx, res, q.K, core.AdaptiveResult{Samples: tk.Samples, Reason: tk.Reason})
		return
	}
	// Single-source.
	if !anytime {
		res.Reliabilities = ss.EstimateAll(q.S, q.K)
		res.SamplesUsed = q.K
		return
	}
	targets := otherNodes(g, q.S)
	ars := core.AdaptiveEstimateAll(ss.AllSampler(q.S), targets, opts)
	all := make([]float64, g.NumNodes())
	all[q.S] = 1
	maxSamples := 0
	reason := core.StopEps
	for i, ar := range ars {
		all[targets[i]] = ar.Estimate
		if ar.Samples > maxSamples {
			maxSamples = ar.Samples
		}
		reason = worseReason(reason, ar.Reason)
	}
	res.Reliabilities = all
	e.fillAnytime(ctx, res, q.K, core.AdaptiveResult{Samples: maxSamples, Reason: reason})
}

// otherNodes lists every node except s — the candidate (or target) set of
// the source-rooted kinds.
func otherNodes(g *uncertain.Graph, s uncertain.NodeID) []uncertain.NodeID {
	out := make([]uncertain.NodeID, 0, g.NumNodes()-1)
	for v := uncertain.NodeID(0); int(v) < g.NumNodes(); v++ {
		if v != s {
			out = append(out, v)
		}
	}
	return out
}

// reasonSeverity orders stop reasons for the single-source aggregate
// report: a shared sweep that was cut off (canceled, deadline, budget)
// must not report itself converged because some targets retired early.
var reasonSeverity = map[core.StopReason]int{
	core.StopCanceled: 5, core.StopDeadline: 4, core.StopMaxK: 3,
	core.StopSeparated: 2, core.StopRho: 1, core.StopEps: 0,
}

func worseReason(a, b core.StopReason) core.StopReason {
	if reasonSeverity[b] > reasonSeverity[a] {
		return b
	}
	return a
}

// overlayEstimator constructs the index-free estimator an
// evidence-conditioned s-t request runs on, seeded with the same per-query
// stream seed the pooled path would use.
func (e *Engine) overlayEstimator(name string, g *uncertain.Graph, q Request) core.Estimator {
	seed := e.kindSeed(name, q)
	if packLike(name) {
		return newPackLike(name, g, seed)
	}
	return core.NewMC(g, seed)
}

package engine

import (
	"fmt"
	"sort"
	"time"

	"relcomp/internal/core"
	"relcomp/internal/uncertain"
)

// The unified request surface: every query kind the system answers —
// the paper's s-t reliability plus the advanced queries its related-work
// section motivates (distance-constrained reachability of Jin et al.,
// top-k reliability search of Zhu et al., single-source and k-terminal
// reliability, conditional reliability under evidence of Khan et al.) —
// flows through one typed Request union and one Response shape, so every
// kind is a first-class citizen of the serving machinery: estimator
// pools, the result cache, adaptive routing, anytime stopping, and batch
// amortization.

// Kind names a query kind. The zero value is KindReliability, so a plain
// s-t Request (and every pre-union Query literal) keeps its meaning.
type Kind string

const (
	// KindReliability is the paper's s-t reliability query R(s,t).
	KindReliability Kind = "reliability"
	// KindDistance is distance-constrained reachability R_d(s,t): the
	// probability that t is reachable from s within Request.D hops
	// (Jin et al., PVLDB 2011).
	KindDistance Kind = "distance"
	// KindTopK ranks the Request.TopK most reliable targets from s
	// (Zhu et al., ICDM 2015).
	KindTopK Kind = "topk"
	// KindSingleSource estimates the reliability of every node from s in
	// one shared traversal.
	KindSingleSource Kind = "single_source"
	// KindKTerminal estimates the probability that every node of
	// Request.Targets is reachable from s (source-rooted k-terminal
	// reliability).
	KindKTerminal Kind = "kterminal"
)

// Kinds lists the query kinds the engine accepts, in documentation order.
func Kinds() []Kind {
	return []Kind{KindReliability, KindDistance, KindTopK, KindSingleSource, KindKTerminal}
}

// Evidence conditions a request on partial knowledge of the world: edges
// in Include definitely exist, edges in Exclude definitely do not.
// Reliability under evidence equals the conditional reliability
// R(· | Include ⊆ world, Exclude ∩ world = ∅) — the conditional
// reliability query of Khan et al. (TKDE 2018). The engine applies
// evidence as a probability overlay over the shared graph (no rebuild;
// see uncertain.Overlay) and keys the result cache on the evidence set,
// so any kind can be conditioned per request.
type Evidence struct {
	Include []uncertain.EdgeID
	Exclude []uncertain.EdgeID
}

// Empty reports whether no evidence is attached.
func (ev Evidence) Empty() bool { return len(ev.Include) == 0 && len(ev.Exclude) == 0 }

// Request is one typed query. Kind selects the query shape; the zero Kind
// is KindReliability, which keeps every pre-union Query literal valid.
// Fields beyond the kind's shape are rejected by validation only when
// they would be ambiguous (e.g. a negative D); unused zero fields are
// simply ignored.
type Request struct {
	// Kind selects the query kind; empty means KindReliability.
	Kind Kind
	// S is the source node (all kinds). T is the target node
	// (KindReliability and KindDistance; ignored by the source-rooted
	// kinds).
	S, T uncertain.NodeID
	// K is the sample budget: the exact count drawn for a fixed query,
	// the cap for an anytime one (Eps or Deadline set).
	K int
	// Estimator names the method to use; empty selects the kind's default
	// (adaptive routing for KindReliability, BFS Sharing for the
	// source-rooted kinds, the MC family for distance/k-terminal).
	// BoundsName requests the no-sampling analytic answer
	// (KindReliability only).
	Estimator string
	// Eps, when positive, turns the query anytime: s-t kinds stop at the
	// relative 95% CI half-width target, single-source retires each
	// target at its own target, and top-k stops at CI separation of the
	// ranking boundary. Must be in [0, 1).
	Eps float64
	// Deadline, when positive, bounds the query's sampling wall-clock
	// time. Combined with a context deadline, the earlier one wins.
	Deadline time.Duration
	// D is the hop bound of KindDistance; must be >= 1 for that kind.
	D int
	// TopK is the ranking size of KindTopK; must be >= 1 for that kind.
	TopK int
	// Targets is the target set of KindKTerminal; must be non-empty for
	// that kind. Order and duplicates are irrelevant to both the value
	// (the sampling stream is seeded from (s, k) alone) and the cache
	// identity (the key fingerprints the set).
	Targets []uncertain.NodeID
	// Evidence conditions the request on known edges; see Evidence.
	Evidence Evidence
}

// Query is the pre-union name of Request, kept as an alias so existing
// call sites (and the plain s-t literal shape) continue to compile.
type Query = Request

// kind returns the request's kind with the zero value normalized.
func (q Request) kind() Kind {
	if q.Kind == "" {
		return KindReliability
	}
	return q.Kind
}

// anytime reports whether the query asks for early stopping rather than
// an exact fixed budget.
func (q Request) anytime() bool { return q.Eps > 0 || q.Deadline > 0 }

// plainReliability reports whether the request is a pre-union s-t query:
// reliability kind, no evidence. Those take the original engine paths
// (routing, source-grouped batching) untouched and bit-identical.
func (q Request) plainReliability() bool {
	return q.kind() == KindReliability && q.Evidence.Empty()
}

// Response is the engine's answer to one Request. Exactly one of the
// per-kind payload fields is populated: Reliability for the scalar kinds
// (reliability, distance, k-terminal), Reliabilities for single-source,
// TopTargets for top-k.
type Response struct {
	Request
	// Used is the estimator that produced the value (BoundsName when the
	// analytic bounds answered a routed query outright).
	Used string
	// Epoch is the engine epoch the answer was computed under: the current
	// epoch for fresh computations, the filling computation's epoch for
	// cache hits. A hit for a source no mutation has touched may
	// legitimately predate the current epoch — the value is identical to a
	// fresh computation's, but callers correlating answers with mutation
	// epochs (subscriptions, the soak harness) can see which world answered.
	Epoch uint64
	// Reliability is the scalar answer of KindReliability, KindDistance,
	// and KindKTerminal.
	Reliability float64
	// Reliabilities is KindSingleSource's answer: one value per node
	// (index = NodeID; the source reports 1).
	Reliabilities []float64
	// TopTargets is KindTopK's answer: up to TopK nodes with positive
	// estimated reliability, ordered by reliability descending, ties by
	// ascending NodeID.
	TopTargets []core.Reliability
	// Cached reports the value was reused rather than computed: an LRU
	// result-cache hit, or an intra-batch duplicate answered by the
	// first copy's computation (counted in Stats.DedupedQueries).
	Cached bool
	// Degraded reports the answer was served below the requested
	// fidelity by the overload degradation ladder (widened ε, reduced
	// sample budget, a cheaper estimator, or the analytic-bounds floor,
	// whose StopReason is "degraded"). Full-fidelity answers report
	// false, including answers served under load without shedding
	// precision.
	Degraded bool
	// Latency is the time spent computing this answer, the same for
	// Estimate and EstimateBatch: the estimator run, or its even share of
	// a source group's shared traversal, or the bounds walk of a
	// bounds-answered query. Admission queueing and the routing of a
	// sampled query are excluded; reused answers (cache hits, duplicates
	// within one call) and rejected queries report 0.
	Latency time.Duration
	// SamplesUsed is the number of samples actually drawn: K for a fixed
	// query, possibly fewer for an anytime one, 0 for bounds-answered and
	// rejected queries. Multi-target kinds report the shared traversal's
	// sample count. Cached results report the sample count of the
	// computation that filled the cache.
	SamplesUsed int
	// StopReason reports the rule that ended an anytime query's sampling
	// ("eps", "rho", "deadline", "max_k", "canceled", and "separated" for
	// top-k CI separation); empty for fixed, bounds-answered, and
	// rejected queries.
	StopReason string
	Err        error
}

// Result is the pre-union name of Response, kept as an alias.
type Result = Response

// fingerprintIDs hashes a set of ids into 128 bits, insensitive to order
// and duplicates: the ids are sorted and deduped into two independent
// accumulating hashes (FNV-1a and a splitmix chain) plus the set size.
// The empty set maps to the all-zero fingerprint, so "no evidence" and
// "no targets" key exactly like pre-union queries. 128 bits make an
// accidental collision between two distinct sets in one cache lifetime
// vanishingly unlikely.
func fingerprintIDs(salt uint64, ids []uncertain.NodeID) [2]uint64 {
	if len(ids) == 0 {
		return [2]uint64{}
	}
	sorted := make([]uncertain.NodeID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	const fnvOffset, fnvPrime = 0xcbf29ce484222325, 0x100000001b3
	h1 := uint64(fnvOffset) ^ salt
	h2 := mix64(salt + 0x9e3779b97f4a7c15)
	n := 0
	var prev uncertain.NodeID
	for i, id := range sorted {
		if i > 0 && id == prev {
			continue
		}
		prev = id
		n++
		h1 = (h1 ^ uint64(uint32(id))) * fnvPrime
		h2 = mix64(h2 + uint64(uint32(id))*0xbf58476d1ce4e5b9)
	}
	h1 = (h1 ^ uint64(n)) * fnvPrime
	h2 = mix64(h2 ^ uint64(n))
	if h1 == 0 && h2 == 0 {
		h1 = 1 // reserve all-zero for the empty set
	}
	return [2]uint64{h1, h2}
}

// fingerprintEvidence folds an evidence set into one 128-bit fingerprint,
// with include and exclude salted apart (including edge 3 is different
// evidence from excluding it).
func fingerprintEvidence(ev Evidence) [2]uint64 {
	if ev.Empty() {
		return [2]uint64{}
	}
	inc := fingerprintIDs(0x1c1de, ev.Include)
	exc := fingerprintIDs(0xe8c1de, ev.Exclude)
	return [2]uint64{mix64(inc[0] ^ (exc[0] * 0x94d049bb133111eb)), mix64(inc[1] + exc[1])}
}

// validateEvidence rejects malformed evidence up front, before any
// fingerprinting or cache work. The contract itself (id ranges, no edge
// both included and excluded) lives in one place, uncertain.CheckCondition
// — the same rules Condition and Overlay enforce.
func validateEvidence(g *uncertain.Graph, ev Evidence) error {
	if ev.Empty() {
		return nil
	}
	if err := uncertain.CheckCondition(g, ev.Include, ev.Exclude); err != nil {
		return fmt.Errorf("engine: evidence: %w", err)
	}
	return nil
}

package engine

import (
	"context"
)

// The degradation ladder. Under overload the engine sheds precision
// before it sheds requests: an admitted request may be answered with a
// widened accuracy target, a reduced sample budget, a cheaper estimator,
// or — at the floor — the analytic-bounds midpoint, which is always
// available for a plain s-t query and always inside the true interval.
// Requests are rejected only when the admission queue itself overflows.
// Degraded answers are flagged (Response.Degraded; the bounds floor also
// reports StopReason "degraded"), so clients can distinguish a cheap
// answer from the one they asked for.

// degradeKFloor is the smallest sample budget degradation will cut to —
// below a few dozen samples a Monte Carlo answer is noise, not a cheaper
// estimate — and degradeEpsCap the widest accuracy target it will
// request.
const (
	degradeKFloor = 64
	degradeEpsCap = 0.5
)

// degradeRequest applies ladder level lvl to q, returning the request to
// actually execute and whether it differs from what was asked. Level 1
// widens ε (doubled, capped) or halves K (floored); level 2 additionally
// sends routed plain queries to the cheapest candidate instead of the
// adaptive choice; level 3 answers plain evidence-free queries from the
// analytic bounds alone and treats every other kind at level 2. The
// request stays valid by construction: budgets only shrink, ε stays
// inside [0, 1), and the forced estimators are always configured.
func (e *Engine) degradeRequest(q Request, lvl int) (Request, bool) {
	if lvl <= 0 {
		return q, false
	}
	if lvl >= 3 && q.plainReliability() && q.Estimator != BoundsName {
		q.Estimator = BoundsName
		return q, true
	}
	changed := false
	if q.Eps > 0 {
		if w := q.Eps * 2; w < degradeEpsCap {
			q.Eps, changed = w, true
		} else if q.Eps < degradeEpsCap {
			q.Eps, changed = degradeEpsCap, true
		}
	} else if q.K > degradeKFloor {
		k := q.K / 2
		if k < degradeKFloor {
			k = degradeKFloor
		}
		q.K, changed = k, true
	}
	if lvl >= 2 && q.plainReliability() && q.Estimator == "" {
		// pick with width 0 is the router's latency-first choice: the
		// measured-cheapest candidate (or the latency prior's best before
		// measurements exist).
		q.Estimator, changed = e.router.pick(0), true
	}
	return q, changed
}

// degradeAll applies ladder level lvl to every query (degradeRequest),
// returning what to execute and which queries it changed; at level 0 that
// is queries itself, unchanged.
func (e *Engine) degradeAll(queries []Request, lvl int) (exec []Request, degradedAt []bool) {
	if lvl <= 0 {
		return queries, nil
	}
	exec = make([]Request, len(queries))
	degradedAt = make([]bool, len(queries))
	for i, q := range queries {
		exec[i], degradedAt[i] = e.degradeRequest(q, lvl)
	}
	return exec, degradedAt
}

// costEstimate predicts a request's admission cost in samples, the unit
// the MaxInflightSamples budget is denominated in. The default is the
// request's sample budget; for routed plain queries the router's bounds
// memo sharpens it — a memoized pinched pair costs nothing (the bounds
// answer it), and an easy pair under an anytime target converges well
// under its cap. The memo is only peeked: estimating cost must not pay
// the bounds walk the estimate exists to predict.
func (e *Engine) costEstimate(st *epochState, q Request) int64 {
	cost := int64(q.K)
	if cost < 1 {
		cost = 1
	}
	if !q.plainReliability() {
		return cost
	}
	if q.Estimator == BoundsName {
		return 1
	}
	if q.Estimator == "" {
		if lo, hi, ok := e.router.peekBounds(st.srcTag(q.S), q.S, q.T); ok {
			switch width := hi - lo; {
			case width <= e.router.cutoff:
				cost = 1
			case q.anytime() && width <= e.router.hardWidth:
				if cost > 1 {
					cost /= 2
				}
			}
		}
	}
	return cost
}

// admissionKey derives the deterministic key the admission controller's
// fault-injection points (MemPressure, ClockSkew) are consulted with, so
// a seeded injector pressures the same requests on every run.
func (e *Engine) admissionKey(q Request) uint64 {
	return querySeed(e.cfg.Seed, "admission", q.S, q.T, q.K)
}

// admit runs the valid queries of one call (those whose results carry no
// validation error) through admission control as one request, costed at
// the sum of their costs — a thousand-query batch must compete against
// single queries at its true weight, not as one unit — and keyed by a
// fold of their admission keys, so batch-level injection decisions are as
// deterministic as per-query ones. The fold starts from mix64(0) = 0, so
// a lone query is admitted under its own key. See admission.acquire.
func (e *Engine) admit(ctx context.Context, st *epochState, queries []Query, results []Response) (release func(), level int, err error) {
	if e.adm == nil {
		return func() {}, 0, nil
	}
	var cost int64
	var key uint64
	for i, q := range queries {
		if results[i].Err == nil {
			cost += e.costEstimate(st, q)
			key = mix64(key) ^ e.admissionKey(q)
		}
	}
	return e.adm.acquire(ctx, cost, key)
}

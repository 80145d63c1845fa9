package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"relcomp/internal/uncertain"
)

// This file defines the anytime estimation contract layered over the
// fixed-K Estimator interface: a Sampler is an open estimation session for
// one (s, t) query that accumulates samples incrementally, and
// AdaptiveEstimate is the sequential stopping layer that advances a
// sampler in growing chunks until an accuracy target, the paper's
// dispersion criterion, a deadline, or the sample budget ends the run.
//
// For every sampling estimator the fixed-K Estimate is one Advance(k) of
// the estimator's own session, and its EstimateAll one Advance(k) of its
// source session, so whatever K a stopping rule picks is the fixed-K
// computation by construction. Chunked runs must equal it: Advance(a);
// Advance(b) accumulates exactly the state Advance(a+b) does, because the
// sample streams are either sequential (MC, LP+) or counter-based per
// world (PackMC, BFS Sharing's pre-sampled index). Those sessions are the
// two shared types below: hitSampler counts the worlds that reach t, and
// countSampler counts, per node, the worlds that reach it from a source.
// The recursive estimators (RHH, RSS) cannot accumulate — their
// per-sample allocation depends on the total budget — so they satisfy the
// contract through a restart adapter that re-runs the full estimate at
// each grown budget; driven by AdaptiveEstimate's geometric chunk
// schedule, the total restart work stays within a constant factor of the
// final budget.

// SampleSnapshot is the running state of a Sampler.
type SampleSnapshot struct {
	// Estimate is the running reliability estimate over the N samples
	// drawn so far (0 when N == 0).
	Estimate float64
	// N is the number of samples consumed so far.
	N int
	// HalfWidth is a 95% confidence-interval half-width for Estimate,
	// computed from the Agresti–Coull adjusted proportion so it is
	// positive (and shrinking) even while the running estimate sits at
	// exactly 0 or 1. For the recursive estimators it is the MC binomial
	// half-width, a conservative bound (their variance is provably lower).
	HalfWidth float64
	// Variance estimates Var(Estimate), the variance of the running mean
	// — the quantity the paper's dispersion criterion ρ = V/R divides by
	// the reliability.
	Variance float64
	// Cap bounds the total samples the sampler can ever draw (the index
	// width for BFS Sharing); 0 means unbounded.
	Cap int
}

// Sampler is an incremental estimation session for one (s, t) query.
// Samplers borrow their estimator's scratch state and random stream, so at
// most one sampler per estimator instance may be open at a time, and the
// estimator must not be used directly while the session is open.
type Sampler interface {
	// Advance draws dk further samples, accumulating hit and variance
	// state. It panics if dk is negative or exceeds the sampler's Cap.
	Advance(dk int)
	// Snapshot returns the running estimate, sample count, and confidence
	// half-width. It does not draw samples.
	Snapshot() SampleSnapshot
}

// IncrementalEstimator is implemented by estimators that can open an
// incremental sampling session. Every estimator in the package satisfies
// it: a sampling method's Estimate(s, t, k) is one Advance(k) of the
// session its Sampler opens, and chunked Advances must equal it; RHH and
// RSS adapt via restart-doubling.
type IncrementalEstimator interface {
	Estimator
	Sampler(s, t uncertain.NodeID) Sampler
}

// NewSampler opens an incremental session for (s, t) on est: the
// estimator's native sampler when it implements IncrementalEstimator, a
// restart-doubling adapter otherwise. Estimate(s, t, k) is one Advance(k)
// of this session — for the sampling estimators by construction, for the
// restart adapter because its first Advance is one Estimate call — and
// chunked Advances must equal it.
func NewSampler(est Estimator, s, t uncertain.NodeID) Sampler {
	if ie, ok := est.(IncrementalEstimator); ok {
		return ie.Sampler(s, t)
	}
	return newRestartSampler(est, s, t)
}

// normalZ is the two-sided 95% normal quantile used for HalfWidth.
const normalZ = 1.959963984540054

// binomialSnapshot builds the snapshot shared by the Bernoulli-mean
// samplers: estimate hits/n, Agresti–Coull half-width, binomial variance
// of the mean.
func binomialSnapshot(hits, n, capN int) SampleSnapshot {
	snap := SampleSnapshot{N: n, Cap: capN}
	if n == 0 {
		snap.HalfWidth = 1
		return snap
	}
	p := float64(hits) / float64(n)
	snap.Estimate = p
	// Agresti–Coull: add z²/2 pseudo-successes and failures so the width
	// is informative at p ∈ {0, 1} and converges to the Wald width.
	nAdj := float64(n) + normalZ*normalZ
	pAdj := (float64(hits) + normalZ*normalZ/2) / nAdj
	snap.HalfWidth = normalZ * math.Sqrt(pAdj*(1-pAdj)/nAdj)
	snap.Variance = p * (1 - p) / float64(n)
	return snap
}

// estimateSnapshot is binomialSnapshot for samplers that track a running
// estimate rather than a hit count (the restart adapter).
func estimateSnapshot(estimate float64, n int) SampleSnapshot {
	snap := binomialSnapshot(int(estimate*float64(n)+0.5), n, 0)
	snap.Estimate = estimate // keep the exact value, not the rounded ratio
	return snap
}

// trivialSampler serves the degenerate queries (s == t, provably
// disconnected splices) whose answer needs no samples: the estimate is
// fixed and the half-width zero, so any stopping rule fires immediately.
type trivialSampler struct {
	estimate float64
	n        int
}

func (t *trivialSampler) Advance(dk int) {
	checkAdvance(dk, t.n, 0)
	t.n += dk
}

func (t *trivialSampler) Snapshot() SampleSnapshot {
	return SampleSnapshot{Estimate: t.estimate, N: t.n}
}

// checkAdvance validates an Advance request against the samples drawn so
// far and the sampler's cap (0 = unbounded).
func checkAdvance(dk, n, capN int) {
	if dk < 0 {
		panic(fmt.Sprintf("core: Advance(%d) with negative chunk", dk))
	}
	if capN > 0 && n+dk > capN {
		panic(fmt.Sprintf("core: Advance(%d) past sampler cap %d (have %d)", dk, capN, n))
	}
}

// hitSampler is the session of every sampling estimator whose answer is a
// hit fraction. draw(lo, hi) runs worlds [lo, hi) of the session's stream
// and returns in how many t was reached: the sequential-stream estimators
// draw the next hi-lo samples, the counter-based ones the worlds named.
// capN bounds the worlds the stream holds (0 = unbounded).
type hitSampler struct {
	draw    func(lo, hi int) int
	capN    int
	n, hits int
}

func (x *hitSampler) Advance(dk int) {
	checkAdvance(dk, x.n, x.capN)
	if dk == 0 {
		return
	}
	x.hits += x.draw(x.n, x.n+dk)
	x.n += dk
}

func (x *hitSampler) Snapshot() SampleSnapshot { return binomialSnapshot(x.hits, x.n, x.capN) }

// drawEach returns in how many of n sequential draws once reports a hit:
// the draw of the estimators whose stream is one sample after another.
func drawEach(n int, once func() bool) int {
	hits := 0
	for i := 0; i < n; i++ {
		if once() {
			hits++
		}
	}
	return hits
}

// estimateOnce is the fixed-k answer of a session: one Advance(k).
func estimateOnce(sp Sampler, k int) float64 {
	sp.Advance(k)
	return sp.Snapshot().Estimate
}

// countSampler is the source session of the estimators whose one
// traversal answers every target (PackMC's sweeps, BFS Sharing's shared
// BFS). sweep(lo, hi, counts) runs worlds [lo, hi) from s and adds to
// counts[v] in how many of them v was reached; counts is scratch the
// estimator owns, valid until its next query. capN is as in hitSampler.
type countSampler struct {
	s      uncertain.NodeID
	sweep  func(lo, hi int, counts []int64)
	counts []int64
	capN   int
	n      int
}

func (c *countSampler) Advance(dk int) {
	checkAdvance(dk, c.n, c.capN)
	if dk == 0 {
		return
	}
	c.sweep(c.n, c.n+dk, c.counts)
	c.n += dk
}

func (c *countSampler) N() int   { return c.n }
func (c *countSampler) Cap() int { return c.capN }

func (c *countSampler) SnapshotOf(t uncertain.NodeID) SampleSnapshot {
	if t == c.s {
		return SampleSnapshot{Estimate: 1, N: c.n, Cap: c.capN}
	}
	return binomialSnapshot(int(c.counts[t]), c.n, c.capN)
}

// estimateAll is the fixed-k answer of a source session: one Advance(k),
// then every node's estimate — SnapshotOf(v).Estimate for each v, without
// the per-node interval arithmetic. Unreached nodes report 0, the source 1.
func estimateAll(ms MultiSampler, k int) []float64 {
	c := ms.(*countSampler)
	c.Advance(k)
	out := make([]float64, len(c.counts))
	for v, h := range c.counts {
		if h > 0 {
			out[v] = float64(h) / float64(c.n)
		}
	}
	out[c.s] = 1
	return out
}

// restartSampler adapts a fixed-K estimator to the Sampler contract by
// re-running the full estimate at each accumulated budget. The underlying
// random stream advances naturally across restarts, so successive runs are
// independent and the whole session is deterministic given the estimator's
// seed; a fresh session advanced once by k is exactly one Estimate(s,t,k)
// call. Driven by a geometric (doubling) chunk schedule the total work is
// at most a constant factor of one full-budget run.
type restartSampler struct {
	est      Estimator
	s, t     uncertain.NodeID
	n        int
	estimate float64
}

func newRestartSampler(est Estimator, s, t uncertain.NodeID) Sampler {
	return &restartSampler{est: est, s: s, t: t}
}

func (r *restartSampler) Advance(dk int) {
	checkAdvance(dk, r.n, 0)
	if dk == 0 {
		return
	}
	r.n += dk
	r.estimate = r.est.Estimate(r.s, r.t, r.n)
}

func (r *restartSampler) Snapshot() SampleSnapshot {
	return estimateSnapshot(r.estimate, r.n)
}

// StopReason reports which rule terminated an adaptive estimate.
type StopReason string

const (
	// StopEps: the relative confidence half-width reached the ε target.
	StopEps StopReason = "eps"
	// StopRho: the paper's dispersion criterion ρ = V/R dropped below the
	// configured threshold (§3.1.4, Eq. 11–13).
	StopRho StopReason = "rho"
	// StopDeadline: the wall-clock deadline expired.
	StopDeadline StopReason = "deadline"
	// StopMaxK: the sample budget (or the sampler's cap) was exhausted.
	StopMaxK StopReason = "max_k"
	// StopCanceled: the context was canceled.
	StopCanceled StopReason = "canceled"
	// StopSeparated: a top-k query's ranking converged — the k-th and
	// (k+1)-th candidates' confidence intervals no longer overlap, so more
	// samples cannot change the answer set (see AdaptiveTopK).
	StopSeparated StopReason = "separated"
	// StopDegraded: the serving layer answered below the requested
	// fidelity under overload — at the floor of the degradation ladder the
	// answer is the analytic-bounds midpoint with no sampling at all. The
	// core stopping rules never emit this reason; it exists here so the
	// vocabulary of termination reports stays in one place.
	StopDegraded StopReason = "degraded"
)

// AdaptiveOptions configures AdaptiveEstimate.
type AdaptiveOptions struct {
	// Eps is the target relative half-width: sampling stops once
	// HalfWidth <= Eps·Estimate (or <= Eps·AbsFloor for estimates near
	// zero, so provably-unreachable pairs terminate too). <= 0 disables
	// the accuracy rule.
	Eps float64
	// AbsFloor is the estimate floor for the relative-ε comparison;
	// <= 0 means 0.01.
	AbsFloor float64
	// Rho stops sampling when Variance/Estimate < Rho, the paper's
	// per-query analogue of the workload dispersion criterion. <= 0
	// disables the rule.
	Rho float64
	// MaxK is the hard sample budget; it must be positive. The sampler's
	// own Cap further bounds it.
	MaxK int
	// MinK is the number of samples drawn before the ε and ρ rules
	// engage, guarding against lucky early streaks; <= 0 means 128.
	MinK int
	// Chunk is the first chunk size; <= 0 means 256. When Prior is set
	// the chunk may start larger (see Prior).
	Chunk int
	// Growth is the geometric chunk growth factor; values <= 1 mean 2.
	Growth float64
	// Prior, when in (0, 1), is an a-priori reliability estimate (e.g.
	// the midpoint of the analytic bounds). With Eps it predicts the
	// sample count the accuracy target will need and fast-forwards the
	// chunk schedule there, skipping convergence checks that cannot
	// succeed yet.
	Prior float64
	// Deadline, when non-zero, bounds the wall clock: no new chunk starts
	// after it, and chunk sizes are trimmed to the projected remaining
	// time once a per-sample cost estimate exists.
	Deadline time.Time
	// Ctx, when non-nil, cancels the run between chunks.
	Ctx context.Context
}

// AdaptiveResult reports an adaptive estimate and its termination.
type AdaptiveResult struct {
	Estimate  float64
	Samples   int        // samples actually drawn
	HalfWidth float64    // achieved 95% half-width
	Reason    StopReason // rule that ended the run
}

// epsSatisfied reports whether snap meets the relative half-width target.
func epsSatisfied(snap SampleSnapshot, eps, absFloor float64) bool {
	return snap.HalfWidth <= eps*math.Max(snap.Estimate, absFloor)
}

// rhoSatisfied reports whether snap meets the dispersion criterion.
func rhoSatisfied(snap SampleSnapshot, rho float64) bool {
	if snap.Estimate <= 0 {
		// The paper guards ρ = V/R at R = 0: zero reliability with zero
		// variance counts as converged.
		return snap.Variance == 0
	}
	return snap.Variance/snap.Estimate < rho
}

// priorChunk predicts from a prior reliability p the sample count at which
// the relative-ε rule can first fire (solving z·sqrt(p(1-p)/n) = ε·p) and
// returns it as a starting chunk, so the schedule does not crawl through
// doomed convergence checks.
func priorChunk(p, eps float64) int {
	if eps <= 0 || p <= 0 || p >= 1 {
		return 0
	}
	n := normalZ * normalZ * (1 - p) / (eps * eps * p)
	if n > 1<<30 {
		return 1 << 30
	}
	return int(n)
}

// AdaptiveEstimate advances sp in geometrically growing chunks until the
// relative half-width reaches opts.Eps, the dispersion criterion fires,
// the deadline expires, the context is canceled, or the sample budget
// opts.MaxK (or the sampler's cap) is exhausted — whichever happens first.
//
// With every stopping rule disabled (Eps <= 0, Rho <= 0, no deadline, no
// context) the full budget is drawn in a single Advance, so the result is
// bit-identical to the fixed-K path for every sampler — including the
// restart adapter, which then runs exactly one full-budget estimate.
func AdaptiveEstimate(sp Sampler, opts AdaptiveOptions) AdaptiveResult {
	if opts.MaxK <= 0 {
		panic(fmt.Sprintf("core: AdaptiveEstimate budget %d must be positive", opts.MaxK))
	}
	maxK := opts.MaxK
	snap := sp.Snapshot()
	if snap.Cap > 0 && snap.Cap < maxK {
		maxK = snap.Cap
	}
	finish := func(reason StopReason) AdaptiveResult {
		snap = sp.Snapshot()
		return AdaptiveResult{
			Estimate:  snap.Estimate,
			Samples:   snap.N,
			HalfWidth: snap.HalfWidth,
			Reason:    reason,
		}
	}
	hasDeadline := !opts.Deadline.IsZero()
	if opts.Eps <= 0 && opts.Rho <= 0 && !hasDeadline && opts.Ctx == nil {
		// No stopping rule: one full-budget draw, the fixed-K fast path.
		sp.Advance(maxK - snap.N)
		return finish(StopMaxK)
	}

	absFloor := opts.AbsFloor
	if absFloor <= 0 {
		absFloor = 0.01
	}
	minK := opts.MinK
	if minK <= 0 {
		minK = 128
	}
	chunk := opts.Chunk
	if chunk <= 0 {
		chunk = 256
	}
	if pc := priorChunk(opts.Prior, opts.Eps); pc > chunk {
		chunk = pc
	}
	growth := opts.Growth
	if growth <= 1 {
		growth = 2
	}

	//lint:allow detrand deadline pacing: Deadline stopping is documented wall-clock-dependent and its results are never cached
	start := time.Now()
	for {
		snap = sp.Snapshot()
		// MinK guards against lucky early streaks, but a zero half-width
		// is exact (trivial sessions: s == t, provably disconnected
		// splices) — no amount of further sampling can change it, so the
		// rules engage immediately and no phantom samples are drawn.
		if snap.N >= minK || snap.HalfWidth == 0 {
			if opts.Eps > 0 && epsSatisfied(snap, opts.Eps, absFloor) {
				return finish(StopEps)
			}
			if opts.Rho > 0 && rhoSatisfied(snap, opts.Rho) {
				return finish(StopRho)
			}
		}
		if snap.N >= maxK {
			return finish(StopMaxK)
		}
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return finish(StopCanceled)
		}
		dk := chunk
		if dk > maxK-snap.N {
			dk = maxK - snap.N
		}
		if hasDeadline {
			remaining := time.Until(opts.Deadline) //lint:allow detrand deadline stopping is documented wall-clock-dependent
			if remaining <= 0 {
				return finish(StopDeadline)
			}
			// Trim the chunk to the samples the remaining time should
			// afford, once elapsed work gives a per-sample cost estimate.
			//lint:allow detrand deadline chunk trimming is documented wall-clock-dependent
			if elapsed := time.Since(start); elapsed > 0 && snap.N > 0 {
				perSample := elapsed / time.Duration(snap.N)
				if perSample > 0 {
					if affordable := int(remaining / perSample); affordable < dk {
						dk = affordable
					}
				}
			}
			if dk < 1 {
				dk = 1
			}
		}
		sp.Advance(dk)
		chunk = growChunk(chunk, growth)
	}
}

// growChunk applies the geometric schedule with an overflow-safe ceiling.
func growChunk(chunk int, growth float64) int {
	const maxChunk = 1 << 30
	next := float64(chunk) * growth
	if next > maxChunk {
		return maxChunk
	}
	return int(next)
}

// MultiSampler is an incremental estimation session answering every target
// of one source at once — the anytime form of SourceEstimator, implemented
// by the estimators whose one traversal computes all targets (BFS
// Sharing's queriers, PackMC). Advance extends the shared traversal; the
// per-target snapshots all share the same sample count.
type MultiSampler interface {
	// Advance draws dk further samples for every target.
	Advance(dk int)
	// N returns the samples drawn so far.
	N() int
	// Cap bounds the total samples (0 = unbounded).
	Cap() int
	// SnapshotOf returns the running state for one target.
	SnapshotOf(t uncertain.NodeID) SampleSnapshot
}

// SourceSampler is implemented by estimators that can open a MultiSampler.
type SourceSampler interface {
	SourceEstimator
	AllSampler(s uncertain.NodeID) MultiSampler
}

// AdaptiveEstimateAll is the lockstep batch form of AdaptiveEstimate: it
// advances ms chunk by chunk and retires each target as its own stopping
// rule fires, ending the shared traversal as soon as every target is
// retired (or the budget, deadline, or context ends it for all). A retired
// target's estimate and sample count are frozen at retirement. The result
// slice is aligned with targets.
//
// With every stopping rule disabled the whole group is drawn in a single
// Advance, bit-identical to one EstimateAll call at the full budget.
func AdaptiveEstimateAll(ms MultiSampler, targets []uncertain.NodeID, opts AdaptiveOptions) []AdaptiveResult {
	if opts.MaxK <= 0 {
		panic(fmt.Sprintf("core: AdaptiveEstimateAll budget %d must be positive", opts.MaxK))
	}
	maxK := opts.MaxK
	if c := ms.Cap(); c > 0 && c < maxK {
		maxK = c
	}
	results := make([]AdaptiveResult, len(targets))
	retired := make([]bool, len(targets))
	retire := func(i int, reason StopReason) {
		snap := ms.SnapshotOf(targets[i])
		results[i] = AdaptiveResult{
			Estimate:  snap.Estimate,
			Samples:   snap.N,
			HalfWidth: snap.HalfWidth,
			Reason:    reason,
		}
		retired[i] = true
	}
	retireAll := func(reason StopReason) []AdaptiveResult {
		for i := range targets {
			if !retired[i] {
				retire(i, reason)
			}
		}
		return results
	}
	hasDeadline := !opts.Deadline.IsZero()
	if opts.Eps <= 0 && opts.Rho <= 0 && !hasDeadline && opts.Ctx == nil {
		ms.Advance(maxK - ms.N())
		return retireAll(StopMaxK)
	}

	absFloor := opts.AbsFloor
	if absFloor <= 0 {
		absFloor = 0.01
	}
	minK := opts.MinK
	if minK <= 0 {
		minK = 128
	}
	chunk := opts.Chunk
	if chunk <= 0 {
		chunk = 256
	}
	if pc := priorChunk(opts.Prior, opts.Eps); pc > chunk {
		chunk = pc
	}
	growth := opts.Growth
	if growth <= 1 {
		growth = 2
	}

	//lint:allow detrand deadline pacing: Deadline stopping is documented wall-clock-dependent and its results are never cached
	start := time.Now()
	live := len(targets)
	for {
		engaged := ms.N() >= minK
		for i := range targets {
			if retired[i] {
				continue
			}
			snap := ms.SnapshotOf(targets[i])
			// As in AdaptiveEstimate, a zero half-width is exact and
			// bypasses the MinK guard (e.g. a target equal to the source).
			if !engaged && snap.HalfWidth != 0 {
				continue
			}
			switch {
			case opts.Eps > 0 && epsSatisfied(snap, opts.Eps, absFloor):
				retire(i, StopEps)
				live--
			case opts.Rho > 0 && rhoSatisfied(snap, opts.Rho):
				retire(i, StopRho)
				live--
			}
		}
		if live == 0 {
			return results
		}
		n := ms.N()
		if n >= maxK {
			return retireAll(StopMaxK)
		}
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return retireAll(StopCanceled)
		}
		dk := chunk
		if dk > maxK-n {
			dk = maxK - n
		}
		if hasDeadline {
			remaining := time.Until(opts.Deadline) //lint:allow detrand deadline stopping is documented wall-clock-dependent
			if remaining <= 0 {
				return retireAll(StopDeadline)
			}
			//lint:allow detrand deadline chunk trimming is documented wall-clock-dependent
			if elapsed := time.Since(start); elapsed > 0 && n > 0 {
				perSample := elapsed / time.Duration(n)
				if perSample > 0 {
					if affordable := int(remaining / perSample); affordable < dk {
						dk = affordable
					}
				}
			}
			if dk < 1 {
				dk = 1
			}
		}
		ms.Advance(dk)
		chunk = growChunk(chunk, growth)
	}
}

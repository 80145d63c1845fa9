package core

import (
	"math"
	"math/bits"

	"relcomp/internal/bitvec"
	"relcomp/internal/uncertain"
)

// TwoPhaseName is the name the two-phase pack plan answers under.
const TwoPhaseName = "PackMC2P"

// The two-phase plan's fixed shape. Its pilot is k/twoPhasePilotDiv lanes
// of pack 0, at least twoPhaseMinPilot and at most 64; phase 1 runs at
// most twoPhaseMult·k worlds for twoPhaseLevels levels of the
// bidirectional search. Budgets of fewer than twoPhaseMinPacks packs run
// the plain pack.
const (
	twoPhaseLevels   = 3
	twoPhaseMult     = 4
	twoPhasePilotDiv = 8
	twoPhaseMinPilot = 16
	twoPhaseMinPacks = 2
	// twoPhaseGain is the share of the plain pack's predicted work the
	// plan's must stay under; nearer break-even the plain pack runs.
	twoPhaseGain = 0.9
	// packWork is a pack's fixed cost in the cost model's unit, adjacency
	// entries scanned: starting both sides and the per-pack bookkeeping.
	packWork = 16
)

// twoPhaseRun describes how one two-phase estimate was computed.
type twoPhaseRun struct {
	// FellBack is set when the plan predicted no gain and ran the plain
	// pack: the estimate then equals Estimate's from the same state.
	FellBack bool
	// Worlds is k1, the phase-1 sample; Met and Open count its worlds met
	// within twoPhaseLevels levels and still open after them.
	Worlds, Met, Open int
	// B counts the open worlds run to completion, and Hits those among
	// them that reached t.
	B, Hits int
}

// TwoPhasePackMC is the routed two-phase plan as an Estimator over a
// PackMC instance, for callers that borrow it by name.
type TwoPhasePackMC struct{ pm *PackMC }

// NewTwoPhasePackMC wraps pm; the plan draws from pm's stream.
func NewTwoPhasePackMC(pm *PackMC) *TwoPhasePackMC { return &TwoPhasePackMC{pm: pm} }

// Name implements Estimator.
func (x *TwoPhasePackMC) Name() string { return TwoPhaseName }

// Estimate implements Estimator.
func (x *TwoPhasePackMC) Estimate(s, t uncertain.NodeID, k int) float64 {
	return x.pm.EstimateTwoPhase(s, t, k)
}

// Reseed implements Seeder.
func (x *TwoPhasePackMC) Reseed(seed uint64) { x.pm.Reseed(seed) }

// EstimateTwoPhase estimates R(s, t) by Neyman's double sampling for
// stratification, sized to be about as accurate as Estimate at the same
// k, and falls back to Estimate where that is predicted not to pay.
//
// A pilot of n = k/8 worlds (within [16, 64]), the low lanes of pack 0,
// runs to completion, as Estimate runs them. Its outcomes price the plan
// and size it, and its h hits enter the answer as h/k whatever is
// decided, the share they have in Estimate's. Everything else the answer
// counts comes from other lanes, whose worlds are independent of the
// pilot's. So given the pilot, either branch is an unbiased estimate of
// R, and so is the answer, though the choice between them reads the
// pilot's outcomes.
//
// The plan runs k1 worlds of packs 1, 2, ... only twoPhaseLevels levels
// of the bidirectional search. That sorts every world into a stratum: met
// (t reached), dead (a side ran dry), or open, with Met and Open worlds
// in the first and last. It then runs open worlds to completion, in lane
// order, while they, sample B, are fewer than the pilot's hit rate among
// open worlds says they must be to match the variance of the k' = k − n
// worlds the plain pack would draw instead (completionSize). That choice
// reads phase-1 counts and the pilot alone, never a completion outcome it
// counts, and lanes are independent worlds, so B's hit rate estimates the
// open stratum's with a ratio estimator's O(1/B) bias. The plan's part of
// the answer is R' = (Met + Open·Hits/B)/k1, and the answer (h + k'·R')/k.
//
// A pack's cost grows about linearly with its live lanes, so the pilot's
// work, in adjacency entries scanned, prices a phase-1 world and a
// finished open world. k1 is Neyman's allocation between the two
// (planSize). Unless the plan's predicted work stays under twoPhaseGain
// of the plain pack's, the rest of a plain k-sample run follows, and the
// result is exactly Estimate's from the same state.
//
// The result is a pure function of the instance's (seed, round) state and
// (s, t, k).
func (pm *PackMC) EstimateTwoPhase(s, t uncertain.NodeID, k int) float64 {
	r, _ := pm.twoPhase(s, t, k)
	return r
}

// twoPhase is EstimateTwoPhase, also reporting how the estimate was
// computed.
func (pm *PackMC) twoPhase(s, t uncertain.NodeID, k int) (float64, twoPhaseRun) {
	mustValidQuery(pm.g, s, t, k)
	if s == t {
		return 1, twoPhaseRun{FellBack: true}
	}
	packs := numPacks(k)
	if packs < twoPhaseMinPacks {
		return pm.Estimate(s, t, k), twoPhaseRun{FellBack: true}
	}
	pm.round++
	base := mix(pm.seed, pm.round, 0)
	n := min(max(k/twoPhasePilotDiv, twoPhaseMinPilot), 64)
	pilot := bitvec.LowBits(n) // pack 0 is whole, since k > 64
	var shallowWork, deepWork int
	m, o := pm.shallowPack(base, 0, s, t, pilot, &shallowWork)
	late := pm.finishPack(base, 0, o, &deepWork)
	hits := bits.OnesCount64(m | late)
	met, open := bits.OnesCount64(m), bits.OnesCount64(o)
	rest := k - n
	// The pilot's hit rate among open worlds sizes B, pulled a quarter
	// world toward 1/2 so that a pilot that saw no hit (or no miss) does
	// not size B as if p were 0 (or 1).
	p := (float64(bits.OnesCount64(late)) + 0.25) / (float64(open) + 0.5)
	// Work per phase-1 world, per finished open world (at least one entry)
	// and per plain world.
	shallow := float64(shallowWork)/float64(n) + packWork/64.0
	deep := max(float64(deepWork)/float64(max(open, 1)), 1)
	plain := shallow + float64(deepWork)/float64(n)
	phase1, work := planSize(met, open, n, rest, numPacks(twoPhaseMult*k), p, shallow, deep)
	if work > twoPhaseGain*float64(rest)*plain {
		hits += bits.OnesCount64(pm.runPack(base, 0, s, t, ^pilot))
		hits += pm.sampleLanes(base, s, t, 64, k)
		return float64(hits) / float64(k), twoPhaseRun{FellBack: true}
	}
	run := twoPhaseRun{Worlds: 64 * phase1}
	for j := 1; j <= phase1; j++ {
		m, o := pm.shallowPack(base, uint64(j), s, t, ^uint64(0), nil)
		run.Met += bits.OnesCount64(m)
		run.Open += bits.OnesCount64(o)
		need := completionSize(run.Met, run.Open, 64*j, rest, run.Worlds, p)
		if short := math.Ceil(need) - float64(run.B); o != 0 && short > 0 {
			sel := lowLanes(o, int(min(short, 64)))
			run.B += bits.OnesCount64(sel)
			run.Hits += bits.OnesCount64(pm.finishPack(base, uint64(j), sel, nil))
		}
	}
	// The first pack with an open world always finishes one, so B is empty
	// only when Open is.
	r := float64(run.Met)
	if run.B > 0 {
		r += float64(run.Open) * float64(run.Hits) / float64(run.B)
	}
	return (float64(hits) + float64(rest)*r/float64(run.Worlds)) / float64(k), run
}

// lowLanes returns the c lowest set lanes of x, or x if it has fewer.
func lowLanes(x uint64, c int) uint64 {
	rest := x
	for ; c > 0 && rest != 0; c-- {
		rest &= rest - 1
	}
	return x &^ rest
}

// shallowPack starts pack j on the active lanes and runs its first
// twoPhaseLevels levels; it returns the lanes met and the lanes still
// open. The pack stays in flight for finishPack. A non-nil work
// accumulates levelWork.
func (pm *PackMC) shallowPack(base, pack uint64, s, t uncertain.NodeID, active uint64, work *int) (met, open uint64) {
	open = active
	pm.startPack(s, t, open)
	for l := 0; l < twoPhaseLevels && open != 0; l++ {
		if work != nil {
			*work += pm.levelWork()
		}
		m, live := pm.stepPack(base, pack, open)
		met |= m
		open = live
	}
	return met, open
}

// shares returns the met and open shares of n phase-1 worlds, met and
// open of them met and open, with one pseudo-world in each of the three
// strata: a pack that saw no dead world would otherwise put R at its met
// and open share, near 1, and make the plain pack look far more exact
// than it is.
func shares(met, open, n int) (wm, wu float64) {
	return float64(met+1) / float64(n+3), float64(open+1) / float64(n+3)
}

// planSize returns the phase-1 size, in packs, of the cheapest plan that
// meets the plain pack's variance at k worlds, and its predicted work,
// for a pilot of n worlds, met and open of them met and open, whose open
// worlds hit at rate p. A phase-1 world costs shallow and a finished open
// world deep. With the variance terms v1 = R(1−R) − wu·q and v2 = wu²·q of
// completionSize, Neyman's allocation puts the least work at
//
//	k1 = k · (v1 + √(v1·v2·deep/shallow)) / (R(1−R)),
//
// rounded up to packs, more than k worlds so that some B meets the target
// whatever the counts, and at most maxPacks packs; B is then
// completionSize's.
func planSize(met, open, n, k, maxPacks int, p, shallow, deep float64) (packs int, work float64) {
	wm, wu := shares(met, open, n)
	r, q := wm+wu*p, p*(1-p)
	v1, v2 := r*(1-r)-wu*q, wu*wu*q
	k1 := min(float64(k)*(v1+math.Sqrt(v1*v2*deep/shallow))/(r*(1-r)), float64(64*maxPacks))
	packs = min(max(numPacks(int(math.Ceil(k1))), k/64+1), maxPacks)
	return packs, float64(64*packs)*shallow + completionSize(met, open, n, k, 64*packs, p)*deep
}

// completionSize returns the number of open worlds B must finish so that,
// at open-stratum hit rate p in (0, 1), the double-sampling variance of n
// phase-1 worlds, met and open of them met and open, is at most the plain
// pack's at k worlds, given k1 phase-1 worlds in all. That variance is
//
//	(R(1−R) − wu·q)/k1 + wu²·q/B,  q = p(1−p),
//
// for phase-1 shares wm and wu of met and open worlds and R = wm + wu·p;
// the plain pack's is R(1−R)/k. So B must reach wu²·q over
//
//	budget = R(1−R)·(1/k − 1/k1) + wu·q/k1,
//
// which is positive since k1 > k.
func completionSize(met, open, n, k, k1 int, p float64) float64 {
	wm, wu := shares(met, open, n)
	r, q := wm+wu*p, p*(1-p)
	budget := r*(1-r)*(1/float64(k)-1/float64(k1)) + wu*q/float64(k1)
	return math.Max(1, wu*wu*q/budget)
}

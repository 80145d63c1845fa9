package engine

import (
	"math"
	"sync"
	"time"

	"relcomp/internal/bounds"
	"relcomp/internal/uncertain"
)

// router picks an estimator for queries that do not name one. The paper
// finds no single winner (§7, Table 17): the right estimator depends on
// the graph, so the router follows measured cost. It computes the
// polynomial-time path/cut bounds first; when they pinch the reliability
// into a narrow interval, sampling is pointless (the paper's "theory"
// branch) and the router answers with the interval midpoint. Every other
// query, whatever its bounds width, goes to the measured-cheapest
// candidate; pick says how candidates on few samples are explored.
//
// Latency is a running mean over an estimator's first latencyHorizon
// computed queries and an EWMA with that horizon after them, fed by the
// engine after every non-cached query: a few costly pairs cannot lift the
// cheapest estimator above a stale one, yet a lasting change in cost
// (after mutations, or on graphs where lazy propagation degenerates)
// moves traffic within a few horizons.
//
// Routed answers report k samples but not all draw exactly k: RSS
// overdraws (5.7x at k=200 on DBLP_0.2, hence its lower error at equal k),
// and the two-phase pack plan (PackMC2P) draws a pilot, up to 4k shallow
// phase-1 worlds and the open worlds it finishes, sized to be about as
// accurate as the plain pack at k. So routing by cost gives up no
// accuracy the budget paid for.
//
// The router also plans pack sweeps by measured cost: the width each runs
// at (sweepWidth), and whether a fixed-k group sweeps at all (searchEach).
type router struct {
	cutoff     float64  // bounds width below which no sampling is needed
	candidates []string // estimator names the router may pick, engine order

	// memo caches the bounds per (s, t, source-epoch tag): the bounds are
	// static properties of one epoch's graph, and computing them searches
	// the neighbourhoods of both terminals (boundsSecs has the measured
	// total), so repeated adaptive queries (including bounds-pinched ones)
	// need not pay that every time. An entry may hold a decision-grade
	// lower bound (bounds.Decide), which is all a fixed-k route needs; a
	// caller that reads lo itself upgrades the entry to full bounds in
	// place. The caller passes the graph per call (it changes across
	// mutation epochs) and the source's invalidation tag, which keys
	// entries so a mutation reachable from s orphans s's memoized bounds
	// while every other source keeps hitting. There is no in-flight dedup
	// — concurrent first queries for one (s, t) may race to fill the entry
	// (benign: the searches return identical values, and a decision-grade
	// entry that lands after a full one only costs a later upgrade).
	memo *lruCache[memoBounds]

	mu         sync.Mutex
	latency    map[string]latencyMean // per estimator; absent = no sample yet
	routed     map[string]uint64      // decisions per estimator
	pinched    uint64                 // bounds short-circuits
	boundsRuns uint64                 // bounds computations (memo misses)
	boundsSecs float64                // wall-clock seconds those took in total

	// sweeps holds the measured cost per drawn sample of a pack source
	// sweep, keyed by width (sweepWidths), and search that of one fixed-k
	// pack s-t search; sweepWidth and searchEach read them.
	sweeps map[int]latencyMean
	search latencyMean
}

// sweepWidths are the widths a pack source sweep runs at
// (core.PackMC.SweepAt), in the order unmeasured widths are tried.
var sweepWidths = [...]int{64, 256}

// memoBounds is one bounds-memo entry. full reports that lo is the full
// lower bound, not one whose rounds stopped once the pinch was ruled out.
type memoBounds struct {
	lo, hi float64
	full   bool
}

// latencyMean is one estimator's latency estimate in seconds per query
// over its last n (at most latencyHorizon) computed queries.
type latencyMean struct {
	secs float64
	n    int
}

const (
	defaultBoundsCutoff = 0.02
	latencyHorizon      = 256
	exploreWeight       = 4
)

func newRouter(candidates []string, cutoff float64, memoSize int) *router {
	if cutoff <= 0 {
		cutoff = defaultBoundsCutoff
	}
	return &router{
		cutoff:     cutoff,
		candidates: candidates,
		memo:       newLRUCache[memoBounds](memoSize),
		latency:    make(map[string]latencyMean, len(candidates)),
		routed:     make(map[string]uint64, len(candidates)),
		sweeps:     make(map[int]latencyMean, len(sweepWidths)),
	}
}

// decision is the router's verdict for one query.
type decision struct {
	estimator string  // chosen estimator; "" when pinched
	pinched   bool    // bounds answered the query outright
	value     float64 // midpoint estimate when pinched
	// width and prior carry the bounds interval forward: the adaptive
	// stopping layer seeds its chunk schedule from the midpoint prior and
	// classifies the query hard/easy from the width.
	width float64
	prior float64
}

// boundsFor returns the memoized analytic bounds for (s, t) on g, keyed
// by the source's invalidation tag. With full unset the lower bound may
// be decision-grade: below the full one on a pair that does not pinch,
// which leaves the pinch verdict unchanged. A decision-grade entry asked
// for full bounds is recomputed and replaced.
func (r *router) boundsFor(g *uncertain.Graph, tag uint64, s, t uncertain.NodeID, full bool) (lo, hi float64) {
	memoKey := cacheKey{s: s, t: t, epoch: tag}
	if b, ok := r.memo.get(memoKey); ok && (b.full || !full) {
		return b.lo, b.hi
	}
	start := time.Now()
	var err error
	if full {
		lo, hi, err = bounds.Bounds(g, s, t)
	} else {
		lo, hi, full, err = bounds.Decide(g, s, t, r.cutoff)
	}
	elapsed := time.Since(start).Seconds()
	r.mu.Lock()
	r.boundsRuns++
	r.boundsSecs += elapsed
	r.mu.Unlock()
	if err != nil {
		// Out-of-range queries are caught by engine validation before
		// routing; a bounds failure here means a degenerate graph, so
		// fall through to the measured-cheapest choice with a maximally
		// wide interval.
		lo, hi, full = 0, 1, true
	}
	r.memo.put(memoKey, memoBounds{lo: lo, hi: hi, full: full})
	return lo, hi
}

// peekBounds returns the memoized bounds for (s, t) at the source tag
// without computing, filling, or counting anything — the admission
// controller's cost estimator consults it on every request, and a cost
// estimate must neither pay the bounds walk nor skew the memo stats. ok
// is false when the pair has not been routed yet (at this tag). The
// lower bound may be decision-grade (boundsFor), so the width may be
// wider than the full bounds' on a pair that does not pinch.
func (r *router) peekBounds(tag uint64, s, t uncertain.NodeID) (lo, hi float64, ok bool) {
	b, ok := r.memo.peek(cacheKey{s: s, t: t, epoch: tag})
	if !ok {
		return 0, 1, false
	}
	return b.lo, b.hi, true
}

// midpoint answers a query from the full bounds alone, regardless of
// width — the explicitly requested "bounds" pseudo-estimator.
func (r *router) midpoint(g *uncertain.Graph, tag uint64, s, t uncertain.NodeID) float64 {
	lo, hi := r.boundsFor(g, tag, s, t, true)
	r.notePinched()
	return (lo + hi) / 2
}

// route decides how to answer an s-t query with no named estimator. A
// fixed-k query needs only the pinch verdict, so decision-grade bounds
// serve it; routeFull is route for queries that read the decision's prior
// and width.
func (r *router) route(g *uncertain.Graph, tag uint64, s, t uncertain.NodeID) decision {
	return r.decide(r.boundsFor(g, tag, s, t, false))
}

// routeFull is route on full bounds.
func (r *router) routeFull(g *uncertain.Graph, tag uint64, s, t uncertain.NodeID) decision {
	return r.decide(r.boundsFor(g, tag, s, t, true))
}

// decide answers from the bounds (lo, hi) when they pinch, and otherwise
// picks the candidate to sample with.
func (r *router) decide(lo, hi float64) decision {
	width := hi - lo
	if width <= r.cutoff {
		r.notePinched()
		return decision{pinched: true, value: (lo + hi) / 2, width: width, prior: (lo + hi) / 2}
	}
	name := r.pick()
	r.noteRouted(name)
	return decision{estimator: name, width: width, prior: (lo + hi) / 2}
}

// memoStats snapshots the bounds memo counters, so operators can size the
// LRU from engine stats.
func (r *router) memoStats() CacheStats { return r.memo.stats() }

// pick chooses the first unmeasured candidate in engine order, or, once
// every candidate is measured, the one with the lowest optimistic
// latency: its mean over n samples divided by 1 + exploreWeight/√n.
// Exploring before trusting measurements keeps the first estimator to get
// a sample from winning every comparison forever, however slow it turns
// out to be. The discount keeps one unlucky sample from shutting a cheap
// candidate out: one pair can cost 60x another on the same graph, so a
// mean of few samples says little, and a candidate is retried while its
// samples are few enough that it could still be the cheapest. A candidate
// 4x dearer than the best is dropped after one sample, one 1.2x dearer
// after some 64, and among candidates measured latencyHorizon times the
// lowest mean wins.
func (r *router) pick() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	best, _, _ := lowest(r.candidates, r.latency, true, func(lat latencyMean) float64 {
		return lat.secs / (1 + exploreWeight/math.Sqrt(float64(lat.n)))
	})
	return best
}

// cheapest returns the candidate with the lowest measured latency, or the
// first candidate while none is measured. The degradation ladder pins it:
// an overloaded engine must not spend queries exploring.
func (r *router) cheapest() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if best, _, ok := lowest(r.candidates, r.latency, false, meanSecs); ok {
		return best
	}
	return r.candidates[0]
}

// lowest returns the key whose row in rows scores lowest, and that score,
// skipping keys with no row; ok is false while no key has one. With
// explore set, the first key with no row is returned outright, so that
// every key gets measured before any comparison.
func lowest[K comparable](keys []K, rows map[K]latencyMean, explore bool, score func(latencyMean) float64) (best K, bestScore float64, ok bool) {
	for _, k := range keys {
		lat, measured := rows[k]
		if !measured {
			if explore {
				return k, 0, false
			}
			continue
		}
		if s := score(lat); !ok || s < bestScore {
			best, bestScore, ok = k, s, true
		}
	}
	return best, bestScore, ok
}

// meanSecs scores a row by its mean cost.
func meanSecs(lat latencyMean) float64 { return lat.secs }

// notePinched counts one more bounds-answered query.
func (r *router) notePinched() {
	r.mu.Lock()
	r.pinched++
	r.mu.Unlock()
}

// noteRouted counts one more routing decision for name.
func (r *router) noteRouted(name string) {
	r.mu.Lock()
	r.routed[name]++
	r.mu.Unlock()
}

// observe feeds one measured query latency into name's estimate: a running
// mean until latencyHorizon samples, an EWMA of weight 1/latencyHorizon
// after that.
func (r *router) observe(name string, seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latency[name] = r.latency[name].add(seconds)
}

// add returns the mean with one more sample folded in: a running mean
// until latencyHorizon samples, an EWMA of weight 1/latencyHorizon after.
func (lat latencyMean) add(seconds float64) latencyMean {
	if lat.n < latencyHorizon {
		lat.n++
	}
	lat.secs += (seconds - lat.secs) / float64(lat.n)
	return lat
}

// observeSweep feeds one pack source sweep's cost per drawn sample into
// its width's row.
func (r *router) observeSweep(lanes int, secsPerSample float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweeps[lanes] = r.sweeps[lanes].add(secsPerSample)
}

// observeSearch feeds one fixed-k pack s-t search's cost per sample into
// the search row.
func (r *router) observeSearch(secsPerSample float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.search = r.search.add(secsPerSample)
}

// sweepWidth returns the width the next pack source sweep runs at: the
// first width with no measurement, and once both are measured the one
// with the lower cost per sample. The widths return identical values,
// so the choice moves only the cost.
func (r *router) sweepWidth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, _, _ := lowest(sweepWidths[:], r.sweeps, true, meanSecs)
	return w
}

// searchMargin is how much cheaper n measured searches must be than the
// sweep before a group searches. A searching group becomes n per-query
// units, each queued, reseeded and cached on its own, which the search
// row (the estimator call alone) does not see. The margin also keeps a
// near-tie from being settled by noise: each plan's row is renewed only
// while that plan runs, so without it the first measurements of a run
// decided whether all its later groups swept or searched.
const searchMargin = 1.25

// searchEach reports whether a fixed-k pack group of n distinct targets
// is clearly cheaper answered as n s-t searches than as one source sweep
// at the cheaper width (by searchMargin). Costs are per sample, so
// measurements at one budget carry over to another. Until every width has
// a sweep measured groups sweep; then the next group searches if no
// search is measured yet, so that every plan gets measured. After that
// the sweep figures are renewed by the groups that still sweep — the
// larger ones — which keeps them fresh where the choice turns.
func (r *router) searchEach(n int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, sweep, swept := lowest(sweepWidths[:], r.sweeps, true, meanSecs)
	if !swept || r.search.n == 0 {
		return swept
	}
	return float64(n)*r.search.secs*searchMargin < sweep
}

// snapshot returns the per-estimator routing counts, latency estimates in
// seconds, the number of bounds short-circuits, and the count and total
// seconds of bounds computations.
func (r *router) snapshot() (routed map[string]uint64, latency map[string]float64, pinched, boundsRuns uint64, boundsSecs float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	routed = make(map[string]uint64, len(r.routed))
	for k, v := range r.routed { //lint:allow maprange commutative map-to-map copy for a stats snapshot
		routed[k] = v
	}
	latency = make(map[string]float64, len(r.latency))
	for k, v := range r.latency { //lint:allow maprange commutative map-to-map copy for a stats snapshot
		latency[k] = v.secs
	}
	return routed, latency, r.pinched, r.boundsRuns, r.boundsSecs
}

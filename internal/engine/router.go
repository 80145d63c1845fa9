package engine

import (
	"sync"
	"time"

	"relcomp/internal/bounds"
	"relcomp/internal/uncertain"
)

// router picks an estimator for queries that do not name one, following
// the paper's selection guidance (§7, Table 17):
//
//   - The polynomial-time path/cut bounds are computed first. When they
//     pinch the reliability into a narrow interval, sampling is pointless
//     (the paper's "theory" branch answers the query outright) and the
//     router short-circuits with the interval midpoint.
//   - Hard queries — wide bounds mean high estimator variance — go to the
//     most accurate method available. The paper ranks RSS first on
//     accuracy, then RHH, with MC the robust baseline.
//   - Easy-but-unbounded queries go to whichever candidate currently has
//     the lowest observed latency. Candidates without a sample yet are
//     explored first, ordered by the paper's online-time ranking
//     (ProbTree and LP+ fastest per query, BFSSharing fast but K-bound,
//     MC the slowest of the recommended set), so every estimator gets
//     measured before EWMAs decide.
//
// Online latency is tracked per estimator as an exponentially weighted
// moving average fed by the engine after every non-cached query, so the
// routing adapts to the actual graph: e.g. on dense graphs where lazy
// propagation degenerates, LP+'s EWMA grows and traffic shifts away from
// it without configuration.
type router struct {
	cutoff     float64  // bounds width below which no sampling is needed
	hardWidth  float64  // bounds width above which accuracy dominates
	candidates []string // estimator names the router may pick, engine order

	// memo caches the (lo, hi) bounds per (s, t, source-epoch tag): the
	// bounds are static properties of one epoch's graph, and computing
	// them searches the neighbourhoods of both terminals (a fraction of a
	// millisecond; boundsSecs has the measured total), so repeated
	// adaptive queries (including bounds-pinched ones) need not pay that
	// every time. The caller passes the graph per call (it changes across
	// mutation epochs) and the source's invalidation tag, which keys
	// entries so a mutation reachable from s orphans s's memoized bounds
	// while every other source keeps hitting. There is no in-flight dedup
	// — concurrent first queries for one (s, t) may race to fill the entry
	// (benign: the searches return identical values).
	memo *lruCache[[2]float64]

	mu         sync.Mutex
	latency    map[string]float64 // EWMA seconds per query; 0 = no sample yet
	routed     map[string]uint64  // decisions per estimator
	pinched    uint64             // bounds short-circuits
	boundsRuns uint64             // bounds computations (memo misses)
	boundsSecs float64            // wall-clock seconds those took in total
}

// accuracyRank orders estimators by the paper's measured relative error at
// convergence (lower is better). Unlisted estimators rank last.
var accuracyRank = map[string]int{
	"RSS":            0,
	"RHH":            1,
	"MC":             2,
	"PackMC":         2, // statistically identical to MC
	"PackMC256":      2, // bit-identical to PackMC
	"PackMC512":      2, // bit-identical to PackMC
	"ParallelMC":     2, // statistically identical to MC
	"ParallelPackMC": 2, // bit-identical to PackMC
	"ProbTree":       3,
	"BFSSharing":     4,
	"LP+":            5,
}

// latencyPrior orders estimators by per-query online time (the paper's
// measurements, with the word-packed extensions slotted in: PackMC does
// MC's work ~64 worlds per traversal, and the wide kernels amortize that
// traversal over 256/512 worlds, so the widest sits first among the
// samplers); it only breaks ties until real measurements arrive.
var latencyPrior = map[string]int{
	"ProbTree":       0,
	"PackMC512":      1,
	"PackMC256":      2,
	"PackMC":         3,
	"LP+":            4,
	"BFSSharing":     5,
	"RSS":            6,
	"RHH":            7,
	"ParallelPackMC": 8,
	"ParallelMC":     9,
	"MC":             10,
}

const (
	defaultBoundsCutoff = 0.02
	defaultHardWidth    = 0.25
	latencyEWMAWeight   = 0.2
)

func newRouter(candidates []string, cutoff, hardWidth float64, memoSize int) *router {
	if cutoff <= 0 {
		cutoff = defaultBoundsCutoff
	}
	if hardWidth <= 0 {
		hardWidth = defaultHardWidth
	}
	return &router{
		cutoff:     cutoff,
		hardWidth:  hardWidth,
		candidates: candidates,
		memo:       newLRUCache[[2]float64](memoSize),
		latency:    make(map[string]float64, len(candidates)),
		routed:     make(map[string]uint64, len(candidates)),
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

// hard reports whether the decision's bounds interval marks the query as
// hard (high estimator variance expected).
func (d decision) hard(hardWidth float64) bool { return d.width > hardWidth }

// boundsFor returns the memoized analytic bounds for (s, t) on g, keyed
// by the source's invalidation tag.
func (r *router) boundsFor(g *uncertain.Graph, tag uint64, s, t uncertain.NodeID) (lo, hi float64) {
	memoKey := cacheKey{s: s, t: t, epoch: tag}
	if b, ok := r.memo.get(memoKey); ok {
		return b[0], b[1]
	}
	start := time.Now()
	lo, hi, err := bounds.Bounds(g, s, t)
	elapsed := time.Since(start).Seconds()
	r.mu.Lock()
	r.boundsRuns++
	r.boundsSecs += elapsed
	r.mu.Unlock()
	if err != nil {
		// Out-of-range queries are caught by engine validation before
		// routing; a bounds failure here means a degenerate graph, so
		// fall through to the accuracy-ranked choice with a maximally
		// wide interval.
		lo, hi = 0, 1
	}
	r.memo.put(memoKey, [2]float64{lo, hi})
	return lo, hi
}

// peekBounds returns the memoized bounds for (s, t) at the source tag
// without computing, filling, or counting anything — the admission
// controller's cost estimator consults it on every request, and a cost
// estimate must neither pay the bounds walk nor skew the memo stats. ok
// is false when the pair has not been routed yet (at this tag).
func (r *router) peekBounds(tag uint64, s, t uncertain.NodeID) (lo, hi float64, ok bool) {
	b, ok := r.memo.peek(cacheKey{s: s, t: t, epoch: tag})
	if !ok {
		return 0, 1, false
	}
	return b[0], b[1], true
}

// midpoint answers a query from the bounds alone, regardless of width —
// the explicitly requested "bounds" pseudo-estimator.
func (r *router) midpoint(g *uncertain.Graph, tag uint64, s, t uncertain.NodeID) float64 {
	lo, hi := r.boundsFor(g, tag, s, t)
	r.notePinched()
	return (lo + hi) / 2
}

// route decides how to answer an s-t query with no named estimator.
func (r *router) route(g *uncertain.Graph, tag uint64, s, t uncertain.NodeID) decision {
	lo, hi := r.boundsFor(g, tag, s, t)
	width := hi - lo
	if width <= r.cutoff {
		r.notePinched()
		return decision{pinched: true, value: (lo + hi) / 2, width: width, prior: (lo + hi) / 2}
	}
	name := r.pick(width)
	r.noteRouted(name)
	return decision{estimator: name, width: width, prior: (lo + hi) / 2}
}

// memoStats snapshots the bounds memo counters, so operators can size the
// LRU from engine stats.
func (r *router) memoStats() CacheStats { return r.memo.stats() }

// pick chooses among the candidates: accuracy-first for hard queries,
// measured-latency-first otherwise.
func (r *router) pick(width float64) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	best := r.candidates[0]
	for _, name := range r.candidates[1:] {
		if r.better(name, best, width) {
			best = name
		}
	}
	return best
}

// better reports whether candidate a should be preferred over b for a
// query whose bounds width is width. Candidates with no latency sample
// yet are explored before measured EWMAs are trusted — otherwise the
// first estimator to get a sample would win every comparison forever,
// however slow it turns out to be, and traffic could never shift away.
func (r *router) better(a, b string, width float64) bool {
	if width > r.hardWidth {
		return rank(accuracyRank, a) < rank(accuracyRank, b)
	}
	la, lb := r.latency[a], r.latency[b]
	switch {
	case la > 0 && lb > 0:
		return la < lb
	case la == 0 && lb == 0:
		return rank(latencyPrior, a) < rank(latencyPrior, b)
	case la == 0:
		return true // explore a before trusting b's measurement
	default:
		return false
	}
}

func rank(table map[string]int, name string) int {
	if v, ok := table[name]; ok {
		return v
	}
	return len(table)
}

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

// observe feeds one measured query latency into the EWMA for name.
func (r *router) observe(name string, seconds float64) {
	if seconds <= 0 {
		// Coarse clocks can measure a fast query as exactly 0, which the
		// EWMA map reserves for "no sample yet"; floor so a measured
		// estimator never masquerades as unexplored.
		seconds = 1e-9
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev := r.latency[name]; prev > 0 {
		r.latency[name] = (1-latencyEWMAWeight)*prev + latencyEWMAWeight*seconds
	} else {
		r.latency[name] = seconds
	}
}

// snapshot returns the per-estimator routing counts, EWMA latencies, the
// number of bounds short-circuits, and the count and total seconds of
// bounds computations.
func (r *router) snapshot() (routed map[string]uint64, latency map[string]float64, pinched, boundsRuns uint64, boundsSecs float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	routed = make(map[string]uint64, len(r.routed))
	for k, v := range r.routed { //lint:allow maprange commutative map-to-map copy for a stats snapshot
		routed[k] = v
	}
	latency = make(map[string]float64, len(r.latency))
	for k, v := range r.latency { //lint:allow maprange commutative map-to-map copy for a stats snapshot
		latency[k] = v
	}
	return routed, latency, r.pinched, r.boundsRuns, r.boundsSecs
}

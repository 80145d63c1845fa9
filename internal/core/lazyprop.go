package core

import (
	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// LazyProp is the lazy propagation sampling estimator of Li et al. (SIGMOD
// 2017), Algorithm 6 of the paper. Instead of probing every frontier edge
// in every sample, each visited node keeps a min-heap of its out-neighbors
// keyed by the round (expansion count) at which the connecting edge next
// exists; the round gaps are geometric variates with the edge probability,
// so an edge with probability p is probed only ~p·K times across K samples
// instead of K times.
//
// The original paper re-schedules a just-probed neighbor at X' + c_v, which
// the comparison paper proves wrong (Example 1): every re-scheduled edge
// fires one round earlier than its geometric gap dictates, inflating the
// estimated reliability — the overestimation that dominates in practice
// and that Fig. 5 of the paper demonstrates. The corrected LP+ schedules
// at X' + c_v + 1. Both variants are provided: NewLazyProp builds LP+ and
// NewLazyPropOriginal builds the biased LP for reproducing Fig. 5.
type LazyProp struct {
	g         *uncertain.Graph
	rng       *rng.Source
	corrected bool

	init    []bool
	counter []int64     // c_v: number of completed expansions of v
	heaps   [][]lpEntry // per-node min-heap on round
	touched []uncertain.NodeID

	seen   *epochSet
	stack  []uncertain.NodeID
	repush []lpEntry
}

// lpEntry schedules out-neighbor slot (index into OutNeighbors(v)) to be
// probed at the given expansion round of v.
type lpEntry struct {
	round int64
	slot  int32
}

// NewLazyProp returns the corrected LP+ estimator.
func NewLazyProp(g *uncertain.Graph, seed uint64) *LazyProp {
	return newLazyProp(g, seed, true)
}

// NewLazyPropOriginal returns the original LP estimator with the
// scheduling bug of [30] left intact, for reproducing the bias shown in
// Fig. 5 of the paper. Do not use it for real queries.
func NewLazyPropOriginal(g *uncertain.Graph, seed uint64) *LazyProp {
	return newLazyProp(g, seed, false)
}

func newLazyProp(g *uncertain.Graph, seed uint64, corrected bool) *LazyProp {
	n := g.NumNodes()
	return &LazyProp{
		g:         g,
		rng:       rng.New(seed),
		corrected: corrected,
		init:      make([]bool, n),
		counter:   make([]int64, n),
		heaps:     make([][]lpEntry, n),
		seen:      newEpochSet(n),
	}
}

// Name implements Estimator.
func (l *LazyProp) Name() string {
	if l.corrected {
		return "LP+"
	}
	return "LP"
}

// Corrected reports whether this instance uses the fixed (LP+) scheduling.
func (l *LazyProp) Corrected() bool { return l.corrected }

// Reseed implements Seeder.
func (l *LazyProp) Reseed(seed uint64) { l.rng.Seed(seed) }

// Estimate implements Estimator: one Advance(k) of the query's session.
// Node heaps and counters persist across the k samples of one call (that
// is the whole point of the scheme) but are fresh between calls.
func (l *LazyProp) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(l.g, s, t, k)
	return estimateOnce(l.Sampler(s, t), k)
}

// resetSchedule clears the persistent per-node schedules of the previous
// query when a session opens.
func (l *LazyProp) resetSchedule() {
	for _, v := range l.touched {
		l.init[v] = false
		l.counter[v] = 0
		l.heaps[v] = l.heaps[v][:0]
	}
	l.touched = l.touched[:0]
}

func (l *LazyProp) sampleOnce(s, t uncertain.NodeID) bool {
	g := l.g
	l.seen.nextRound()
	l.seen.visit(s)
	h := l.stack[:0]
	h = append(h, s)
	found := false
	for len(h) > 0 {
		v := h[len(h)-1]
		h = h[:len(h)-1]

		if !l.init[v] {
			l.initNode(v)
		}
		cv := l.counter[v]
		heap := l.heaps[v]
		tos := g.OutNeighbors(v)
		ps := g.OutProbs(v)
		// Entries re-scheduled during this expansion are pushed only after
		// the drain finishes, exactly as in [30]: a re-drawn entry is not
		// re-examined within the same possible world. The drain fires every
		// entry that is due or overdue (round <= c_v). For LP+ both details
		// are no-ops — its re-scheduled rounds are always >= c_v+1, so
		// entries are popped exactly when their round comes up. For the
		// original LP they reproduce the bias of the paper's Example 1: an
		// X' >= 1 entry lands at c_v+X' instead of c_v+1+X' and fires one
		// round early (overestimation, the dominant error), and an X'=0
		// entry fires again at the very next expansion.
		repush := l.repush[:0]
		for len(heap) > 0 && heap[0].round <= cv {
			slot := heap[0].slot
			nbr := tos[slot]
			heapPop(&heap)
			// Re-schedule the neighbor: after X' further failures it
			// exists again. The corrected schedule counts from the NEXT
			// round (c_v + 1); the original counts from c_v, which is
			// the bug demonstrated in the paper's Example 1.
			x := int64(l.rng.Geometric(ps[slot]))
			base := cv
			if l.corrected {
				base = cv + 1
			}
			repush = append(repush, lpEntry{round: x + base, slot: slot})

			if !found && !l.seen.visited(nbr) {
				if nbr == t {
					found = true
					// Keep draining entries scheduled for this round so
					// the persistent schedule stays consistent, but stop
					// expanding new nodes.
					continue
				}
				l.seen.visit(nbr)
				h = append(h, nbr)
			}
		}
		for _, e := range repush {
			heapPush(&heap, e)
		}
		l.repush = repush
		l.heaps[v] = heap
		l.counter[v] = cv + 1
		if found {
			break
		}
	}
	l.stack = h
	return found
}

// initNode lazily creates v's schedule: every out-neighbor gets an initial
// geometric round.
func (l *LazyProp) initNode(v uncertain.NodeID) {
	ps := l.g.OutProbs(v)
	heap := l.heaps[v][:0]
	for slot, p := range ps {
		x := int64(l.rng.Geometric(p))
		heap = append(heap, lpEntry{round: x, slot: int32(slot)})
	}
	heapify(heap)
	l.heaps[v] = heap
	l.counter[v] = 0
	l.init[v] = true
	l.touched = append(l.touched, v)
}

// Sampler implements IncrementalEstimator. A session resets the persistent
// schedule once at open and each Advance continues drawing samples against
// the live heaps, so chunked advancement is bit-identical to one Advance
// with the summed budget (the schedule persisting across the samples of a
// session is the whole point of lazy propagation).
func (l *LazyProp) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(l.g, s, t, 1)
	if s == t {
		return &trivialSampler{estimate: 1}
	}
	l.resetSchedule()
	return &hitSampler{draw: func(lo, hi int) int {
		return drawEach(hi-lo, func() bool { return l.sampleOnce(s, t) })
	}}
}

var _ IncrementalEstimator = (*LazyProp)(nil)

// MemoryBytes implements MemoryReporter: LP adds a counter per node and a
// geometric-schedule heap per visited node's neighbors.
func (l *LazyProp) MemoryBytes() int64 {
	m := int64(len(l.init)) + int64(len(l.counter))*8
	for _, h := range l.heaps {
		m += int64(cap(h)) * 12
	}
	m += l.seen.bytes() + int64(cap(l.stack)+cap(l.touched))*4
	return m
}

// Minimal slice-backed binary min-heap on lpEntry.round. Inlined rather
// than using container/heap to keep the per-probe cost at a few
// nanoseconds.

func heapify(h []lpEntry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func heapPush(h *[]lpEntry, e lpEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].round <= s[i].round {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func heapPop(h *[]lpEntry) lpEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	if len(s) > 1 {
		siftDown(s, 0)
	}
	return top
}

func siftDown(h []lpEntry, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].round < h[smallest].round {
			smallest = l
		}
		if r < n && h[r].round < h[smallest].round {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

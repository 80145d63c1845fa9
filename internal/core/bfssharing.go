package core

import (
	"fmt"
	"math/bits"

	"relcomp/internal/arena"
	"relcomp/internal/bitvec"
	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// BFS Sharing is the index-based estimator of Zhu et al. (ICDM 2015),
// Algorithms 2–3 of the paper. Offline it samples L possible worlds and
// stores, per edge, an L-bit vector whose i-th bit says whether the edge
// exists in world i. Online, an s-t query runs a single BFS over the
// compact structure, carrying per-node L-bit reachability vectors and
// performing the cascading updates of Algorithm 3; the estimate is the
// fraction of set bits in the target's vector.
//
// As the paper's complexity correction establishes, the online time is
// O(K(m+n)) — NOT independent of K — because each node and edge can be
// revisited up to K times by cascading updates, and no early termination is
// possible.
//
// The implementation splits the estimator along the paper's offline/online
// boundary: BFSIndex is the offline product (the edge bit-vector arena,
// built once and read-only afterwards), and BFSQuerier is a lightweight
// online handle (node vectors, visited set, worklists) over an index. Any
// number of queriers may share one index from concurrent goroutines, which
// is what lets a serving layer keep index memory O(1) in its worker count;
// each individual querier serves one goroutine at a time. BFSSharing
// bundles a privately owned index with one querier, preserving the
// original single-instance API (including resampling) for the harness and
// the convergence sweeps.

// BFSIndex is the offline BFS Sharing index: per edge, the first `width`
// bits record the edge's existence in `width` independently pre-sampled
// possible worlds (the paper uses a safe bound L = 1500 since the
// convergence K is not known a priori).
//
// Once built, the index is read-only for queriers and safe to share. The
// resampling methods (Resample, ResamplePrefix, and the lazy tail refresh
// an Estimate above the valid prefix triggers) mutate it and require the
// caller to own the index exclusively — they exist for the convergence
// harness, which charges an index redraw between independent runs, not for
// shared serving.
type BFSIndex struct {
	g *uncertain.Graph

	// Row streams are counter-based: every edge's bit vector is drawn from
	// its own stream seeded by (seed, gen, edge id, range start), so one
	// edge's worlds can be redrawn — after a probability mutation — without
	// touching, or even reading, any other row. gen distinguishes
	// independent full redraws (the convergence harness charges one per
	// run); the engine never resamples, so its indexes stay at gen 0 and an
	// incrementally repaired index is bit-identical to a fresh build over
	// the mutated graph.
	seed uint64
	gen  uint64
	row  *rng.Source // reusable stream, reseeded per row while (re)building

	// reseeded marks a Reseed whose redraw has not happened yet: the next
	// Resample keeps gen 0 so Reseed(s)+Resample reproduces NewBFSIndex(s)
	// exactly, as the sequential-stream implementation did.
	reseeded bool

	width    int // L: bits sampled per edge in the index
	valid    int // bits [0, valid) are from the latest draw
	edgeBits *bitvec.Arena

	// frozen marks an index whose words alias a read-only memory mapping
	// (snapshot load): resampling would write through the mapping and
	// fault, so the mutators refuse up front with a clear message.
	frozen bool
}

// NewBFSIndex samples the offline index: bit i of edge e is set with
// probability P(e), independently, for i < width.
func NewBFSIndex(g *uncertain.Graph, seed uint64, width int) *BFSIndex {
	if width <= 0 {
		panic(fmt.Sprintf("core: BFSSharing width %d must be positive", width))
	}
	ix := &BFSIndex{
		g:        g,
		seed:     seed,
		row:      rng.New(0),
		width:    width,
		edgeBits: bitvec.NewArena(g.NumEdges(), width),
	}
	ix.resampleRange(0, width)
	ix.valid = width
	return ix
}

// rowSeed keys edge id's stream for a draw starting at bit lo. The range
// start participates so a lazy tail refresh ([valid, k), see ensureValid)
// and a prefix draw ([0, k)) are independent rather than replays.
func (ix *BFSIndex) rowSeed(id, lo int) uint64 {
	return mix(ix.seed, ix.gen, uint64(uint32(id))<<32|uint64(uint32(lo)))
}

// resampleRange redraws bits [lo, hi) of every edge vector, leaving bits
// outside the range untouched. Sampling delegates to rng.FillMask — the
// same geometric-skip mask generator PackMC uses online — so an edge of
// probability p costs O((hi-lo)·min(p, 1-p)) rather than O(hi-lo) while
// producing exactly independent Bernoulli(p) bits.
func (ix *BFSIndex) resampleRange(lo, hi int) {
	if ix.frozen {
		panic("core: BFSSharing index loaded from a read-only snapshot mapping is immutable; rebuild with NewBFSIndex to resample")
	}
	g := ix.g
	for id := 0; id < g.NumEdges(); id++ {
		ix.row.Seed(ix.rowSeed(id, lo))
		ix.row.FillMask(ix.edgeBits.Vec(id), lo, hi, g.Edge(uncertain.EdgeID(id)).P)
	}
}

// repairRow redraws one edge's full row from its counter-based stream —
// exactly the bits a from-scratch build at the current (seed, gen) would
// give it.
func (ix *BFSIndex) repairRow(id int) {
	ix.row.Seed(ix.rowSeed(id, 0))
	ix.row.FillMask(ix.edgeBits.Vec(id), 0, ix.width, ix.g.Edge(uncertain.EdgeID(id)).P)
}

// Repair returns a new index over newG in which only the rows named in
// changed are redrawn; every other row's words are copied verbatim.
// newG must preserve ix's edge ids (it may append new ones past the old
// range — ApplyDeltas guarantees both). The receiver is not modified, so
// Repair works on a frozen snapshot-mapped index too; the result owns its
// words and is never frozen. At gen 0 — the engine's case — the result is
// bit-identical to NewBFSIndex(newG, seed, width).
func (ix *BFSIndex) Repair(newG *uncertain.Graph, changed []uncertain.EdgeID) *BFSIndex {
	oldM, newM := ix.g.NumEdges(), newG.NumEdges()
	if newM < oldM {
		panic("core: BFSSharing repair target graph has fewer edges than the index")
	}
	out := &BFSIndex{
		g:        newG,
		seed:     ix.seed,
		gen:      ix.gen,
		row:      rng.New(0),
		width:    ix.width,
		valid:    ix.valid,
		edgeBits: bitvec.NewArena(newM, ix.width),
	}
	for id := 0; id < oldM; id++ {
		copy(out.edgeBits.Vec(id), ix.edgeBits.Vec(id))
	}
	for id := oldM; id < newM; id++ {
		out.repairRow(id)
	}
	for _, id := range changed {
		if int(id) < oldM {
			out.repairRow(int(id))
		}
	}
	return out
}

// Resample regenerates the whole index. The paper (Table 15) charges this
// per query when successive queries must be independent. Requires
// exclusive ownership of the index.
func (ix *BFSIndex) Resample() {
	ix.nextGen()
	ix.resampleRange(0, ix.width)
	ix.valid = ix.width
}

// nextGen advances to the next independent draw, except immediately after
// a Reseed, whose first redraw is the new seed's canonical gen-0 draw.
func (ix *BFSIndex) nextGen() {
	if ix.reseeded {
		ix.reseeded = false
		return
	}
	ix.gen++
}

// ResamplePrefix regenerates only the first k bits of the index, which is
// all a subsequent Estimate with the same k will read. The convergence
// harness uses this to avoid redrawing the full safe-bound width between
// repeated runs at small K. Bits at or beyond k keep the previous draw;
// the valid prefix shrinks to k, and a later Estimate with a larger budget
// refreshes the missing range before reading it (see ensureValid) so fresh
// and stale worlds are never mixed in one estimate. Requires exclusive
// ownership of the index.
func (ix *BFSIndex) ResamplePrefix(k int) {
	if k > ix.width {
		k = ix.width
	}
	if k < 0 {
		k = 0
	}
	ix.nextGen()
	ix.resampleRange(0, k)
	ix.valid = k
}

// ensureValid extends the valid prefix to cover k bits, redrawing the
// stale range [valid, k) left behind by an earlier ResamplePrefix. The
// refresh mutates the index, so — like ResamplePrefix itself — it only
// ever runs under exclusive ownership: an index that was never
// prefix-resampled is fully valid and this is a no-op.
func (ix *BFSIndex) ensureValid(k int) {
	if k <= ix.valid {
		return
	}
	ix.resampleRange(ix.valid, k)
	ix.valid = k
}

// Width returns the index width L.
func (ix *BFSIndex) Width() int { return ix.width }

// Graph returns the graph the index was built over.
func (ix *BFSIndex) Graph() *uncertain.Graph { return ix.g }

// ValidPrefix returns how many leading bits of every edge vector belong to
// the latest draw. It equals Width unless ResamplePrefix shrank it.
func (ix *BFSIndex) ValidPrefix() int { return ix.valid }

// Bytes returns the size of the index's edge bit-vector arena.
func (ix *BFSIndex) Bytes() int64 { return ix.edgeBits.Bytes() }

// Querier returns a fresh online handle over the index. The handle holds
// only the online scratch (node vectors, visited set, worklists), so it is
// cheap to construct; many handles may share one index, each serving a
// single goroutine.
func (ix *BFSIndex) Querier() *BFSQuerier { return &BFSQuerier{ix: ix} }

// BFSQuerier is the online half of BFS Sharing: per-borrower scratch over
// a shared read-only BFSIndex. It implements Estimator. Not safe for
// concurrent use — one querier per goroutine; the shared index is.
type BFSQuerier struct {
	ix *BFSIndex

	// Online scratch, allocated on first query (the paper counts node
	// vectors as online memory).
	nodeBits *bitvec.Arena
	inSet    []bool
	visited  []uncertain.NodeID // nodes marked in inSet by the last run
	worklist []uncertain.NodeID
	cascadeQ []uncertain.NodeID

	// scratch holds a source session's per-node hit counts; each session
	// Resets it, so they live until the querier's next query.
	scratch arena.Arena
}

// Index returns the shared offline index this querier reads.
func (q *BFSQuerier) Index() *BFSIndex { return q.ix }

// Width returns the index width L.
func (q *BFSQuerier) Width() int { return q.ix.width }

// Name implements Estimator.
func (q *BFSQuerier) Name() string { return "BFSSharing" }

// Estimate implements Estimator: one Advance(k) of the query's session.
// k must not exceed the index width; the query uses the first k
// pre-sampled worlds.
func (q *BFSQuerier) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(q.ix.g, s, t, k)
	q.checkWidth(k)
	// The valid prefix grows to k even when s == t needs no traversal, so
	// later queries redraw the same stale range whichever pair came first.
	q.ix.ensureValid(k)
	return estimateOnce(q.Sampler(s, t), k)
}

// checkWidth panics if a k-sample query exceeds the index width.
func (q *BFSQuerier) checkWidth(k int) {
	if k > q.ix.width {
		panic(fmt.Sprintf("core: BFSSharing asked for %d samples but index width is %d", k, q.ix.width))
	}
}

// runRange runs the shared BFS of Algorithm 2 restricted to the
// pre-sampled worlds [lo, hi), first extending the index's valid prefix
// to hi: afterwards, bits [lo, hi) of every visited node's vector hold
// its reachability in those worlds. Each world's bit column evolves
// independently under the OR-AND updates, so a run over a sub-range
// computes exactly the restriction of a full run — which is what lets the
// incremental samplers advance world ranges chunk by chunk and add up
// counts bit-identically to one full traversal. Bits outside
// [lo, hi) inside the covering words are left meaningless (their source
// bit is never seeded) and must not be read.
func (q *BFSQuerier) runRange(s uncertain.NodeID, lo, hi int) {
	ix := q.ix
	g := ix.g
	ix.ensureValid(hi)
	if q.nodeBits == nil {
		q.nodeBits = bitvec.NewArena(g.NumNodes(), ix.width)
		q.inSet = make([]bool, g.NumNodes())
	}

	// Only the words covering [lo, hi) participate; boundary words are
	// masked at counting time.
	loWord, hiWord := lo>>6, bitvec.WordsFor(hi)
	vec := func(arena *bitvec.Arena, i int) bitvec.Vector {
		return arena.Vec(i)[loWord:hiWord]
	}

	// Reset the node vectors and visited set for the touched nodes of the
	// previous run.
	q.nodeBits.ZeroAll()
	for i := range q.inSet {
		q.inSet[i] = false
	}

	// Is <- all ones over the worlds of the range.
	q.nodeBits.Vec(int(s)).SetRange(lo, hi)
	q.inSet[s] = true
	q.visited = append(q.visited[:0], s)

	// Worklist BFS (Algorithm 2).
	wl := q.worklist[:0]
	wl = append(wl, g.OutNeighbors(s)...)
	for head := 0; head < len(wl); head++ {
		v := wl[head]
		if q.inSet[v] {
			continue
		}
		q.inSet[v] = true
		q.visited = append(q.visited, v)
		iv := vec(q.nodeBits, int(v))

		// Absorb all visited in-neighbors: Iv |= Iin & Ie(in,v).
		ins := g.InNeighbors(v)
		ids := g.InEdgeIDs(v)
		for i, in := range ins {
			if q.inSet[in] {
				bitvec.OrAndInto(iv, vec(q.nodeBits, int(in)), vec(ix.edgeBits, int(ids[i])))
			}
		}

		outs := g.OutNeighbors(v)
		oids := g.OutEdgeIDs(v)
		for i, out := range outs {
			if !q.inSet[out] {
				wl = append(wl, out)
			} else {
				q.cascadeUpdate(v, out, oids[i], loWord, hiWord)
			}
		}
	}
	q.worklist = wl
}

// cascadeUpdate implements Algorithm 3: after Iv gained worlds, push them
// through already-visited out-neighbors until a fixpoint. Termination is
// guaranteed because vectors only ever gain bits.
func (q *BFSQuerier) cascadeUpdate(v, u uncertain.NodeID, e uncertain.EdgeID, loWord, hiWord int) {
	g := q.ix.g
	vec := func(arena *bitvec.Arena, i int) bitvec.Vector {
		return arena.Vec(i)[loWord:hiWord]
	}
	if !bitvec.OrAndInto(vec(q.nodeBits, int(u)), vec(q.nodeBits, int(v)), vec(q.ix.edgeBits, int(e))) {
		return
	}
	queue := q.cascadeQ[:0]
	queue = append(queue, u)
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		iw := vec(q.nodeBits, int(w))
		outs := g.OutNeighbors(w)
		oids := g.OutEdgeIDs(w)
		for i, x := range outs {
			if !q.inSet[x] {
				continue
			}
			if bitvec.OrAndInto(vec(q.nodeBits, int(x)), iw, vec(q.ix.edgeBits, int(oids[i]))) {
				queue = append(queue, x)
			}
		}
	}
	q.cascadeQ = queue
}

// Sampler implements IncrementalEstimator. Each Advance runs the shared
// BFS over the next world range of the pre-sampled index, so Advance(a);
// Advance(b) accumulates exactly the hit count Advance(a+b) counts over
// worlds [0, a+b). The index width caps the session.
func (q *BFSQuerier) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(q.ix.g, s, t, 1)
	if s == t {
		return &trivialSampler{estimate: 1}
	}
	return &hitSampler{capN: q.ix.width, draw: func(lo, hi int) int {
		q.runRange(s, lo, hi)
		return countRange(q.nodeBits.Vec(int(t)), lo, hi)
	}}
}

// AllSampler implements SourceSampler: the anytime form of EstimateAll.
// Each Advance runs one shared traversal over the next world range and
// accumulates every visited node's hit count, so after n total samples
// SnapshotOf(t) matches EstimateAll(s, n)[t] bit for bit. The counts live
// in the querier's arena, valid until its next query.
func (q *BFSQuerier) AllSampler(s uncertain.NodeID) MultiSampler {
	mustValidQuery(q.ix.g, s, s, 1)
	q.scratch.Reset()
	return &countSampler{
		s:      s,
		counts: q.scratch.Int64s(q.ix.g.NumNodes()),
		capN:   q.ix.width,
		sweep: func(lo, hi int, counts []int64) {
			q.runRange(s, lo, hi)
			// Only the nodes the traversal visited can hold worlds;
			// scanning the compact visited list keeps a chunk at
			// O(visited), not O(NumNodes).
			for _, v := range q.visited {
				if v != s {
					counts[v] += int64(countRange(q.nodeBits.Vec(int(v)), lo, hi))
				}
			}
		},
	}
}

var (
	_ IncrementalEstimator = (*BFSQuerier)(nil)
	_ SourceSampler        = (*BFSQuerier)(nil)
)

// countRange counts set bits among bits [lo, hi) of v.
func countRange(v bitvec.Vector, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	if loW == hiW {
		return bits.OnesCount64(v[loW] >> (uint(lo) & 63) & bitvec.LowBits(hi-lo))
	}
	n := bits.OnesCount64(v[loW] >> (uint(lo) & 63))
	for w := loW + 1; w < hiW; w++ {
		n += bits.OnesCount64(v[w])
	}
	return n + bits.OnesCount64(v[hiW]&bitvec.LowBits(hi-hiW*64))
}

// countPrefix counts set bits among the first k bits of v. It calls
// math/bits directly — wrapping each word in a one-element bitvec.Vector
// just to count it would allocate in the per-query hot path.
func countPrefix(v bitvec.Vector, k int) int {
	full := k >> 6
	n := 0
	for i := 0; i < full; i++ {
		n += bits.OnesCount64(v[i])
	}
	if rem := k & 63; rem != 0 {
		n += bits.OnesCount64(v[full] & bitvec.LowBits(rem))
	}
	return n
}

// IndexBytes returns the size of the offline index (edge bit vectors).
func (q *BFSQuerier) IndexBytes() int64 { return q.ix.Bytes() }

// ScratchBytes returns the size of this handle's online state alone: node
// vectors, visited set, BFS worklists, and the source sessions' counts.
// This is the marginal memory of one more querier over a shared index.
func (q *BFSQuerier) ScratchBytes() int64 {
	var m int64
	if q.nodeBits != nil {
		m += q.nodeBits.Bytes()
		m += int64(len(q.inSet))
	}
	m += int64(cap(q.worklist)+cap(q.cascadeQ)+cap(q.visited)) * 4
	return m + q.scratch.MemoryBytes()
}

// MemoryBytes implements MemoryReporter: the loaded index plus the online
// node vectors and BFS state. Handles sharing one index each report the
// full index size; use ScratchBytes for the marginal cost of a handle.
func (q *BFSQuerier) MemoryBytes() int64 { return q.IndexBytes() + q.ScratchBytes() }

// BFSSharing bundles a privately owned BFSIndex with one querier — the
// original single-owner estimator API used by the harness and the
// convergence sweeps. The resampling methods mutate the index, so a
// BFSSharing must not hand its index to other queriers.
type BFSSharing struct {
	BFSQuerier
}

// NewBFSSharing builds the offline index with width pre-sampled possible
// worlds and returns the estimator that owns it. Estimate may then be
// called with any k <= width.
func NewBFSSharing(g *uncertain.Graph, seed uint64, width int) *BFSSharing {
	return &BFSSharing{BFSQuerier{ix: NewBFSIndex(g, seed, width)}}
}

// Resample regenerates the whole index (Table 15 charges this per query
// when successive queries must be independent).
func (b *BFSSharing) Resample() { b.ix.Resample() }

// ResamplePrefix regenerates only the first k bits of the index; see
// BFSIndex.ResamplePrefix.
func (b *BFSSharing) ResamplePrefix(k int) { b.ix.ResamplePrefix(k) }

// Reseed implements Seeder. Reseeding alone does not change the index;
// call Resample afterwards to draw new worlds — the first redraw after a
// Reseed reproduces NewBFSIndex(g, seed, width) bit for bit.
func (b *BFSSharing) Reseed(seed uint64) {
	b.ix.seed = seed
	b.ix.gen = 0
	b.ix.reseeded = true
}

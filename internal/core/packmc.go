package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"relcomp/internal/arena"
	"relcomp/internal/bitvec"
	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// PackMC is the bit-parallel world-packed Monte Carlo estimator: it draws
// possible worlds in packs of 64 and evaluates one whole pack per graph
// traversal, using the machine-word trick the BFS Sharing index proves
// out — bit i of a 64-bit word stands for world i.
//
// Per pack, every edge lazily draws a 64-bit existence mask on first probe
// (bit i set iff the edge exists in world i, generated with the same
// geometric-skip technique as the BFS Sharing index, so a p-probability
// edge costs O(64·min(p,1-p)) RNG draws instead of 64), and nodes carry
// 64-bit reachability masks. An s-t pack meets in the middle: forward
// masks grow from s over out-edges (bit i set iff s reaches the node in
// world i), backward masks grow from t over in-edges (bit i set iff the
// node reaches t), and each level expands the side with the smaller
// frontier. A world is counted as soon as some node holds it on both
// sides, and dropped as soon as either side has nothing left to expand in
// it. On dense graphs this pops ~100 nodes per pack where a forward search
// to t pops thousands: at h=2 the forward side alone drains most of s's
// second shell. A source sweep (EstimateAll) has no target and propagates
// forward to the fixpoint, exactly like Algorithm 3 but one word wide and
// with no offline index.
//
// The estimate is statistically identical to MC — the same K independent
// Bernoulli worlds, the same unbiasedness and variance — but costs ~64x
// fewer queue operations and, on low-probability graphs, ~1/p fewer RNG
// calls.
//
// Edge masks are a pure function of (seed, round, pack, edge) — a
// counter-based stream rather than a sequential one — so the drawn world
// ensemble does not depend on traversal order. That gives PackMC three
// properties the sequential-stream estimators lack: the search direction
// and early termination cannot change the estimate (they only skip
// work), EstimateAll answers every target bit-identically to per-target
// Estimate calls (which is what lets the batch engine fold PackMC queries
// into amortized source groups), and ParallelPackMC returns bit-identical
// values to PackMC for any worker count.
//
// A source sweep runs 64 lanes (sweepPack) or 256 (runWide4, widepack4.go)
// per traversal, from the same counter stream, so both widths return
// identical values and only the cost differs (SweepAt). Each kernel's
// scratch is built on its first use, so an instance holds only the
// scratch of the kernels it has run.
//
// Like the other estimators, PackMC is deterministic given its seed and
// not safe for concurrent use.
type PackMC struct {
	g    *uncertain.Graph
	seed uint64
	// round counts queries since the last Reseed; it salts the mask
	// streams so successive calls draw fresh worlds.
	round uint64

	// Per-pack scratch, invalidated wholesale by bumping epoch, which
	// both kernels share. fwd holds the masks grown from s, bwd those
	// grown toward t (s-t packs only); both read one edge-mask cache, so
	// they see the same worlds.
	epoch   uint32
	fwd     packSide
	bwd     packSide
	edges   []packEdge
	qfix    []uint64           // per-edge probability in rng.FixedProb fixed point
	touched []uncertain.NodeID // nodes stamped this pack (sweeps only)
	wideScratch

	// denseThreshold is the worklist backlog above which a 256-lane
	// sweep switches to the level-synchronous bitmap mode; 0 disables
	// the switch. Set from the graph size at construction; tests
	// override it to force either mode.
	denseThreshold int

	// scratch is the per-query arena (multi-target hit counters); each
	// query Resets it, so its memory lives until the instance's next query.
	scratch arena.Arena
}

// packSide is one search direction's pack-local state: every node's mask
// (valid iff its epoch matches the current pack), the lanes each node has
// already propagated, and the worklist, whose tail from head on is the
// frontier the next level expands.
type packSide struct {
	nodes []packNode
	sent  []uint64
	queue []uncertain.NodeID
	head  int
}

// packNode is a node's pack-local state on one side: its mask, and the
// epochs at which the mask was last valid and the node last entered the
// worklist. Mask and epoch live side by side in one struct so the random
// accesses of the propagation loop touch one cache line per node, not two.
type packNode struct {
	mask    uint64
	epoch   uint32
	inQueue uint32
}

// packEdge is an edge's pack-local state: the lanes of its existence mask
// drawn so far this pack (decided), their values (mask), and the pack
// epoch they belong to. Lanes are drawn on demand — a probe pays only for
// the worlds that actually reached the edge.
type packEdge struct {
	mask    uint64
	decided uint64
	epoch   uint32
	_       uint32
}

// packQueueCap is the initial capacity of each of a PackMC instance's two
// worklists.
const packQueueCap = 256

// newPackSide allocates one direction's state for an n-node graph.
func newPackSide(n int) packSide {
	return packSide{
		nodes: make([]packNode, n),
		sent:  make([]uint64, n),
		queue: make([]uncertain.NodeID, 0, packQueueCap),
	}
}

// start seeds the side for a new pack: root holds the active lanes and is
// the whole frontier.
func (x *packSide) start(root uncertain.NodeID, active uint64, ep uint32) *packSide {
	x.nodes[root] = packNode{mask: active, epoch: ep, inQueue: ep}
	x.sent[root] = 0
	x.queue = append(x.queue[:0], root)
	x.head = 0
	return x
}

// frontier returns the number of nodes the side's next level expands.
func (x *packSide) frontier() int { return len(x.queue) - x.head }

// NewPackMC returns a PackMC estimator over g with the given random seed.
// It allocates no kernel scratch until its first query.
func NewPackMC(g *uncertain.Graph, seed uint64) *PackMC {
	return &PackMC{g: g, seed: seed, denseThreshold: g.NumNodes() / denseSwitchDen}
}

// ensureST builds the s-t scratch on the first search or 64-lane sweep.
// Classifying and fixed-point-converting every edge probability once
// here keeps the float branches out of the per-probe mask draws.
func (pm *PackMC) ensureST() {
	if pm.edges != nil {
		return
	}
	g := pm.g
	pm.fwd = newPackSide(g.NumNodes())
	pm.bwd = newPackSide(g.NumNodes())
	pm.edges = make([]packEdge, g.NumEdges())
	pm.qfix = make([]uint64, g.NumEdges())
	for id := range pm.qfix {
		pm.qfix[id] = rng.FixedProb(g.Edge(uncertain.EdgeID(id)).P)
	}
}

// Name implements Estimator.
func (pm *PackMC) Name() string { return "PackMC" }

// Reseed implements Seeder: the next Estimate replays the stream the first
// call after NewPackMC(seed) used.
func (pm *PackMC) Reseed(seed uint64) {
	pm.seed = seed
	pm.round = 0
}

// ScratchArena exposes the instance's per-query arena for diagnostics and
// the engine's scratch-isolation tests; callers must not allocate from it.
func (pm *PackMC) ScratchArena() *arena.Arena { return &pm.scratch }

// numPacks returns how many 64-world packs cover a k-sample budget.
func numPacks(k int) int { return (k + 63) / 64 }

// activeLanes returns the live-world mask of pack j within a k-sample
// budget: all 64 lanes except for the final partial pack, and zero for
// packs at or beyond numPacks(k) (k=0 has no live lanes anywhere).
func activeLanes(j, k int) uint64 {
	rem := k - j*64
	switch {
	case rem <= 0:
		return 0
	case rem < 64:
		return bitvec.LowBits(rem)
	}
	return ^uint64(0)
}

// laneMask returns the mask of pack j's lanes that fall in the global
// world-index range [lo, hi). World w lives at lane w-64j of pack w/64.
func laneMask(j, lo, hi int) uint64 { return activeLanes(j, hi) &^ activeLanes(j, lo) }

// Estimate implements Estimator: one Advance(k) of the query's session.
func (pm *PackMC) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(pm.g, s, t, k)
	return estimateOnce(pm.Sampler(s, t), k)
}

// sampleLanes runs the worlds of the global lane range [lo, hi) from the
// given stream base and returns in how many t was reached. Because every
// lane's outcome is a pure function of (base, pack, lane), hit counts are
// additive over any partition of the lane range — the property that makes
// chunked advancement bit-identical to a one-shot run over [0, k), and
// lets ParallelPackMC shard one range across goroutines without changing
// the estimate.
func (pm *PackMC) sampleLanes(base uint64, s, t uncertain.NodeID, lo, hi int) int {
	hits := 0
	for j := lo >> 6; j*64 < hi; j++ {
		hits += bits.OnesCount64(pm.runPack(base, uint64(j), s, t, laneMask(j, lo, hi)))
	}
	return hits
}

// EstimateAll draws the same k worlds one Estimate call would and returns
// the per-world hit fraction of every node from s in them: one pack sweep
// answers every target at once, which is what the batch engine's
// source-grouped path amortizes. It is one Advance(k) of AllSampler(s),
// and because the mask streams are counter-based, EstimateAll(s, k)[t] is
// bit-identical to what Estimate(s, t, k) would return from the same
// (seed, round) state. Unvisited nodes report 0 and s reports 1.
// Implements SourceEstimator.
func (pm *PackMC) EstimateAll(s uncertain.NodeID, k int) []float64 {
	return packSweep{pm, 64}.EstimateAll(s, k)
}

// accumulateAll sweeps the lane range [lo, hi) pack by pack at 64 lanes
// and adds every touched node's per-world hit count into counts.
func (pm *PackMC) accumulateAll(base uint64, s uncertain.NodeID, lo, hi int, counts []int64) {
	for j := lo >> 6; j*64 < hi; j++ {
		pm.sweepPack(base, uint64(j), s, laneMask(j, lo, hi))
		for _, v := range pm.touched {
			counts[v] += int64(bits.OnesCount64(pm.fwd.nodes[v].mask))
		}
	}
}

// nextPack invalidates all per-pack scratch of both kernels in O(1); the
// wrap-around clear runs once every 2^32 packs.
func (pm *PackMC) nextPack() {
	pm.epoch++
	if pm.epoch == 0 {
		for _, x := range []*packSide{&pm.fwd, &pm.bwd} {
			for i := range x.nodes {
				x.nodes[i].epoch = 0
				x.nodes[i].inQueue = 0
			}
		}
		for i := range pm.edges {
			pm.edges[i].epoch = 0
		}
		clear(pm.nstamp)
		clear(pm.edgeEpoch)
		pm.epoch = 1
	}
}

// runPack evaluates one 64-world pack for s ≠ t and returns the mask of
// active lanes in which t is reachable from s. It searches from both ends,
// one level at a time, always expanding the side with fewer frontier
// nodes. A lane is counted when a node holds it on both sides: that world
// has an s-v and a v-t path. A lane dies when either side's level leaves
// no frontier node gaining it: that side's closure is complete in the
// world and met nothing, so the world has no s-t path. Both sides read
// the pack's one edge-mask cache, so the result equals the forward
// fixpoint mask at t lane by lane.
func (pm *PackMC) runPack(base, pack uint64, s, t uncertain.NodeID, active uint64) uint64 {
	pm.startPack(s, t, active)
	return pm.finishPack(base, pack, active, nil)
}

// startPack begins an s-t pack on the instance's scratch: each side holds
// its root with the active lanes. stepPack then runs it level by level;
// the pack stays resumable until the next startPack or sweepPack.
func (pm *PackMC) startPack(s, t uncertain.NodeID, active uint64) {
	pm.ensureST()
	pm.nextPack()
	pm.fwd.start(s, active, pm.epoch)
	pm.bwd.start(t, active, pm.epoch)
}

// nextSide returns the side the pack in flight expands next, the one
// with fewer frontier nodes (forward on ties), the other side, and
// whether the next level is forward.
func (pm *PackMC) nextSide() (x, y *packSide, forward bool) {
	if pm.bwd.frontier() < pm.fwd.frontier() {
		return &pm.bwd, &pm.fwd, false
	}
	return &pm.fwd, &pm.bwd, true
}

// stepPack runs one level of the pack in flight over the alive lanes and
// returns the lanes met at this level and the lanes still alive after it.
func (pm *PackMC) stepPack(base, pack uint64, alive uint64) (met, live uint64) {
	x, y, forward := pm.nextSide()
	return pm.expand(x, y, forward, base, pack, alive)
}

// finishPack runs the pack in flight until no lane is alive and returns
// the lanes met on the way. A non-nil work accumulates levelWork over the
// levels run.
func (pm *PackMC) finishPack(base, pack uint64, alive uint64, work *int) uint64 {
	var hit uint64
	for alive != 0 {
		if work != nil {
			*work += pm.levelWork()
		}
		met, live := pm.stepPack(base, pack, alive)
		hit |= met
		alive = live
	}
	return hit
}

// levelWork bounds the adjacency entries the pack's next level scans: the
// degree sum of the frontier that stepPack expands next.
func (pm *PackMC) levelWork() int {
	x, _, forward := pm.nextSide()
	w := 0
	for _, v := range x.queue[x.head:] {
		if forward {
			w += pm.g.OutDegree(v)
		} else {
			w += pm.g.InDegree(v)
		}
	}
	return w
}

// sweepPack propagates one 64-world pack forward from s to its fixpoint
// and lists every node stamped this pack in pm.touched, its mask left in
// pm.fwd.nodes — the EstimateAll mode, where one sweep answers every
// target.
func (pm *PackMC) sweepPack(base, pack uint64, s uncertain.NodeID, active uint64) {
	pm.ensureST()
	pm.nextPack()
	f := pm.fwd.start(s, active, pm.epoch)
	pm.touched = append(pm.touched[:0], s)
	for alive := active; alive != 0; {
		_, alive = pm.expand(f, nil, true, base, pack, alive)
	}
}

// expand runs one level of side x: every frontier node sends the alive
// lanes it gained since it last expanded across its out-edges (forward)
// or in-edges (backward), and each neighbor that gains lanes joins the
// next frontier. Lanes a neighbor gains that side y already holds there
// are met: they are returned, and stop propagating at once. A nil y is
// the source sweep, which has no other side and records stamped nodes in
// pm.touched instead. The second result is the lanes still alive with a
// frontier node gaining them.
func (pm *PackMC) expand(x, y *packSide, forward bool, base, pack uint64, alive uint64) (met, live uint64) {
	g := pm.g
	ep := pm.epoch
	nodes, sent := x.nodes, x.sent
	var other []packNode
	if y != nil {
		other = y.nodes
	}
	q, head := x.queue, x.head
	for end := len(q); head < end; head++ {
		v := q[head]
		nv := &nodes[v]
		nv.inQueue = 0
		// Only lanes gained since v's last expansion propagate: everything
		// in sent[v] was already ANDed with the (cached, pack-stable) mask
		// of every edge and ORed into the neighbors, so re-sending it
		// cannot add anything. Dead lanes may be marked sent undelivered —
		// they are filtered by alive everywhere and never needed again.
		mv := (nv.mask &^ sent[v]) & alive
		if mv == 0 {
			continue
		}
		sent[v] = nv.mask
		var nbrs []uncertain.NodeID
		var ids []uncertain.EdgeID
		if forward {
			nbrs, ids = g.OutNeighbors(v), g.OutEdgeIDs(v)
		} else {
			nbrs, ids = g.InNeighbors(v), g.InEdgeIDs(v)
		}
		for i, w := range nbrs {
			nw := &nodes[w]
			wm := nw.mask
			if nw.epoch != ep {
				wm = 0
				nw.epoch = ep
				sent[w] = 0
				if y == nil {
					pm.touched = append(pm.touched, w)
				}
			}
			nd := mv &^ wm
			if nd == 0 {
				// w already holds every world v could deliver, however the
				// edge turns out; skip the mask entirely. Frequent on
				// bi-directed graphs, where the reverse edge of the hop
				// that reached w is always saturated.
				nw.mask = wm
				continue
			}
			// Only the worlds w lacks are requested from the edge — and
			// the cache-hit path of edgeMaskFor is inlined, since most
			// probes find the lanes they need already drawn for this pack.
			ee := &pm.edges[ids[i]]
			em := ee.mask
			if ee.epoch != ep || nd&^ee.decided != 0 {
				em = pm.edgeMaskFor(base, pack, ids[i], nd)
			}
			m := nd & em
			nw.mask = wm | m
			if m == 0 {
				continue
			}
			if other != nil && other[w].epoch == ep {
				if hit := m & other[w].mask; hit != 0 {
					met |= hit
					alive &^= hit
					if mv &= alive; mv == 0 {
						break
					}
				}
			}
			live |= m
			// Cascade: w re-propagates its grown mask, whether it is still
			// waiting in this level or was already expanded.
			if nw.inQueue != ep {
				nw.inQueue = ep
				q = append(q, w)
			}
		}
	}
	x.queue, x.head = q, head
	return met, live & alive
}

// edgeMaskFor returns the edge's existence mask for the current pack,
// final at least on the lanes in need, drawing lanes on first demand. The
// mask is a pure function of (base, pack, e) — rng.MaskAtNeed's
// counter-based trajectory — so neither traversal order nor the need
// sequence changes which worlds an edge exists in; a probe needing lanes
// beyond the cached decided set replays the trajectory further and keeps
// every previously decided lane.
func (pm *PackMC) edgeMaskFor(base, pack uint64, e uncertain.EdgeID, need uint64) uint64 {
	ee := &pm.edges[e]
	if ee.epoch == pm.epoch {
		need |= ee.decided // extend the trajectory, keeping prior lanes
	}
	m, dec := rng.MaskAtFixed(mix(base, pack, uint64(e)), pm.qfix[e], need)
	*ee = packEdge{mask: m, decided: dec, epoch: pm.epoch}
	return m
}

// MemoryBytes implements MemoryReporter: the scratch the instance has
// built — both search sides and the edge-mask cache once it has searched
// or swept at 64 lanes, the wide sweep scratch once it has swept at 256
// — plus the worklists and the per-query arena.
func (pm *PackMC) MemoryBytes() int64 {
	return int64(len(pm.fwd.nodes)+len(pm.bwd.nodes))*(16+8) + int64(len(pm.edges))*24 +
		int64(len(pm.qfix))*8 + pm.wideScratch.bytes() +
		int64(cap(pm.fwd.queue)+cap(pm.bwd.queue)+cap(pm.touched))*4 + pm.scratch.MemoryBytes()
}

// Sampler implements IncrementalEstimator. The session fixes its stream
// base at open (consuming one round) and each Advance runs the next global
// lane range; because lane outcomes are counter-based pure functions,
// Advance(a); Advance(b) is bit-identical to Advance(a+b).
func (pm *PackMC) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(pm.g, s, t, 1)
	if s == t {
		return &trivialSampler{estimate: 1}
	}
	pm.round++
	base := mix(pm.seed, pm.round, 0)
	return &hitSampler{draw: func(lo, hi int) int { return pm.sampleLanes(base, s, t, lo, hi) }}
}

// AllSampler implements SourceSampler: the anytime form of EstimateAll,
// sweeping at 64 lanes. Each Advance extends the shared pack sweep by the
// next lane range and accumulates every reached node's per-world hit
// count, so after n total samples SnapshotOf(t) is bit-identical to what
// EstimateAll(s, n)[t] would report from the same (seed, round) state.
// The per-node counts live in the instance arena and are reused across
// Advance chunks; like every arena allocation they are valid until the
// instance's next query begins.
func (pm *PackMC) AllSampler(s uncertain.NodeID) MultiSampler { return packSweep{pm, 64}.AllSampler(s) }

// SweepAt returns pm as a SourceSampler whose source sweeps (EstimateAll,
// AllSampler) run lanes worlds per traversal: 64, or 256 on the 4-word
// kernel. Every other method, and every value, is pm's own; the width
// only sets the cost, so a caller may pick it per call from measurement.
func (pm *PackMC) SweepAt(lanes int) SourceSampler {
	if lanes != 64 && lanes != 256 {
		panic(fmt.Sprintf("core: PackMC sweeps at 64 or 256 lanes, not %d", lanes))
	}
	return packSweep{pm, lanes}
}

// packSweep is a PackMC whose source sweeps run at a fixed width.
type packSweep struct {
	*PackMC
	lanes int
}

// AllSampler implements SourceSampler at the view's width.
func (x packSweep) AllSampler(s uncertain.NodeID) MultiSampler {
	pm := x.PackMC
	mustValidQuery(pm.g, s, s, 1)
	pm.round++
	pm.scratch.Reset()
	base, wide := mix(pm.seed, pm.round, 0), x.lanes == 256
	return &countSampler{
		s:      s,
		counts: pm.scratch.Int64s(pm.g.NumNodes()),
		sweep: func(lo, hi int, counts []int64) {
			if wide {
				pm.accumulateWide(base, s, lo, hi, counts)
			} else {
				pm.accumulateAll(base, s, lo, hi, counts)
			}
		},
	}
}

// EstimateAll implements SourceEstimator at the view's width.
func (x packSweep) EstimateAll(s uncertain.NodeID, k int) []float64 {
	mustValidQuery(x.g, s, s, k)
	return estimateAll(x.AllSampler(s), k)
}

var (
	_ IncrementalEstimator = (*PackMC)(nil)
	_ SourceEstimator      = (*PackMC)(nil)
	_ SourceSampler        = (*PackMC)(nil)
	_ Seeder               = (*PackMC)(nil)
)

// ParallelPackMC shards the packs of each PackMC estimate over W worker
// goroutines, the way ParallelMC shards MC samples. Because PackMC's mask
// streams are counter-based per pack, the shard boundaries are invisible
// in the result: ParallelPackMC returns bit-identical values to a
// sequential PackMC with the same seed, for any worker count — unlike
// ParallelMC, whose values change with its worker count.
//
// Estimate is internally concurrent but the type itself must not be shared
// between goroutines.
type ParallelPackMC struct {
	g       *uncertain.Graph
	seed    uint64
	round   uint64
	workers int
	pool    sync.Pool // *PackMC workers
}

// NewParallelPackMC returns a ParallelPackMC with workers goroutines
// (0 means GOMAXPROCS) over 64-lane PackMC worker kernels.
func NewParallelPackMC(g *uncertain.Graph, seed uint64, workers int) *ParallelPackMC {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ParallelPackMC{g: g, seed: seed, workers: workers}
	p.pool.New = func() interface{} { return NewPackMC(g, seed) }
	return p
}

// Name implements Estimator.
func (p *ParallelPackMC) Name() string { return "ParallelPackMC" }

// Reseed implements Seeder.
func (p *ParallelPackMC) Reseed(seed uint64) {
	p.seed = seed
	p.round = 0
}

// Estimate implements Estimator: one Advance(k) of the query's session.
func (p *ParallelPackMC) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(p.g, s, t, k)
	return estimateOnce(p.Sampler(s, t), k)
}

// MemoryBytes implements MemoryReporter: one worker kernel's s-t scratch
// per worker — per node a pack-state and a sent word on each side
// (2·(16+8) bytes), per edge the pack-state and fixed-point probability
// (24+8 bytes), and both worklists — computed arithmetically rather than
// by allocating a probe instance.
func (p *ParallelPackMC) MemoryBytes() int64 {
	per := int64(p.g.NumNodes())*2*(16+8) + int64(p.g.NumEdges())*(24+8) + 2*packQueueCap*4
	return per * int64(p.workers)
}

// Sampler implements IncrementalEstimator. Each Advance shards the next
// global lane range's packs over the workers; because the lane outcomes
// are counter-based, the session is bit-identical to a sequential PackMC
// session for any worker count and any chunking.
func (p *ParallelPackMC) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(p.g, s, t, 1)
	if s == t {
		return &trivialSampler{estimate: 1}
	}
	p.round++
	base := mix(p.seed, p.round, 0)
	return &hitSampler{draw: func(lo, hi int) int { return p.shardLanes(base, s, t, lo, hi) }}
}

// shardLanes runs the lane range [lo, hi) with its packs split into
// contiguous ranges, one per worker, and returns the hit count. Per-range
// counts are accumulated worker-locally and combined over a channel
// (never through a shared slice, which would false-share cache lines
// between workers).
func (p *ParallelPackMC) shardLanes(base uint64, s, t uncertain.NodeID, lo, hi int) int {
	loPack, hiPack := lo>>6, (hi+63)>>6
	packs := hiPack - loPack
	workers := p.workers
	if workers > packs {
		workers = packs
	}
	if workers <= 1 {
		pm := p.pool.Get().(*PackMC)
		hits := pm.sampleLanes(base, s, t, lo, hi)
		p.pool.Put(pm)
		return hits
	}
	results := make(chan int, workers)
	start := loPack
	for w := 0; w < workers; w++ {
		share := packs / workers
		if w < packs%workers {
			share++
		}
		go func(a, b int) { // pack range [a, b), clipped to the lane range
			pm := p.pool.Get().(*PackMC)
			hits := pm.sampleLanes(base, s, t, max(a*64, lo), min(b*64, hi))
			p.pool.Put(pm)
			results <- hits
		}(start, start+share)
		start += share
	}
	hits := 0
	for w := 0; w < workers; w++ {
		hits += <-results
	}
	return hits
}

var (
	_ IncrementalEstimator = (*ParallelPackMC)(nil)
	_ Seeder               = (*ParallelPackMC)(nil)
)

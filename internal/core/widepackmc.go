package core

import (
	"fmt"
	"math/bits"

	"relcomp/internal/arena"
	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// WidePackMC is PackMC with source sweeps (EstimateAll, AllSampler) run
// over lane groups of 4 words — 256 possible worlds per graph traversal.
// One wide sweep does the work of 4 consecutive PackMC packs: the
// worklist is walked once, each node's CSR row is scanned once, and each
// edge's epoch is checked once for the whole group, so the per-pack
// bookkeeping that dominates a 64-lane sweep on mid-probability graphs is
// amortized 4-fold. The estimator is named for 256 or 512 lanes
// (PackMC256, PackMC512); both widths sweep 4-word groups, because a
// hand-unrolled 8-word kernel measured no cheaper.
//
// s-t queries (Estimate, Sampler) do not use the wide lanes: they run
// PackMC's 64-lane bidirectional search over the same packs, on a PackMC
// kernel the instance builds on its first s-t query. A search that meets
// in the middle pops ~100 nodes per pack, where any forward search to t —
// however wide — drains most of s's second shell.
//
// The hot sweep kernel (widepack4.go) is fully unrolled over the lane
// group: masks live in scalar locals the register allocator can keep out
// of memory, and a node's (mask, sent) pair — like an edge's
// (mask, decided) pair — is one interleaved 64-byte group, so a random
// node or edge probe at 256 lanes touches exactly one cache line where
// four separate PackMC sweeps would take four dependent misses spread
// over time.
//
// Bit-identity contract: word ww of wide pack J is 64-world pack
// j = J·4 + ww, and draws its edge masks from the exact counter stream
// PackMC's pack j uses — key mix(base, j, edge) — restricted to the same
// active lanes. Per-lane outcomes are therefore identical to PackMC's for
// the same (seed, round), hit counts are additive over any partition of
// the lane range, and Estimate / EstimateAll / Sampler / AllSampler all
// return bit-identical values to PackMC at every width, for any traversal
// order, chunking, or sharding (asserted by the package's width-identity
// tests).
//
// A sweep is frontier-compressed: the sparse mode is PackMC's cascading
// worklist (cost proportional to the frontier, discovery order), and when
// the worklist backlog crosses a fixed fraction of the graph the pack
// switches to a dense mode that runs the remaining cascade
// level-synchronously over a frontier bitmap — nodes are visited in
// ascending id order (the forward direction of the CSR, which after
// degree relabeling streams the hub-dense low ids sequentially), each
// node at most once per level however many times its mask grew, and the
// next level's frontier is built by setting bits instead of pushing queue
// entries. Because edge masks are pure counter functions, the switch only
// reorders work and is invisible in the values.
//
// Per-query scratch that scales with the graph (multi-target hit counts)
// comes from an instance-owned arena (internal/arena) reused across
// Advance chunks and batch units, so steady-state queries allocate
// nothing. Arena memory is valid until the instance's next query; like
// every estimator, a WidePackMC instance is not safe for concurrent use.
type WidePackMC struct {
	g    *uncertain.Graph
	seed uint64
	// round counts queries since the last Reseed, exactly like PackMC.
	round uint64
	lanes int // 256 or 512: the width the estimator is named for

	// st is the 64-lane kernel that answers s-t queries, built on the
	// first one; only its sampleLanes is used, from this instance's
	// stream base, so its own seed and round never matter.
	st *PackMC

	// Pack-local state, invalidated wholesale by bumping epoch. nstamp,
	// edgeEpoch and qfix are built on the first sweep (ensureSweepScratch),
	// so an instance that only answers s-t queries carries none of them.
	// nstamp packs a node's two stamps into one word — low half "mask is
	// valid this pack", high half "node is in the sparse worklist" — so a
	// neighbor probe resolves both with a single cache line.
	// Edge scratch (edgeEpoch, qfix, edges4) is indexed by out-CSR SLOT,
	// not edge id: a node scan then touches its edge state sequentially,
	// and the insertion-ordered edge id — which only the counter-stream
	// key needs — is loaded from the CSR solely on the probes that draw.
	epoch     uint32
	nstamp    []uint64
	edgeEpoch []uint32
	qfix      []uint64 // per-slot probability in rng.FixedProb fixed point
	queue     []uncertain.NodeID
	touched   []uncertain.NodeID // nodes stamped this pack

	// Node/edge word groups, allocated on the first sweep.
	nodes4 []wideNode4
	edges4 []wideEdge4

	// Dense-mode frontier bitmaps (one bit per node), allocated on the
	// first sparse→dense switch.
	frontier     []uint64
	nextFrontier []uint64

	// denseThreshold is the worklist backlog above which a pack switches
	// to the level-synchronous bitmap mode; 0 disables the switch. Set
	// from the graph size at construction; tests override it to force
	// either mode.
	denseThreshold int

	// scratch is the per-query arena; each query Resets it, so memory
	// handed out lives exactly until the instance's next query.
	scratch arena.Arena
}

// wideNode4 is a node's 256-lane pack state: reachability mask and
// already-propagated lanes, interleaved into one 64-byte cache line.
type wideNode4 struct {
	mask [4]uint64
	sent [4]uint64
}

// wideEdge4 is an edge's 256-lane pack state: existence mask and the
// lanes drawn so far, one 64-byte line.
type wideEdge4 struct {
	mask [4]uint64
	dec  [4]uint64
}

// denseSwitchDen sets the default dense-switch threshold to
// NumNodes/denseSwitchDen: only a backlog of half the graph means the
// cascade is dense enough that level-synchronous bitmap sweeps (one visit
// per node per level, sequential access) beat cascading re-pushes. Lower
// switch points looked attractive on uniform random graphs but lose on
// power-law datasets, where even a wide cascade leaves most bitmap words
// empty; SetDenseThreshold exposes the knob for workloads that differ.
const denseSwitchDen = 2

// mixGolden and mixMul1 are mix's epoch and worker multipliers
// (parallel.go); the kernels exploit that consecutive word indices of one
// edge differ by +mixGolden in mix's pre-finalizer state, so a wide
// edge draw combines the key once and pays only the finalizer per word.
const (
	mixGolden = 0x9e3779b97f4a7c15
	mixMul1   = 0xbf58476d1ce4e5b9
)

// mixFinal is mix's splitmix64 finalizer: mix(seed, epoch, worker) ==
// mixFinal(seed + mixGolden·epoch + mixMul1·worker + 1).
func mixFinal(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewWidePackMC returns a wide-pack estimator over g with the given seed.
// lanes must be 256 or 512 (PackMC itself is the 64-lane case); it only
// names the estimator, since both widths sweep 4-word groups and every
// width returns PackMC's values.
func NewWidePackMC(g *uncertain.Graph, seed uint64, lanes int) *WidePackMC {
	if lanes != 256 && lanes != 512 {
		panic(fmt.Sprintf("core: WidePackMC lanes must be 256 or 512, got %d", lanes))
	}
	return &WidePackMC{
		g:              g,
		seed:           seed,
		lanes:          lanes,
		queue:          make([]uncertain.NodeID, 0, packQueueCap),
		denseThreshold: g.NumNodes() / denseSwitchDen,
	}
}

// ensureSweepScratch builds the node stamps and the per-slot edge state
// on the instance's first sweep.
func (pm *WidePackMC) ensureSweepScratch() {
	if pm.nstamp != nil {
		return
	}
	g := pm.g
	n, m := g.NumNodes(), g.NumEdges()
	pm.nstamp = make([]uint64, n)
	pm.edgeEpoch = make([]uint32, m)
	pm.qfix = make([]uint64, m)
	for v := 0; v < n; v++ {
		lo, _ := g.OutSpan(uncertain.NodeID(v))
		for i, p := range g.OutProbs(uncertain.NodeID(v)) {
			pm.qfix[lo+i] = rng.FixedProb(p)
		}
	}
}

// Name implements Estimator: "PackMC256" or "PackMC512".
func (pm *WidePackMC) Name() string { return fmt.Sprintf("PackMC%d", pm.lanes) }

// Lanes returns the width the estimator is named for (256 or 512).
func (pm *WidePackMC) Lanes() int { return pm.lanes }

// Reseed implements Seeder.
func (pm *WidePackMC) Reseed(seed uint64) {
	pm.seed = seed
	pm.round = 0
}

// ScratchArena exposes the instance's per-query arena for diagnostics and
// the engine's scratch-isolation tests; callers must not allocate from it.
func (pm *WidePackMC) ScratchArena() *arena.Arena { return &pm.scratch }

// SetDenseThreshold overrides the worklist-occupancy switch point between
// the sparse (queue-driven) and dense (level-synchronous bitmap) modes of
// a source sweep (EstimateAll, AllSampler); s-t queries never read it. The
// default is NumNodes/2 (denseSwitchDen); 0 disables the dense mode
// entirely. Both modes compute bit-identical results — this knob only
// trades queue bookkeeping against bitmap scans, so callers may tune it
// freely per workload.
func (pm *WidePackMC) SetDenseThreshold(occupancy int) {
	pm.denseThreshold = occupancy
}

// Estimate implements Estimator: one Advance(k) of the query's session,
// bit-identical to PackMC.Estimate for the same (seed, round) state.
func (pm *WidePackMC) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(pm.g, s, t, k)
	return estimateOnce(pm.Sampler(s, t), k)
}

// stKernel returns the 64-lane s-t kernel, building it on first use, so
// an instance that only sweeps never pays for it.
func (pm *WidePackMC) stKernel() *PackMC {
	if pm.st == nil {
		pm.st = NewPackMC(pm.g, pm.seed)
	}
	return pm.st
}

// EstimateAll implements SourceEstimator: one Advance(k) of
// AllSampler(s), whose wide sweeps leave every reached node's per-world
// counts behind, bit-identical to PackMC.EstimateAll and to per-target
// Estimate calls.
func (pm *WidePackMC) EstimateAll(s uncertain.NodeID, k int) []float64 {
	mustValidQuery(pm.g, s, s, k)
	return estimateAll(pm.AllSampler(s), k)
}

// accumulateAll sweeps the lane range [lo, hi) in 4-word groups and adds
// every touched node's per-world hit count into counts.
func (pm *WidePackMC) accumulateAll(base uint64, s uncertain.NodeID, lo, hi int, counts []int64) {
	pm.ensureSweepScratch()
	for j := lo >> 6; j*64 < hi; {
		wp := j / 4
		var active [4]uint64
		for ; j < (wp+1)*4 && j*64 < hi; j++ {
			active[j-wp*4] = laneMask(j, lo, hi)
		}
		pm.runWide4(base, uint64(wp)*4, s, &active)
		for _, v := range pm.touched {
			nm := &pm.nodes4[v].mask
			counts[v] += int64(bits.OnesCount64(nm[0]) + bits.OnesCount64(nm[1]) +
				bits.OnesCount64(nm[2]) + bits.OnesCount64(nm[3]))
		}
	}
}

// nextPack invalidates all wide-pack scratch in O(1), with the same
// 2^32-wrap clear as PackMC.
func (pm *WidePackMC) nextPack() {
	pm.epoch++
	if pm.epoch == 0 {
		clear(pm.nstamp)
		clear(pm.edgeEpoch)
		pm.epoch = 1
	}
}

// ensureFrontier allocates the dense-mode bitmaps on the first
// sparse→dense switch. A dense sweep runs to its fixpoint, which leaves
// both bitmaps empty, so later switches reuse them as they are.
func (pm *WidePackMC) ensureFrontier() (cur, next []uint64) {
	if pm.frontier == nil {
		words := (pm.g.NumNodes() + 63) / 64
		pm.frontier = make([]uint64, words)
		pm.nextFrontier = make([]uint64, words)
	}
	return pm.frontier, pm.nextFrontier
}

// MemoryBytes implements MemoryReporter: what the instance has actually
// allocated — the sweep scratch (stamps, per-slot edge state, word
// groups) and dense bitmaps once a sweep has built them, and the s-t
// kernel once an s-t query has — so an instance that has only answered
// s-t queries reports no sweep scratch.
func (pm *WidePackMC) MemoryBytes() int64 {
	b := int64(len(pm.nstamp)+len(pm.qfix)+len(pm.frontier)+len(pm.nextFrontier))*8 +
		int64(len(pm.edgeEpoch))*4 +
		int64(len(pm.nodes4)+len(pm.edges4))*64 +
		int64(cap(pm.queue)+cap(pm.touched))*4 + pm.scratch.MemoryBytes()
	if pm.st != nil {
		b += pm.st.MemoryBytes()
	}
	return b
}

// Sampler implements IncrementalEstimator with PackMC's session on the
// 64-lane s-t kernel, from this instance's stream base: Advance(a);
// Advance(b) is bit-identical to Advance(a+b), and to PackMC's session
// from the same (seed, round) state, at every width.
func (pm *WidePackMC) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(pm.g, s, t, 1)
	if s == t {
		return &trivialSampler{estimate: 1}
	}
	pm.round++
	pm.scratch.Reset()
	st, base := pm.stKernel(), mix(pm.seed, pm.round, 0)
	return &hitSampler{draw: func(lo, hi int) int { return st.sampleLanes(base, s, t, lo, hi) }}
}

// AllSampler implements SourceSampler: the anytime form of EstimateAll,
// bit-identical to PackMC's at every width. The per-node counts live in
// the instance arena, reused across Advance chunks; they are valid until
// the instance's next query, like every arena allocation.
func (pm *WidePackMC) AllSampler(s uncertain.NodeID) MultiSampler {
	mustValidQuery(pm.g, s, s, 1)
	pm.round++
	pm.scratch.Reset()
	base := mix(pm.seed, pm.round, 0)
	return &countSampler{
		s:      s,
		counts: pm.scratch.Int64s(pm.g.NumNodes()),
		sweep:  func(lo, hi int, counts []int64) { pm.accumulateAll(base, s, lo, hi, counts) },
	}
}

var (
	_ IncrementalEstimator = (*WidePackMC)(nil)
	_ SourceEstimator      = (*WidePackMC)(nil)
	_ SourceSampler        = (*WidePackMC)(nil)
	_ Seeder               = (*WidePackMC)(nil)
)

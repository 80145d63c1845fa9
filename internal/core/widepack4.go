package core

import (
	"math/bits"

	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// This file is PackMC's 256-lane source-sweep kernel: one [4]uint64 lane
// group per node and edge, every word-group operation written as four
// scalar expressions so the masks live in registers, with a single
// interleaved cache line per node (mask+sent) and per edge
// (mask+decided). One wide sweep does the work of 4 consecutive 64-lane
// packs: the worklist is walked once, each node's CSR row is scanned
// once, and each edge's epoch is checked once for the whole group, so the
// per-pack bookkeeping that dominates a 64-lane sweep on mid-probability
// graphs is amortized 4-fold. It serves source sweeps only; s-t queries
// run the 64-lane bidirectional search.
//
// Bit-identity: word ww of wide pack J is 64-world pack j = J·4 + ww, and
// draws its edge masks from the exact counter stream the 64-lane kernel's
// pack j uses — key mix(base, j, edge) — restricted to the same active
// lanes. Per-lane outcomes are therefore identical at both widths, for
// any traversal order, chunking, or sharding (asserted by the package's
// width-identity tests).
//
// The sweep has two modes. Sparse: the cascading worklist — cost
// proportional to the frontier, nodes processed in discovery order,
// re-pushed whenever their mask grows. Dense: once the worklist backlog
// crosses pm.denseThreshold, the remaining cascade runs
// level-synchronously over a frontier bitmap — each level visits its
// frontier in ascending node order (sequential CSR access; after degree
// relabeling the hub-dense low ids stream from a handful of cache lines),
// each node at most once per level however many times its mask grew, and
// discovered growth sets a bit in the next level's bitmap instead of
// pushing a queue entry. Edge masks are pure counter functions of
// (base, pack, edge), so the mode switch reorders work without moving any
// value (asserted by TestWidePackMCDenseSwitchBitIdentical).
//
// Every node mask stays within the active lanes — the root starts with
// exactly them, and growth is always a subset of a sender's mask — so the
// kernels never re-mask by active.

// wideScratch is the 256-lane kernel's pack-local state, allocated on the
// first wide sweep, so an instance that never sweeps at 256 lanes carries
// none of it.
//
// nstamp packs a node's two stamps into one word — low half "mask is
// valid this pack", high half "node is in the sparse worklist" — so a
// neighbor probe resolves both with a single cache line. Edge state
// (edgeEpoch, qslot, edges4) is indexed by out-CSR SLOT, not edge id: a
// node scan then touches its edge state sequentially, and the
// insertion-ordered edge id — which only the counter-stream key needs —
// is loaded from the CSR solely on the probes that draw. qslot repeats
// the s-t kernel's per-edge qfix in slot order for the same reason: read
// by edge id it cost ~6% per DBLP_0.2 sweep.
type wideScratch struct {
	nstamp    []uint64
	edgeEpoch []uint32
	qslot     []uint64 // per-slot probability in rng.FixedProb fixed point
	nodes4    []wideNode4
	edges4    []wideEdge4
	queue     []uncertain.NodeID

	// Dense-mode frontier bitmaps, one bit per node. A dense sweep runs
	// to its fixpoint, which leaves both empty for the next switch.
	frontier     []uint64
	nextFrontier []uint64
}

// bytes is the memory the wide scratch holds.
func (w *wideScratch) bytes() int64 {
	return int64(len(w.nstamp)+len(w.qslot)+len(w.frontier)+len(w.nextFrontier))*8 +
		int64(len(w.edgeEpoch))*4 + int64(len(w.nodes4)+len(w.edges4))*64 + int64(cap(w.queue))*4
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
// empty.
const denseSwitchDen = 2

// mixGolden and mixMul1 are mix's epoch and worker multipliers
// (parallel.go); the kernel exploits that consecutive word indices of one
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

// accumulateWide sweeps the lane range [lo, hi) in 4-word groups and adds
// every touched node's per-world hit count into counts.
func (pm *PackMC) accumulateWide(base uint64, s uncertain.NodeID, lo, hi int, counts []int64) {
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

// ensureWide builds the wide scratch on the first 256-lane sweep.
func (pm *PackMC) ensureWide() {
	if pm.nstamp != nil {
		return
	}
	g := pm.g
	n, m := g.NumNodes(), g.NumEdges()
	pm.nstamp = make([]uint64, n)
	pm.edgeEpoch = make([]uint32, m)
	pm.qslot = make([]uint64, m)
	for v := 0; v < n; v++ {
		lo, _ := g.OutSpan(uncertain.NodeID(v))
		for i, p := range g.OutProbs(uncertain.NodeID(v)) {
			pm.qslot[lo+i] = rng.FixedProb(p)
		}
	}
	pm.nodes4 = make([]wideNode4, n)
	pm.edges4 = make([]wideEdge4, m)
	pm.queue = make([]uncertain.NodeID, 0, packQueueCap)
	pm.frontier = make([]uint64, (n+63)/64)
	pm.nextFrontier = make([]uint64, (n+63)/64)
}

// runWide4 propagates one 4-word pack group from s, whose 64-world packs
// start at packBase, to its fixpoint, and records every stamped node in
// pm.touched with its word group left in pm.nodes4.
func (pm *PackMC) runWide4(base, packBase uint64, s uncertain.NodeID, active *[4]uint64) {
	g := pm.g
	pm.ensureWide()
	pm.nextPack()
	ep := pm.epoch
	epq := uint64(ep)<<32 | uint64(ep) // stamped and queued
	nodes := pm.nodes4
	ns := &nodes[s]
	ns.mask = *active
	ns.sent = [4]uint64{}
	pm.nstamp[s] = epq
	pm.touched = append(pm.touched[:0], s)
	q := append(pm.queue[:0], s)
	for head := 0; head < len(q); head++ {
		if dt := pm.denseThreshold; dt > 0 && len(q)-head > dt {
			// The frontier went dense: hand the backlog to the
			// level-synchronous bitmap mode and finish the pack there.
			pm.queue = q
			cur, next := pm.frontier, pm.nextFrontier
			for _, u := range q[head:] {
				cur[uint32(u)>>6] |= 1 << (uint32(u) & 63)
			}
			pm.denseWide4(base, packBase, cur, next)
			return
		}
		v := q[head]
		pm.nstamp[v] = uint64(ep) // still stamped, no longer queued
		nv := &nodes[v]
		m0 := nv.mask[0] &^ nv.sent[0]
		m1 := nv.mask[1] &^ nv.sent[1]
		m2 := nv.mask[2] &^ nv.sent[2]
		m3 := nv.mask[3] &^ nv.sent[3]
		if m0|m1|m2|m3 == 0 {
			continue
		}
		nv.sent = nv.mask
		outs := g.OutNeighbors(v)
		ids := g.OutEdgeIDs(v)
		lo, _ := g.OutSpan(v)
		for i, dst := range outs {
			st := pm.nstamp[dst]
			nw := &nodes[dst]
			if uint32(st) != ep {
				nw.mask = [4]uint64{}
				nw.sent = [4]uint64{}
				st = uint64(ep)
				pm.nstamp[dst] = st
				pm.touched = append(pm.touched, dst)
			}
			n0 := m0 &^ nw.mask[0]
			n1 := m1 &^ nw.mask[1]
			n2 := m2 &^ nw.mask[2]
			n3 := m3 &^ nw.mask[3]
			if n0|n1|n2|n3 == 0 {
				// dst already holds every world v could deliver.
				continue
			}
			slot := lo + i
			ee := &pm.edges4[slot]
			if pm.edgeEpoch[slot] != ep ||
				(n0&^ee.dec[0])|(n1&^ee.dec[1])|(n2&^ee.dec[2])|(n3&^ee.dec[3]) != 0 {
				pm.drawEdge4(base, packBase, ids[i], slot, n0, n1, n2, n3)
			}
			g0 := n0 & ee.mask[0]
			g1 := n1 & ee.mask[1]
			g2 := n2 & ee.mask[2]
			g3 := n3 & ee.mask[3]
			if g0|g1|g2|g3 == 0 {
				continue
			}
			nw.mask[0] |= g0
			nw.mask[1] |= g1
			nw.mask[2] |= g2
			nw.mask[3] |= g3
			// Cascade: dst re-propagates its grown mask unless already queued.
			if st>>32 != uint64(ep) {
				pm.nstamp[dst] = epq
				q = append(q, dst)
			}
		}
	}
	pm.queue = q
}

// denseWide4 finishes a 4-word pack level-synchronously: cur holds the
// current frontier as a node bitmap, the pop body is the sparse kernel's,
// and mask growth sets bits in next instead of pushing queue entries.
// Levels repeat until no mask grows — the cascade's fixpoint, where both
// bitmaps are empty again.
func (pm *PackMC) denseWide4(base, packBase uint64, cur, next []uint64) {
	g := pm.g
	ep := pm.epoch
	nodes := pm.nodes4
	for {
		grewAny := false
		for wi := range cur {
			bw := cur[wi]
			if bw == 0 {
				continue
			}
			cur[wi] = 0
			vbase := uint32(wi) << 6
			for bw != 0 {
				v := uncertain.NodeID(vbase + uint32(bits.TrailingZeros64(bw)))
				bw &= bw - 1
				nv := &nodes[v]
				m0 := nv.mask[0] &^ nv.sent[0]
				m1 := nv.mask[1] &^ nv.sent[1]
				m2 := nv.mask[2] &^ nv.sent[2]
				m3 := nv.mask[3] &^ nv.sent[3]
				if m0|m1|m2|m3 == 0 {
					continue
				}
				nv.sent = nv.mask
				outs := g.OutNeighbors(v)
				ids := g.OutEdgeIDs(v)
				lo, _ := g.OutSpan(v)
				for i, dst := range outs {
					nw := &nodes[dst]
					if uint32(pm.nstamp[dst]) != ep {
						nw.mask = [4]uint64{}
						nw.sent = [4]uint64{}
						pm.nstamp[dst] = uint64(ep)
						pm.touched = append(pm.touched, dst)
					}
					n0 := m0 &^ nw.mask[0]
					n1 := m1 &^ nw.mask[1]
					n2 := m2 &^ nw.mask[2]
					n3 := m3 &^ nw.mask[3]
					if n0|n1|n2|n3 == 0 {
						continue
					}
					slot := lo + i
					ee := &pm.edges4[slot]
					if pm.edgeEpoch[slot] != ep ||
						(n0&^ee.dec[0])|(n1&^ee.dec[1])|(n2&^ee.dec[2])|(n3&^ee.dec[3]) != 0 {
						pm.drawEdge4(base, packBase, ids[i], slot, n0, n1, n2, n3)
					}
					g0 := n0 & ee.mask[0]
					g1 := n1 & ee.mask[1]
					g2 := n2 & ee.mask[2]
					g3 := n3 & ee.mask[3]
					if g0|g1|g2|g3 == 0 {
						continue
					}
					nw.mask[0] |= g0
					nw.mask[1] |= g1
					nw.mask[2] |= g2
					nw.mask[3] |= g3
					next[uint32(dst)>>6] |= 1 << (uint32(dst) & 63)
					grewAny = true
				}
			}
		}
		if !grewAny {
			return
		}
		cur, next = next, cur
	}
}

// drawEdge4 draws (or extends) the edge's word group for the current
// pack, final at least on the lanes of n0..n3. Word ww uses the counter
// stream of 64-world pack packBase+ww — PackMC's exact key
// mix(base, packBase+ww, e) — so each word's decided lanes are a pure
// function of (base, pack, edge) and neither traversal order, the
// sparse/dense mode, nor the need sequence changes which worlds an edge
// exists in. State lives at the edge's out-CSR slot; the insertion-order
// edge id e only keys the counter stream. Consecutive words share mix's
// pre-finalizer state up to +mixGolden, so the key combines once per edge
// and finalizes per word. The four words draw through one fused
// rng.MaskAtFixed4 call: the four counter trajectories are
// data-independent, so the fused loop pipelines their splitmix chains, and
// its over-decided lanes (identical to what a replay would produce) widen
// dec so cascading probes rarely redraw.
func (pm *PackMC) drawEdge4(base, packBase uint64, e uncertain.EdgeID, slot int, n0, n1, n2, n3 uint64) {
	ee := &pm.edges4[slot]
	if pm.edgeEpoch[slot] != pm.epoch {
		*ee = wideEdge4{}
		pm.edgeEpoch[slot] = pm.epoch
	}
	var need [4]uint64
	if n0&^ee.dec[0] != 0 {
		need[0] = n0 | ee.dec[0]
	}
	if n1&^ee.dec[1] != 0 {
		need[1] = n1 | ee.dec[1]
	}
	if n2&^ee.dec[2] != 0 {
		need[2] = n2 | ee.dec[2]
	}
	if n3&^ee.dec[3] != 0 {
		need[3] = n3 | ee.dec[3]
	}
	z0 := base + mixGolden*packBase + mixMul1*uint64(uint32(e)) + 1
	z1 := z0 + mixGolden
	z2 := z1 + mixGolden
	z3 := z2 + mixGolden
	rng.MaskAtFixed4(mixFinal(z0), mixFinal(z1), mixFinal(z2), mixFinal(z3),
		pm.qslot[slot], &need, &ee.mask, &ee.dec)
}

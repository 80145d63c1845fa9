package core

import (
	"math/bits"

	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// This file is the unrolled source-sweep kernel: one [4]uint64 lane group
// per node and edge, every word-group operation written as four scalar
// expressions so the masks live in registers, with a single interleaved
// cache line per node (mask+sent) and per edge (mask+decided). Both
// WidePackMC widths sweep here. It serves EstimateAll and AllSampler
// only; s-t queries run PackMC's bidirectional search.
//
// The sweep has two modes. Sparse: PackMC's cascading worklist — cost
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

// runWide4 propagates one 4-word pack group from s, whose 64-world packs
// start at packBase, to its fixpoint, and records every stamped node in
// pm.touched with its word group left in pm.nodes4.
func (pm *WidePackMC) runWide4(base, packBase uint64, s uncertain.NodeID, active *[4]uint64) {
	g := pm.g
	if pm.nodes4 == nil {
		pm.nodes4 = make([]wideNode4, g.NumNodes())
		pm.edges4 = make([]wideEdge4, g.NumEdges())
	}
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
			cur, next := pm.ensureFrontier()
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
func (pm *WidePackMC) denseWide4(base, packBase uint64, cur, next []uint64) {
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
func (pm *WidePackMC) drawEdge4(base, packBase uint64, e uncertain.EdgeID, slot int, n0, n1, n2, n3 uint64) {
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
		pm.qfix[slot], &need, &ee.mask, &ee.dec)
}

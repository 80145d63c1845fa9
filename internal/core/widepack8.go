package core

import (
	"math/bits"

	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// This file is the unrolled 512-lane source-sweep kernel: one [8]uint64
// lane group per node and edge (two interleaved cache lines), with the
// same sparse worklist / dense bitmap structure as the 256-lane kernel in
// widepack4.go. It only runs for wide packs whose upper four words carry
// live worlds — groups with ≤ 256 live lanes delegate to the 4-word
// kernel (see runWidePack), which draws from the identical counter
// streams.

// runWide8 propagates one 8-word pack group from s, whose 64-world packs
// start at packBase, to its fixpoint, as runWide4 does for 4-word groups.
func (pm *WidePackMC) runWide8(base, packBase uint64, s uncertain.NodeID, active *[8]uint64) {
	g := pm.g
	if pm.nodes8 == nil {
		pm.nodes8 = make([]wideNode8, g.NumNodes())
		pm.edges8 = make([]wideEdge8, g.NumEdges())
	}
	pm.nextPack()
	ep := pm.epoch
	epq := uint64(ep)<<32 | uint64(ep)
	nodes := pm.nodes8
	ns := &nodes[s]
	ns.mask = *active
	ns.sent = [8]uint64{}
	pm.nstamp[s] = epq
	pm.touched = append(pm.touched[:0], s)
	q := append(pm.queue[:0], s)
	for head := 0; head < len(q); head++ {
		if dt := pm.denseThreshold; dt > 0 && len(q)-head > dt {
			pm.queue = q
			cur, next := pm.ensureFrontier()
			for _, u := range q[head:] {
				cur[uint32(u)>>6] |= 1 << (uint32(u) & 63)
			}
			pm.denseWide8(base, packBase, cur, next)
			return
		}
		v := q[head]
		pm.nstamp[v] = uint64(ep)
		nv := &nodes[v]
		m0 := nv.mask[0] &^ nv.sent[0]
		m1 := nv.mask[1] &^ nv.sent[1]
		m2 := nv.mask[2] &^ nv.sent[2]
		m3 := nv.mask[3] &^ nv.sent[3]
		m4 := nv.mask[4] &^ nv.sent[4]
		m5 := nv.mask[5] &^ nv.sent[5]
		m6 := nv.mask[6] &^ nv.sent[6]
		m7 := nv.mask[7] &^ nv.sent[7]
		if m0|m1|m2|m3|m4|m5|m6|m7 == 0 {
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
				nw.mask = [8]uint64{}
				nw.sent = [8]uint64{}
				st = uint64(ep)
				pm.nstamp[dst] = st
				pm.touched = append(pm.touched, dst)
			}
			n0 := m0 &^ nw.mask[0]
			n1 := m1 &^ nw.mask[1]
			n2 := m2 &^ nw.mask[2]
			n3 := m3 &^ nw.mask[3]
			n4 := m4 &^ nw.mask[4]
			n5 := m5 &^ nw.mask[5]
			n6 := m6 &^ nw.mask[6]
			n7 := m7 &^ nw.mask[7]
			if n0|n1|n2|n3|n4|n5|n6|n7 == 0 {
				continue
			}
			slot := lo + i
			ee := &pm.edges8[slot]
			if pm.edgeEpoch[slot] != ep ||
				(n0&^ee.dec[0])|(n1&^ee.dec[1])|(n2&^ee.dec[2])|(n3&^ee.dec[3])|
					(n4&^ee.dec[4])|(n5&^ee.dec[5])|(n6&^ee.dec[6])|(n7&^ee.dec[7]) != 0 {
				pm.drawEdge8(base, packBase, ids[i], slot, n0, n1, n2, n3, n4, n5, n6, n7)
			}
			g0 := n0 & ee.mask[0]
			g1 := n1 & ee.mask[1]
			g2 := n2 & ee.mask[2]
			g3 := n3 & ee.mask[3]
			g4 := n4 & ee.mask[4]
			g5 := n5 & ee.mask[5]
			g6 := n6 & ee.mask[6]
			g7 := n7 & ee.mask[7]
			if g0|g1|g2|g3|g4|g5|g6|g7 == 0 {
				continue
			}
			nw.mask[0] |= g0
			nw.mask[1] |= g1
			nw.mask[2] |= g2
			nw.mask[3] |= g3
			nw.mask[4] |= g4
			nw.mask[5] |= g5
			nw.mask[6] |= g6
			nw.mask[7] |= g7
			if st>>32 != uint64(ep) {
				pm.nstamp[dst] = epq
				q = append(q, dst)
			}
		}
	}
	pm.queue = q
}

// denseWide8 finishes an 8-word pack level-synchronously over the
// frontier bitmaps, exactly as denseWide4 does for 4-word packs.
func (pm *WidePackMC) denseWide8(base, packBase uint64, cur, next []uint64) {
	g := pm.g
	ep := pm.epoch
	nodes := pm.nodes8
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
				m4 := nv.mask[4] &^ nv.sent[4]
				m5 := nv.mask[5] &^ nv.sent[5]
				m6 := nv.mask[6] &^ nv.sent[6]
				m7 := nv.mask[7] &^ nv.sent[7]
				if m0|m1|m2|m3|m4|m5|m6|m7 == 0 {
					continue
				}
				nv.sent = nv.mask
				outs := g.OutNeighbors(v)
				ids := g.OutEdgeIDs(v)
				lo, _ := g.OutSpan(v)
				for i, dst := range outs {
					nw := &nodes[dst]
					if uint32(pm.nstamp[dst]) != ep {
						nw.mask = [8]uint64{}
						nw.sent = [8]uint64{}
						pm.nstamp[dst] = uint64(ep)
						pm.touched = append(pm.touched, dst)
					}
					n0 := m0 &^ nw.mask[0]
					n1 := m1 &^ nw.mask[1]
					n2 := m2 &^ nw.mask[2]
					n3 := m3 &^ nw.mask[3]
					n4 := m4 &^ nw.mask[4]
					n5 := m5 &^ nw.mask[5]
					n6 := m6 &^ nw.mask[6]
					n7 := m7 &^ nw.mask[7]
					if n0|n1|n2|n3|n4|n5|n6|n7 == 0 {
						continue
					}
					slot := lo + i
					ee := &pm.edges8[slot]
					if pm.edgeEpoch[slot] != ep ||
						(n0&^ee.dec[0])|(n1&^ee.dec[1])|(n2&^ee.dec[2])|(n3&^ee.dec[3])|
							(n4&^ee.dec[4])|(n5&^ee.dec[5])|(n6&^ee.dec[6])|(n7&^ee.dec[7]) != 0 {
						pm.drawEdge8(base, packBase, ids[i], slot, n0, n1, n2, n3, n4, n5, n6, n7)
					}
					g0 := n0 & ee.mask[0]
					g1 := n1 & ee.mask[1]
					g2 := n2 & ee.mask[2]
					g3 := n3 & ee.mask[3]
					g4 := n4 & ee.mask[4]
					g5 := n5 & ee.mask[5]
					g6 := n6 & ee.mask[6]
					g7 := n7 & ee.mask[7]
					if g0|g1|g2|g3|g4|g5|g6|g7 == 0 {
						continue
					}
					nw.mask[0] |= g0
					nw.mask[1] |= g1
					nw.mask[2] |= g2
					nw.mask[3] |= g3
					nw.mask[4] |= g4
					nw.mask[5] |= g5
					nw.mask[6] |= g6
					nw.mask[7] |= g7
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

// drawEdge8 is drawEdge4 for 8-word groups: one key combine per edge,
// then two fused four-word rng.MaskAtFixed4 calls (words 0-3 and 4-7),
// each word on 64-world pack packBase+ww's exact counter stream. State
// lives at the edge's out-CSR slot; e only keys the counter stream.
func (pm *WidePackMC) drawEdge8(base, packBase uint64, e uncertain.EdgeID, slot int, n0, n1, n2, n3, n4, n5, n6, n7 uint64) {
	ee := &pm.edges8[slot]
	if pm.edgeEpoch[slot] != pm.epoch {
		*ee = wideEdge8{}
		pm.edgeEpoch[slot] = pm.epoch
	}
	qf := pm.qfix[slot]
	z0 := base + mixGolden*packBase + mixMul1*uint64(uint32(e)) + 1
	z1 := z0 + mixGolden
	z2 := z1 + mixGolden
	z3 := z2 + mixGolden
	z4 := z3 + mixGolden
	z5 := z4 + mixGolden
	z6 := z5 + mixGolden
	z7 := z6 + mixGolden
	var lo, hi [4]uint64
	if n0&^ee.dec[0] != 0 {
		lo[0] = n0 | ee.dec[0]
	}
	if n1&^ee.dec[1] != 0 {
		lo[1] = n1 | ee.dec[1]
	}
	if n2&^ee.dec[2] != 0 {
		lo[2] = n2 | ee.dec[2]
	}
	if n3&^ee.dec[3] != 0 {
		lo[3] = n3 | ee.dec[3]
	}
	if n4&^ee.dec[4] != 0 {
		hi[0] = n4 | ee.dec[4]
	}
	if n5&^ee.dec[5] != 0 {
		hi[1] = n5 | ee.dec[5]
	}
	if n6&^ee.dec[6] != 0 {
		hi[2] = n6 | ee.dec[6]
	}
	if n7&^ee.dec[7] != 0 {
		hi[3] = n7 | ee.dec[7]
	}
	if lo != [4]uint64{} {
		rng.MaskAtFixed4(mixFinal(z0), mixFinal(z1), mixFinal(z2), mixFinal(z3),
			qf, &lo, (*[4]uint64)(ee.mask[:4]), (*[4]uint64)(ee.dec[:4]))
	}
	if hi != [4]uint64{} {
		rng.MaskAtFixed4(mixFinal(z4), mixFinal(z5), mixFinal(z6), mixFinal(z7),
			qf, &hi, (*[4]uint64)(ee.mask[4:]), (*[4]uint64)(ee.dec[4:]))
	}
}

package bounds

import (
	"fmt"
	"math"
	"sync"

	"relcomp/internal/bitvec"
	"relcomp/internal/uncertain"
)

// label is what one direction of a search knows about one node.
type label struct {
	prob float64          // largest product found of a path between the root and the node
	via  uncertain.EdgeID // that path's edge at the node; -1 at the root
	seen uint32           // the epoch that wrote prob and via; any other means unreached
}

type item struct {
	prob float64
	node uncertain.NodeID
}

type hop struct {
	level int32
	seen  uint32
} // seen as in label

// scratch is everything a call works in. It carries nothing from one call
// to the next: per-node entries count only at the epoch that wrote them,
// and removed is all zero between calls.
type scratch struct {
	epoch    uint32
	labels   [2][]label         // [0] from s along out-edges, [1] from t along in-edges
	heaps    [2][]item          // max-heaps on prob, with lazy deletion
	removed  bitvec.Vector      // over edge ids: consumed by an earlier round
	consumed []uncertain.EdgeID // the bits set in removed
	hops     []hop
	queue    []uncertain.NodeID
	cutMiss  []float64 // per BFS level, Π(1-p) over the edges crossing into it
	// visit, when set, is handed the edge ids of each path lowerBound
	// consumes. Only tests set it, and unset it before the scratch goes back.
	visit func(path []uncertain.EdgeID)
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

// with checks the query and runs f on it in scratch large enough for g.
func with[T any](g *uncertain.Graph, s, t uncertain.NodeID, f func(*scratch, *uncertain.Graph, uncertain.NodeID, uncertain.NodeID) T) (out T, err error) {
	n := g.NumNodes()
	if s < 0 || int(s) >= n || t < 0 || int(t) >= n {
		return out, fmt.Errorf("bounds: query (%d,%d) out of range [0,%d)", s, t, n)
	}
	sc := pool.Get().(*scratch)
	if sc.epoch > math.MaxUint32-32 {
		*sc = scratch{} // a call takes at most 17 epochs; none may wrap onto an old stamp
	}
	if len(sc.hops) < n {
		sc.labels = [2][]label{make([]label, n), make([]label, n)}
		sc.hops, sc.queue = make([]hop, n), make([]uncertain.NodeID, 0, n)
	}
	if m := g.NumEdges(); len(sc.removed) < bitvec.WordsFor(m) {
		sc.removed = bitvec.New(m)
	}
	out = f(sc, g, s, t)
	for _, id := range sc.consumed {
		sc.removed.Clear(int(id))
	}
	sc.consumed = sc.consumed[:0]
	pool.Put(sc)
	return out, nil
}

// search finds the most reliable s-t path (s != t) over the live edges not
// in removed: a Dijkstra from each end, taking turns. It returns the
// path's probability and a node on it, from which direction 0's via edges
// lead back to s and direction 1's on to t; (0, -1) if there is no path.
//
// No factor exceeds 1, so a direction settles nodes in non-increasing order
// of prob and reaches any it has yet to settle with at most its heap's top.
// A path not counted in best has such a node in each direction, hence at
// most top·top: the loop ends, and labels stop being queued, on that test.
func (sc *scratch) search(g *uncertain.Graph, s, t uncertain.NodeID) (best float64, meet uncertain.NodeID) {
	sc.epoch++
	epoch, labels, heaps := sc.epoch, &sc.labels, &sc.heaps
	labels[0][s] = label{prob: 1, via: -1, seen: epoch}
	labels[1][t] = label{prob: 1, via: -1, seen: epoch}
	heaps[0], heaps[1] = append(heaps[0][:0], item{1, s}), append(heaps[1][:0], item{1, t})
	meet = -1
	for d := 1; len(heaps[0]) > 0 && len(heaps[1]) > 0 && heaps[0][0].prob*heaps[1][0].prob > best; {
		d ^= 1
		it := pop(&heaps[d])
		if it.prob != labels[d][it.node].prob {
			continue // superseded by a better label for the node
		}
		nbrs, ids := g.OutNeighbors(it.node), g.OutEdgeIDs(it.node)
		if d == 1 {
			nbrs, ids = g.InNeighbors(it.node), g.InEdgeIDs(it.node)
		}
		for i, w := range nbrs {
			id := ids[i]
			if sc.removed.Get(int(id)) {
				continue
			}
			c := it.prob * g.Edge(id).P
			lw := &labels[d][w]
			if c <= 0 || lw.seen == epoch && c <= lw.prob { // c == 0: a tombstone
				continue
			}
			*lw = label{prob: c, via: id, seen: epoch}
			if ow := &labels[d^1][w]; ow.seen == epoch && c*ow.prob > best {
				best, meet = c*ow.prob, w
			}
			if c*heaps[d^1][0].prob > best {
				push(&heaps[d], item{c, w})
			}
		}
	}
	return best, meet
}

// consume takes the edges by which direction dir reached v, from v to
// the root, away from later searches and appends their ids to consumed.
func (sc *scratch) consume(g *uncertain.Graph, dir int, v uncertain.NodeID) {
	labels := sc.labels[dir]
	for id := labels[v].via; id >= 0; id = labels[v].via {
		sc.removed.Set(int(id))
		sc.consumed = append(sc.consumed, id)
		if v = g.Edge(id).From; dir == 1 {
			v = g.Edge(id).To
		}
	}
}

// levelCuts runs a BFS from s over the skeleton, expanding no node at t's
// level or beyond, and reports whether it reached t. It leaves in cutMiss[i]
// the product of 1-p over the edges from below level i to level i or beyond:
// a BFS edge descends at most one level, so each is in one such cut or none.
func (sc *scratch) levelCuts(g *uncertain.Graph, s, t uncertain.NodeID) bool {
	sc.epoch++
	epoch, hops := sc.epoch, sc.hops
	hops[s] = hop{0, epoch}
	queue, miss := append(sc.queue[:0], s), append(sc.cutMiss[:0], 1)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		next := hops[u].level + 1
		if hops[t].seen == epoch && next > hops[t].level {
			break
		}
		if int(next) == len(miss) {
			miss = append(miss, 1)
		}
		ps := g.OutProbs(u)
		for i, v := range g.OutNeighbors(u) {
			if hops[v].seen != epoch {
				hops[v] = hop{next, epoch}
				queue = append(queue, v)
			}
			if hops[v].level == next {
				miss[next] *= 1 - ps[i]
			}
		}
	}
	sc.queue, sc.cutMiss = queue, miss
	return hops[t].seen == epoch
}

func push(heap *[]item, it item) {
	h := append(*heap, it)
	i := len(h) - 1
	for ; i > 0 && h[(i-1)/2].prob < it.prob; i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = it
	*heap = h
}

func pop(heap *[]item) item {
	h, n := *heap, len(*heap)-1
	top := h[0]
	h[0] = h[n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && h[c+1].prob > h[c].prob {
			c++
		}
		if c >= n || h[c].prob <= h[i].prob {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*heap = h[:n]
	return top
}

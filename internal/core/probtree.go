package core

import (
	"fmt"
	"sort"

	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
)

// DefaultTreeWidth is the FWD decomposition width. The index is lossless
// for widths up to 2 (Maniu et al., TODS 2017), so the paper fixes w = 2.
const DefaultTreeWidth = 2

// InnerFactory builds the estimator ProbTree runs on the spliced query
// graph. The paper's default is MC; Section 3.8 couples ProbTree with LP+,
// RHH and RSS through this hook.
type InnerFactory func(g *uncertain.Graph, seed uint64) Estimator

// ProbTree is the FWD (fixed-width tree decomposition) index of Maniu et
// al. (TODS 2017), Algorithms 7–8 of the paper. Offline, nodes of degree
// at most w are iteratively eliminated into "bags" holding their incident
// probabilistic edges, and each bag's two-terminal reachability
// probabilities are folded bottom-up into its parent. Online, an s-t query
// splices together the bags on the leaf-to-root paths of s and t plus the
// pre-computed contributions of all untouched branches, producing a small
// equivalent graph on which any estimator can run.
//
// Following the paper's complexity adaptation, only reachability
// probabilities (not full distance distributions) are pre-computed, making
// the per-bag cost O(w²) instead of O(w²·d).
//
// Like BFS Sharing, the implementation splits along the offline/online
// boundary: ProbTreeIndex holds the decomposition (bags, parent links,
// pre-computed contributions), built once and read-only afterwards;
// ProbTreeQuerier holds the per-borrower splice scratch and the inner
// sampler's random stream. Many queriers share one index concurrently;
// each querier serves one goroutine. ProbTree bundles a privately owned
// index with one querier, preserving the original API.

// ProbTreeIndex is the offline FWD decomposition. Once built it is
// read-only and safe to share across any number of queriers.
type ProbTreeIndex struct {
	g     *uncertain.Graph
	width int

	bags  []ptBag
	root  int
	bagOf []int32 // node -> index of the bag covering it, -1 if in root
}

type ptBag struct {
	covered  uncertain.NodeID // eliminated node (-1 for the root bag)
	nodes    []uncertain.NodeID
	raw      []uncertain.Edge // original edges owned by this bag
	parent   int              // -1 for root
	children []int
	contrib  []uncertain.Edge // derived edges between the uncovered nodes
}

// NewProbTreeIndex builds the FWD index with the given width. Widths above
// 2 make the index lossy; the constructor allows them for experimentation
// but the paper (and the tests) use w <= 2. Construction is deterministic:
// it consumes no randomness.
func NewProbTreeIndex(g *uncertain.Graph, width int) *ProbTreeIndex {
	if width < 1 {
		panic(fmt.Sprintf("core: ProbTree width %d must be >= 1", width))
	}
	ix := &ProbTreeIndex{g: g, width: width}
	ix.build()
	return ix
}

// Width returns the decomposition width.
func (ix *ProbTreeIndex) Width() int { return ix.width }

// Graph returns the graph the index was built over.
func (ix *ProbTreeIndex) Graph() *uncertain.Graph { return ix.g }

// NumBags returns the number of bags including the root.
func (ix *ProbTreeIndex) NumBags() int { return len(ix.bags) }

// RootSize returns the number of nodes left in the root bag.
func (ix *ProbTreeIndex) RootSize() int { return len(ix.bags[ix.root].nodes) }

// Bytes returns the approximate index size: bag structure, raw edges and
// contributions.
func (ix *ProbTreeIndex) Bytes() int64 {
	var bytes int64
	for i := range ix.bags {
		b := &ix.bags[i]
		bytes += 32 // fixed fields
		bytes += int64(len(b.nodes)) * 4
		bytes += int64(len(b.raw)+len(b.contrib)) * 24
		bytes += int64(len(b.children)) * 8
	}
	bytes += int64(len(ix.bagOf)) * 4
	return bytes
}

// build runs the three phases of Algorithm 7: relaxed fixed-width
// decomposition, tree construction, and bottom-up reliability
// pre-computation.
func (ix *ProbTreeIndex) build() {
	g := ix.g
	n := g.NumNodes()

	// --- Phase 1: elimination on the undirected skeleton. ---
	// adj[v] = current undirected neighbor set (original + fill edges).
	adj := make([]map[uncertain.NodeID]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[uncertain.NodeID]bool)
	}
	for _, e := range g.Edges() {
		adj[e.From][e.To] = true
		adj[e.To][e.From] = true
	}

	// Original directed edges between a node pair, keyed undirected.
	type pairKey struct{ a, b uncertain.NodeID }
	key := func(u, v uncertain.NodeID) pairKey {
		if u > v {
			u, v = v, u
		}
		return pairKey{u, v}
	}
	pairEdges := make(map[pairKey][]uncertain.EdgeID, g.NumEdges())
	for id, e := range g.Edges() {
		k := key(e.From, e.To)
		pairEdges[k] = append(pairEdges[k], uncertain.EdgeID(id))
	}
	edgeMarked := make([]bool, g.NumEdges())
	removed := make([]bool, n)

	ix.bagOf = make([]int32, n)
	for i := range ix.bagOf {
		ix.bagOf[i] = -1
	}

	// Candidate queue of nodes with degree <= width, processed smallest
	// degree first (lazily revalidated).
	takeUnmarked := func(bag *ptBag, u, v uncertain.NodeID) {
		for _, id := range pairEdges[key(u, v)] {
			if !edgeMarked[id] {
				edgeMarked[id] = true
				bag.raw = append(bag.raw, g.Edge(id))
			}
		}
	}

	// Worklist elimination, smallest degree first, equivalent to
	// Algorithm 7's "for d = 1..w: while there exists a node with degree
	// d" but linear: buckets[d] holds candidate nodes whose degree was d
	// when enqueued, lazily revalidated at pop time.
	buckets := make([][]uncertain.NodeID, ix.width+1)
	for v := 0; v < n; v++ {
		if d := len(adj[v]); d >= 1 && d <= ix.width {
			buckets[d] = append(buckets[d], uncertain.NodeID(v))
		}
	}
	for {
		var v uncertain.NodeID = -1
	scan:
		for d := 1; d <= ix.width; d++ {
			for len(buckets[d]) > 0 {
				cand := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if !removed[cand] && len(adj[cand]) == d {
					v = cand
					break scan
				}
				if !removed[cand] {
					// Stale entry: requeue under its current degree, and
					// restart the sweep if that degree is lower.
					if cd := len(adj[cand]); cd >= 1 && cd <= ix.width && cd != d {
						buckets[cd] = append(buckets[cd], cand)
						if cd < d {
							d = cd - 1 // loop post-statement restores d = cd
							continue scan
						}
					}
				}
			}
		}
		if v < 0 {
			break
		}
		nbrs := ix.eliminate(v, adj, removed, takeUnmarked)
		for _, u := range nbrs {
			if d := len(adj[u]); d >= 1 && d <= ix.width {
				buckets[d] = append(buckets[d], u)
			}
		}
	}

	// --- Root bag: everything left. ---
	root := ptBag{covered: -1, parent: -1}
	for v := 0; v < n; v++ {
		if !removed[v] {
			root.nodes = append(root.nodes, uncertain.NodeID(v))
		}
	}
	for id, e := range g.Edges() {
		if !edgeMarked[id] {
			root.raw = append(root.raw, e)
		}
	}
	ix.root = len(ix.bags)
	ix.bags = append(ix.bags, root)

	// --- Phase 2: parent links. ---
	// A bag's uncovered nodes are all eliminated later than its covered
	// node (or never); the bag covering the earliest-eliminated uncovered
	// node contains the whole uncovered set thanks to the fill-in clique.
	for i := range ix.bags {
		if i == ix.root {
			continue
		}
		b := &ix.bags[i]
		parent := ix.root
		best := int32(-1)
		for _, u := range b.nodes {
			if u == b.covered {
				continue
			}
			if cov := ix.bagOf[u]; cov >= 0 && (best < 0 || cov < best) {
				best = cov
			}
		}
		if best >= 0 {
			parent = int(best)
		}
		b.parent = parent
		ix.bags[parent].children = append(ix.bags[parent].children, i)
	}

	// --- Phase 3: bottom-up contribution pre-computation. ---
	// Bags were created in elimination order, so every child precedes its
	// parent; one forward pass is bottom-up.
	for i := range ix.bags {
		if i == ix.root {
			continue
		}
		ix.computeContribution(i)
	}
}

// DefaultProbTreeChurn returns the default repair budget for a graph of m
// edges: the number of changed edges above which Repair falls back to a
// full rebuild. Repair walks every bag's raw list plus the dirty
// contribution chains, so its advantage over a rebuild (which also redoes
// elimination and every contribution) erodes as churn approaches the
// edge count; one eighth is a comfortable margin.
func DefaultProbTreeChurn(m int) int {
	if c := m / 8; c > 16 {
		return c
	}
	return 16
}

// Repair derives the index for newG from this one after a batch of edge
// changes. The decomposition's structure (bags, parent links, bagOf) is a
// pure function of adjacency, so a probability-only change — including
// tombstoning an edge to 0 or resurrecting one — keeps the structure and
// only patches the dirty bags: the raw-edge copies whose probability
// moved, then the contribution chains above them, bottom-up, recomputing
// a parent only while a child's contribution actually changed. The
// receiver is never modified; untouched bags share their slices with it.
//
// If newG adds new adjacency (appended edge ids) or the change exceeds
// maxChanged edges (<= 0 selects DefaultProbTreeChurn), repair cannot
// keep the structure and a full rebuild runs instead; the boolean
// reports which path was taken (true = rebuilt). Either way the result
// is identical to NewProbTreeIndex(newG, width) — Repair recomputes the
// same deterministic folds in the same order — so queriers over a
// repaired index answer bit-identically to a from-scratch build.
func (ix *ProbTreeIndex) Repair(newG *uncertain.Graph, changed []uncertain.EdgeID, maxChanged int) (*ProbTreeIndex, bool) {
	if maxChanged <= 0 {
		maxChanged = DefaultProbTreeChurn(ix.g.NumEdges())
	}
	oldM := ix.g.NumEdges()
	rebuild := newG.NumEdges() != oldM || len(changed) > maxChanged
	for _, id := range changed {
		if int(id) >= oldM {
			rebuild = true
		}
	}
	if rebuild {
		return NewProbTreeIndex(newG, ix.width), true
	}

	out := &ProbTreeIndex{
		g:     newG,
		width: ix.width,
		bags:  append([]ptBag(nil), ix.bags...),
		root:  ix.root,
		bagOf: ix.bagOf,
	}

	// Patch the raw copies. Directed pairs are unique after the Builder's
	// parallel merge and every edge is owned by exactly one bag, so a
	// value match on (from, to) locates each changed id exactly once.
	want := make(map[[2]uncertain.NodeID]float64, len(changed))
	for _, id := range changed {
		e := newG.Edge(id)
		want[[2]uncertain.NodeID{e.From, e.To}] = e.P
	}
	dirty := make([]bool, len(out.bags))
	found := 0
	for bi := range out.bags {
		b := &out.bags[bi]
		copied := false
		for si, e := range b.raw {
			p, ok := want[[2]uncertain.NodeID{e.From, e.To}]
			if !ok {
				continue
			}
			if !copied {
				b.raw = append([]uncertain.Edge(nil), b.raw...)
				copied = true
			}
			b.raw[si].P = p
			found++
		}
		if copied {
			dirty[bi] = true
		}
	}
	if found != len(want) {
		panic("core: ProbTree repair could not locate every changed edge in the decomposition")
	}

	// Recompute dirty contribution chains bottom-up. Bags were created in
	// elimination order (children before parents), so one forward pass
	// sees every dirty child before its parent; an unchanged recomputed
	// contribution stops the propagation — the parent's inputs are then
	// byte-identical to a fresh build's.
	for i := range out.bags {
		if i == out.root || !dirty[i] {
			continue
		}
		old := out.bags[i].contrib
		out.bags[i].contrib = nil
		out.computeContribution(i)
		if p := out.bags[i].parent; p >= 0 && !edgeListsEqual(old, out.bags[i].contrib) {
			dirty[p] = true
		}
	}
	return out, false
}

func edgeListsEqual(a, b []uncertain.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eliminate removes v into a new bag, marking its incident unmarked edges
// and adding the fill-in clique among its neighbors. It returns v's
// neighbors so the caller can refresh its elimination worklist.
func (ix *ProbTreeIndex) eliminate(
	v uncertain.NodeID,
	adj []map[uncertain.NodeID]bool,
	removed []bool,
	takeUnmarked func(bag *ptBag, u, w uncertain.NodeID),
) []uncertain.NodeID {
	nbrs := make([]uncertain.NodeID, 0, len(adj[v]))
	for u := range adj[v] { //lint:allow maprange keys are collected then sorted before any order can escape
		nbrs = append(nbrs, u)
	}
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })

	bag := ptBag{covered: v}
	bag.nodes = append(bag.nodes, v)
	bag.nodes = append(bag.nodes, nbrs...)

	// Own every unmarked original edge among the bag's nodes.
	for i, u := range bag.nodes {
		for _, w := range bag.nodes[i+1:] {
			takeUnmarked(&bag, u, w)
		}
	}

	// Remove v, add the fill-in clique among its neighbors.
	for _, u := range nbrs {
		delete(adj[u], v)
	}
	adj[v] = nil
	removed[v] = true
	for i, u := range nbrs {
		for _, w := range nbrs[i+1:] {
			adj[u][w] = true
			adj[w][u] = true
		}
	}

	ix.bagOf[v] = int32(len(ix.bags))
	ix.bags = append(ix.bags, bag)
	return nbrs
}

// computeContribution folds bag i's subtree into derived edges between its
// uncovered nodes: for each ordered uncovered pair (a,b), the exact
// probability that b is reachable from a within the bag's effective graph
// (raw edges plus children contributions). With w <= 2 the bag graph has
// at most 3 nodes, so exact enumeration is cheap and the fold is lossless
// per direction.
func (ix *ProbTreeIndex) computeContribution(i int) {
	b := &ix.bags[i]
	uncovered := make([]uncertain.NodeID, 0, len(b.nodes)-1)
	for _, u := range b.nodes {
		if u != b.covered {
			uncovered = append(uncovered, u)
		}
	}
	if len(uncovered) < 2 {
		return
	}

	// Effective edge multiset.
	eff := append([]uncertain.Edge(nil), b.raw...)
	for _, c := range b.children {
		eff = append(eff, ix.bags[c].contrib...)
	}
	if len(eff) == 0 {
		return
	}

	for x := 0; x < len(uncovered); x++ {
		for y := 0; y < len(uncovered); y++ {
			if x == y {
				continue
			}
			a, bb := uncovered[x], uncovered[y]
			p := smallReliability(eff, a, bb)
			if p > 0 {
				b.contrib = append(b.contrib, uncertain.Edge{From: a, To: bb, P: p})
			}
		}
	}
}

// smallReliability computes exact s-t reliability over an edge list with a
// handful of distinct nodes (<= w+1 = 3 for the default width). Parallel
// directed edges are merged with noisy-or first (exact, since edges are
// independent); then all 2^m worlds of the merged list are enumerated.
func smallReliability(edges []uncertain.Edge, s, t uncertain.NodeID) float64 {
	merged := make(map[[2]uncertain.NodeID]float64, len(edges))
	for _, e := range edges {
		k := [2]uncertain.NodeID{e.From, e.To}
		merged[k] = 1 - (1-merged[k])*(1-e.P)
	}
	type dedge struct {
		from, to uncertain.NodeID
		p        float64
	}
	list := make([]dedge, 0, len(merged))
	for k, p := range merged { //lint:allow maprange entries are collected then sorted before any order can escape
		list = append(list, dedge{k[0], k[1], p})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].from != list[j].from {
			return list[i].from < list[j].from
		}
		return list[i].to < list[j].to
	})
	if len(list) > 20 {
		panic(fmt.Sprintf("core: bag graph with %d merged edges exceeds exact fold limit", len(list)))
	}

	total := 0.0
	for mask := uint32(0); mask < 1<<uint(len(list)); mask++ {
		pr := 1.0
		for i, e := range list {
			if mask&(1<<uint(i)) != 0 {
				pr *= e.p
			} else {
				pr *= 1 - e.p
			}
		}
		if pr == 0 {
			continue
		}
		// Tiny reachability over the selected edges.
		reached := map[uncertain.NodeID]bool{s: true}
		for changed := true; changed; {
			changed = false
			for i, e := range list {
				if mask&(1<<uint(i)) != 0 && reached[e.from] && !reached[e.to] {
					reached[e.to] = true
					changed = true
				}
			}
		}
		if reached[t] {
			total += pr
		}
	}
	return total
}

// Querier returns a fresh online handle over the index: the per-borrower
// splice scratch plus the inner sampler stream seeded from seed (nil inner
// means MC). Handles are cheap; many may share one index, each serving a
// single goroutine.
func (ix *ProbTreeIndex) Querier(seed uint64, inner InnerFactory) *ProbTreeQuerier {
	name := "ProbTree"
	if inner == nil {
		inner = func(qg *uncertain.Graph, s uint64) Estimator { return NewMC(qg, s) }
	} else {
		probe := inner(uncertain.NewBuilder(1).Build(), 1)
		if probe.Name() != "MC" {
			name = "ProbTree+" + probe.Name()
		}
	}
	return &ProbTreeQuerier{
		ix:            ix,
		inner:         inner,
		rng:           rng.New(seed),
		innerName:     name,
		expandedStamp: make([]int32, len(ix.bags)),
		nodeOf:        make(map[uncertain.NodeID]uncertain.NodeID),
	}
}

// ProbTreeQuerier is the online half of ProbTree: per-borrower splice
// scratch and inner-sampler stream over a shared read-only ProbTreeIndex.
// It implements Estimator. Not safe for concurrent use — one querier per
// goroutine; the shared index is.
type ProbTreeQuerier struct {
	ix        *ProbTreeIndex
	inner     InnerFactory
	rng       *rng.Source
	innerName string

	// Query scratch.
	expandedStamp []int32
	stampRound    int32
	nodeOf        map[uncertain.NodeID]uncertain.NodeID
	edgeScratch   []uncertain.Edge
	chainScratch  []int
	tChainScratch []int
}

// Index returns the shared offline index this querier reads.
func (q *ProbTreeQuerier) Index() *ProbTreeIndex { return q.ix }

// Name implements Estimator.
func (q *ProbTreeQuerier) Name() string { return q.innerName }

// Reseed implements Seeder.
func (q *ProbTreeQuerier) Reseed(seed uint64) { q.rng.Seed(seed) }

// Width returns the decomposition width.
func (q *ProbTreeQuerier) Width() int { return q.ix.width }

// NumBags returns the number of bags including the root.
func (q *ProbTreeQuerier) NumBags() int { return q.ix.NumBags() }

// RootSize returns the number of nodes left in the root bag.
func (q *ProbTreeQuerier) RootSize() int { return q.ix.RootSize() }

// QueryGraph materializes the small equivalent graph for an s-t query
// (Algorithm 8) and returns it together with the renamed endpoints. The
// boolean result is false when s or t has no edges in the spliced graph,
// in which case the reliability is 0 (or 1 if s == t).
func (q *ProbTreeQuerier) QueryGraph(s, t uncertain.NodeID) (qg *uncertain.Graph, qs, qt uncertain.NodeID, ok bool) {
	ix := q.ix
	q.stampRound++
	stamp := q.stampRound
	// Expand the leaf-to-root chains of s and t.
	for _, v := range []uncertain.NodeID{s, t} {
		b := ix.bagOf[v]
		for b >= 0 {
			q.expandedStamp[b] = stamp
			b = int32(ix.bags[b].parent)
		}
	}
	q.expandedStamp[ix.root] = stamp

	// Gather edges: every expanded bag donates its raw edges; every
	// non-expanded child of an expanded bag donates its contribution.
	edges := q.edgeScratch[:0]
	for i := range ix.bags {
		if q.expandedStamp[i] != stamp {
			continue
		}
		edges = append(edges, ix.bags[i].raw...)
		for _, c := range ix.bags[i].children {
			if q.expandedStamp[c] != stamp {
				edges = append(edges, ix.bags[c].contrib...)
			}
		}
	}
	q.edgeScratch = edges

	qg, qs, qt = q.buildSpliced(s, t, edges)
	return qg, qs, qt, len(edges) > 0
}

// buildSpliced renames the spliced edge list's nodes densely (s first,
// then t, then edge endpoints in order) and builds the query graph. Both
// the per-query and the source-grouped splice paths funnel through it, so
// a given edge list always yields the identical graph.
func (q *ProbTreeQuerier) buildSpliced(s, t uncertain.NodeID, edges []uncertain.Edge) (*uncertain.Graph, uncertain.NodeID, uncertain.NodeID) {
	nodeOf := q.nodeOf
	clear(nodeOf)
	id := uncertain.NodeID(0)
	intern := func(v uncertain.NodeID) {
		if _, seen := nodeOf[v]; !seen {
			nodeOf[v] = id
			id++
		}
	}
	// Tombstoned edges (p = 0, from dynamic-graph removal) stay in the
	// bags' raw lists — keeping slot order stable is what makes a repaired
	// index byte-identical to a fresh build — but they exist in no world,
	// so the splice drops them here, before the Builder's (0,1] check.
	intern(s)
	intern(t)
	for _, e := range edges {
		if e.P <= 0 {
			continue
		}
		intern(e.From)
		intern(e.To)
	}

	qb := uncertain.NewBuilder(int(id)).SetName("probtree-query")
	for _, e := range edges {
		if e.P <= 0 {
			continue
		}
		qb.MustAddEdge(nodeOf[e.From], nodeOf[e.To], e.P)
	}
	return qb.Build(), nodeOf[s], nodeOf[t]
}

// SplicedQuery is one target's spliced equivalent graph, ready for an
// inner estimator. The flags mirror Estimate's trivial cases so
// EstimateSpliced(Splice(s, t), k) is exactly Estimate(s, t, k).
type SplicedQuery struct {
	G    *uncertain.Graph
	S, T uncertain.NodeID // renamed endpoints within G
	OK   bool             // false: empty spliced graph, reliability is 0
	Same bool             // source == target, reliability is 1
}

// Splice builds the spliced query graph for one (s, t) pair.
func (q *ProbTreeQuerier) Splice(s, t uncertain.NodeID) SplicedQuery {
	if s == t {
		return SplicedQuery{Same: true}
	}
	qg, qs, qt, ok := q.QueryGraph(s, t)
	return SplicedQuery{G: qg, S: qs, T: qt, OK: ok}
}

// EstimateSpliced runs the inner estimator on an already-spliced query
// graph with the full sample budget: one Advance(k) of SplicedSampler's
// session.
func (q *ProbTreeQuerier) EstimateSpliced(sq SplicedQuery, k int) float64 {
	return estimateOnce(q.SplicedSampler(sq), k)
}

// Estimate implements Estimator: build the query graph, then run the inner
// estimator on it with the full sample budget.
func (q *ProbTreeQuerier) Estimate(s, t uncertain.NodeID, k int) float64 {
	mustValidQuery(q.ix.g, s, t, k)
	return q.EstimateSpliced(q.Splice(s, t), k)
}

// Sampler implements IncrementalEstimator: the query graph is spliced
// once at open, the inner estimator is constructed once from the querier's
// stream (the same draw EstimateSpliced charges), and the session then
// advances on the spliced graph. With an incrementally-advancing inner
// estimator (the MC default) chunked advancement is bit-identical to one
// Estimate call with the summed budget.
func (q *ProbTreeQuerier) Sampler(s, t uncertain.NodeID) Sampler {
	mustValidQuery(q.ix.g, s, t, 1)
	return q.SplicedSampler(q.Splice(s, t))
}

// SplicedSampler opens an incremental session over an already-spliced
// query graph — the batch layer splices a source group once and opens one
// session per target.
func (q *ProbTreeQuerier) SplicedSampler(sq SplicedQuery) Sampler {
	if sq.Same {
		return &trivialSampler{estimate: 1}
	}
	if !sq.OK {
		return &trivialSampler{estimate: 0}
	}
	inner := q.inner(sq.G, q.rng.Uint64())
	return NewSampler(inner, sq.S, sq.T)
}

var _ IncrementalEstimator = (*ProbTreeQuerier)(nil)

// IndexBytes returns the approximate index size: bag structure, raw edges
// and contributions.
func (q *ProbTreeQuerier) IndexBytes() int64 { return q.ix.Bytes() }

// ScratchBytes returns the size of this handle's online splice scratch
// alone — the marginal memory of one more querier over a shared index.
func (q *ProbTreeQuerier) ScratchBytes() int64 {
	return int64(len(q.expandedStamp))*4 +
		int64(cap(q.edgeScratch))*24 +
		int64(cap(q.chainScratch)+cap(q.tChainScratch))*8
}

// MemoryBytes implements MemoryReporter: the loaded index plus query
// scratch. Handles sharing one index each report the full index size; use
// ScratchBytes for the marginal cost of a handle.
func (q *ProbTreeQuerier) MemoryBytes() int64 { return q.IndexBytes() + q.ScratchBytes() }

// ProbTree bundles a privately owned ProbTreeIndex with one querier — the
// original single-owner estimator API.
type ProbTree struct {
	ProbTreeQuerier
}

// NewProbTree builds the FWD index with the default width (2) and MC as
// the inner estimator.
func NewProbTree(g *uncertain.Graph, seed uint64) *ProbTree {
	return NewProbTreeWith(g, seed, DefaultTreeWidth, nil)
}

// NewProbTreeWith builds the index with an explicit width and inner
// estimator factory (nil means MC).
func NewProbTreeWith(g *uncertain.Graph, seed uint64, width int, inner InnerFactory) *ProbTree {
	return &ProbTree{*NewProbTreeIndex(g, width).Querier(seed, inner)}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"relcomp"
)

// Set-up shared by every workload: the graph is -dataset <name> -scale 1
// -seed graphSeed, and the child runs with these flags and GOMAXPROCS.
const (
	graphSeed   = 42
	maxK        = 2000
	cacheSize   = 4096
	workers     = 2
	hops        = 2 // the paper's h=2 query workload
	writeOps    = 8 // update ops per POST /v1/mutate
	readsPerWr  = 4 // read batches between two writes in the mutate mix
	batchSrcs   = 4 // sources per read batch
	srcTargets  = 8 // fixed h=2 targets per pool source
	srcPool     = 64
	mixSteps    = 4000 // pre-encoded reads+writes; wraps if a window outruns it
	probeWarm   = 16   // writes a traced run sends before it times any: a child's first writes are 2-3x slower
	probeWrites = 32   // writes per traced run outside the mix, probeWarm of them untimed
)

type shape int

const (
	routed    shape = iota // POST /v1/query {s,t,k}: the engine picks the estimator
	pinned                 // POST /v1/query pinned to the pack estimator
	mutateMix              // POST /v1/batch reads interleaved with POST /v1/mutate
)

type workload struct {
	name    string
	dataset string
	shape   shape
	clients int
	k       int
	pairs   int // unique pairs in the request list (> 2x cacheSize, so a wrap never hits)
	warm    int // workload-shaped warm-up requests, after the index warm-up
}

// The names are fixed: later issues and BENCHMARK.json cite them, and
// BENCHMARK.json and README.md say why each exists. dblp_routed asks 200
// samples where the others ask the paper's 1000: at 1000 its requests take
// 60 ms to 2 s each, a window completes some 60 of them, and no two seeds
// agree within a quarter.
var workloads = []workload{
	{name: "dblp_routed", dataset: "DBLP_0.2", shape: routed, clients: 2, k: 200, pairs: 2*cacheSize + 1, warm: 2},
	{name: "nethept_routed", dataset: "NetHept", shape: routed, clients: 2, k: 1000, pairs: 4 * cacheSize, warm: 16},
	{name: "dblp_pack", dataset: "DBLP_0.2", shape: pinned, clients: 2, k: 1000, pairs: 2*cacheSize + 1, warm: 8},
	{name: "dblp_mutate_mix", dataset: "DBLP_0.2", shape: mutateMix, clients: 1, k: 1000, warm: 4},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// packEstimator is the widest pack estimator this tree's engine builds.
func packEstimator() string {
	have := map[string]bool{}
	for _, n := range relcomp.DefaultEngineEstimators() {
		have[n] = true
	}
	for _, n := range []string{"PackMC512", "PackMC256", "PackMC"} {
		if have[n] {
			return n
		}
	}
	return ""
}

// query is one s-t query as sent; estimator is empty for a routed query.
type query struct {
	S         int    `json:"s"`
	T         int    `json:"t"`
	K         int    `json:"k"`
	Estimator string `json:"estimator,omitempty"`
}

type mutation struct {
	Op   string  `json:"op"`
	From int     `json:"from"`
	To   int     `json:"to"`
	P    float64 `json:"p"`
}

// step is one HTTP request of a plan, encoded before any clock starts.
type step struct {
	path    string
	body    []byte
	queries []query    // reads: what the body asks, in order
	muts    []mutation // writes
}

func (s *step) write() bool { return s.muts != nil }

// plan is everything a run sends: warm-up requests (outside the measured
// list), the measured request list (wraps), and the writes a traced run
// uses to time the write path of a read-only workload.
type plan struct {
	warm   []step
	steps  []step
	probes []step
	pool   []source // srcPool sources with srcTargets targets each, plus one kept for warm-up
}

// source is a node with a fixed set of targets at distance hops.
type source struct {
	s       int
	targets []int
}

// batch asks every target of the given pool sources from one estimator.
func (p *plan) batch(srcs []source, k int, estimator string) step {
	var qs []query
	for _, src := range srcs {
		for _, t := range src.targets {
			qs = append(qs, query{S: src.s, T: t, K: k, Estimator: estimator})
		}
	}
	return batchStep(qs)
}

func mustJSON(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err) // only plain structs reach here
	}
	return buf.Bytes()
}

func queryStep(q query) step {
	return step{path: "/v1/query", body: mustJSON(q), queries: []query{q}}
}

func batchStep(qs []query) step {
	return step{path: "/v1/batch", body: mustJSON(map[string]any{"queries": qs}), queries: qs}
}

func writeStep(g *relcomp.Graph, r *rand.Rand) step {
	muts := make([]mutation, writeOps)
	for i := range muts {
		e := g.Edge(relcomp.EdgeID(r.Intn(g.NumEdges())))
		muts[i] = mutation{Op: "update", From: int(e.From), To: int(e.To), P: 0.05 + 0.9*r.Float64()}
	}
	return step{path: "/v1/mutate", body: mustJSON(map[string]any{"mutations": muts}), muts: muts}
}

// indexWarm pins one query to each index estimator: their lazy index
// builds (or snapshot page-ins) are set-up, not request time, and a write
// repairs exactly the indexes that exist.
func indexWarm(p relcomp.Pair, k int) []step {
	return []step{
		queryStep(query{S: int(p.S), T: int(p.T), K: k, Estimator: "BFSSharing"}),
		queryStep(query{S: int(p.S), T: int(p.T), K: k, Estimator: "ProbTree"}),
	}
}

// buildPlan makes a workload's requests from seed alone: equal seeds give
// byte-identical plans.
func buildPlan(w *workload, g *relcomp.Graph, seed uint64) (*plan, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	p := &plan{}
	for i := 0; i < probeWrites; i++ {
		p.probes = append(p.probes, writeStep(g, r))
	}
	if err := p.drawPool(g, r); err != nil {
		return nil, fmt.Errorf("%s: %v", w.name, err)
	}
	if w.shape == mutateMix {
		p.buildMix(w, g, r)
		return p, nil
	}
	pairs, err := relcomp.QueryPairs(g, w.pairs+w.warm, hops, seed)
	if err != nil {
		return nil, err
	}
	est := ""
	if w.shape == pinned {
		est = packEstimator()
	}
	all := make([]step, len(pairs))
	for i, pr := range pairs {
		all[i] = queryStep(query{S: int(pr.S), T: int(pr.T), K: w.k, Estimator: est})
	}
	p.steps = all[:w.pairs]
	p.warm = append(indexWarm(pairs[w.pairs], w.k), all[w.pairs:]...)
	return p, nil
}

// drawPool picks srcPool+1 distinct sources that have at least srcTargets
// nodes at distance hops, and srcTargets of those nodes for each.
func (p *plan) drawPool(g *relcomp.Graph, r *rand.Rand) error {
	used := map[int]bool{}
	for attempts := 0; len(p.pool) <= srcPool; attempts++ {
		if attempts > 100*srcPool {
			return fmt.Errorf("graph has too few sources with %d targets at %d hops", srcTargets, hops)
		}
		s := r.Intn(g.NumNodes())
		if used[s] {
			continue
		}
		used[s] = true
		var cand []int
		for v, d := range g.HopDistances(relcomp.NodeID(s), hops) {
			if int(d) == hops {
				cand = append(cand, v)
			}
		}
		if len(cand) < srcTargets {
			continue
		}
		r.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		p.pool = append(p.pool, source{s, cand[:srcTargets]})
	}
	return nil
}

// buildMix lays out the mutate mix: a read batch asks batchSrcs
// Zipf(1.3)-drawn pool sources for all their targets, alternating between
// BFSSharing and the pack estimator; every fifth request is a write. Which
// sources are the popular ones is redrawn after every write: a write
// invalidates nearly every cached source on this graph, so hits only ever
// fall between two writes, and a hot set that moves lets one window
// average over the whole pool instead of over its three hottest sources.
func (p *plan) buildMix(w *workload, g *relcomp.Graph, r *rand.Rand) {
	zipf := rand.NewZipf(r, 1.3, 1, srcPool-1)
	ests := []string{"BFSSharing", packEstimator()}
	reads := 0
	var rank []int // rank[i] is the pool index of the i-th most popular source
	readBatch := func() step {
		var srcs []source
		seen := map[int]bool{}
		for i := 0; i < batchSrcs; i++ {
			if src := p.pool[rank[zipf.Uint64()]]; !seen[src.s] {
				seen[src.s] = true
				srcs = append(srcs, src)
			}
		}
		reads++
		return p.batch(srcs, w.k, ests[(reads-1)%2])
	}
	warm := p.pool[srcPool]
	p.warm = indexWarm(relcomp.Pair{S: relcomp.NodeID(warm.s), T: relcomp.NodeID(warm.targets[0])}, w.k)
	for i := 0; i < w.warm; i++ {
		p.warm = append(p.warm, p.batch([]source{warm}, w.k, ests[i%2]))
	}
	for len(p.steps) < mixSteps {
		rank = r.Perm(srcPool)
		for i := 0; i < readsPerWr; i++ {
			p.steps = append(p.steps, readBatch())
		}
		p.steps = append(p.steps, writeStep(g, r))
	}
}

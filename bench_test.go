package relcomp

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §8 for the experiment index), plus kernel
// benchmarks of every estimator on every dataset (the per-sample cost that
// Tables 9–14 report).
//
// The per-table/figure benchmarks run the corresponding harness experiment
// end-to-end at a miniature configuration, so `go test -bench=.` exercises
// the full measurement pipeline; `cmd/experiments` regenerates the
// experiments at realistic scale.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relcomp/internal/bounds"
	"relcomp/internal/harness"
)

// benchOptions is the miniature configuration used by the per-experiment
// benchmarks.
func benchOptions() harness.Options {
	return harness.Options{
		Scale:    0.02,
		Pairs:    3,
		Hops:     2,
		Repeats:  3,
		InitialK: 100,
		StepK:    100,
		MaxK:     300,
		Rho:      0.01,
		Seed:     5,
	}
}

// benchExperiment runs one registered experiment per iteration on a fresh
// runner (no caching across iterations, so every iteration measures the
// full pipeline).
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	exp, err := harness.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchOptions())
		if err := exp.Run(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures ---

func BenchmarkFig5_LPBias(b *testing.B)                { benchExperiment(b, "fig5") }
func BenchmarkFig7_Convergence(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8_LargeKReference(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9_TradeoffLastFM(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10_TradeoffAS(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFig11_TradeoffBioMine(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12_MemoryUsage(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkFig13_IndexCost(b *testing.B)            { benchExperiment(b, "fig13") }
func BenchmarkFig14_DistanceConvergence(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15_DistanceTime(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkFig16_ThresholdSensitivity(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17_StratumSensitivity(b *testing.B)   { benchExperiment(b, "fig17") }

// --- Tables ---

func BenchmarkTable3_RelErrLastFM(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable4_RelErrNetHept(b *testing.B)     { benchExperiment(b, "table4") }
func BenchmarkTable5_RelErrAS(b *testing.B)          { benchExperiment(b, "table5") }
func BenchmarkTable6_RelErrDBLP02(b *testing.B)      { benchExperiment(b, "table6") }
func BenchmarkTable7_RelErrDBLP005(b *testing.B)     { benchExperiment(b, "table7") }
func BenchmarkTable8_RelErrBioMine(b *testing.B)     { benchExperiment(b, "table8") }
func BenchmarkTable9_TimeLastFM(b *testing.B)        { benchExperiment(b, "table9") }
func BenchmarkTable10_TimeNetHept(b *testing.B)      { benchExperiment(b, "table10") }
func BenchmarkTable11_TimeAS(b *testing.B)           { benchExperiment(b, "table11") }
func BenchmarkTable12_TimeDBLP02(b *testing.B)       { benchExperiment(b, "table12") }
func BenchmarkTable13_TimeDBLP005(b *testing.B)      { benchExperiment(b, "table13") }
func BenchmarkTable14_TimeBioMine(b *testing.B)      { benchExperiment(b, "table14") }
func BenchmarkTable15_IndexResample(b *testing.B)    { benchExperiment(b, "table15") }
func BenchmarkTable16_ProbTreeCoupling(b *testing.B) { benchExperiment(b, "table16") }

// --- Estimator kernels (per-query cost, the quantity behind Tables 9–14) ---

// benchQuery measures one s-t query at K=250 on a scaled-down dataset.
func benchQuery(b *testing.B, dataset, estimator string) {
	b.Helper()
	opts := harness.Options{Scale: 0.1, Pairs: 3, MaxK: 300, Seed: 7}
	r := harness.NewRunner(opts)
	g, err := r.Graph(dataset)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := r.Pairs(dataset, 2)
	if err != nil {
		b.Fatal(err)
	}
	est, err := r.NewEstimator(estimator, g)
	if err != nil {
		b.Fatal(err)
	}
	p := pairs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Estimate(p.S, p.T, 250)
	}
}

func BenchmarkQuery(b *testing.B) {
	for _, ds := range []string{"lastFM", "NetHept", "AS_Topology", "DBLP_0.2", "DBLP_0.05", "BioMine"} {
		for _, est := range harness.EstimatorSet {
			b.Run(fmt.Sprintf("%s/%s", ds, est), func(b *testing.B) {
				benchQuery(b, ds, est)
			})
		}
	}
}

// benchPackWorkload runs one estimator over a dataset's full 3-pair
// workload at K=250 per iteration, so the comparison covers easy and hard
// queries rather than whichever pair happens to come first.
func benchPackWorkload(b *testing.B, dataset string, hops int, estimator string) {
	b.Helper()
	opts := harness.Options{Scale: 0.1, Pairs: 3, MaxK: 300, Seed: 7}
	r := harness.NewRunner(opts)
	g, err := r.Graph(dataset)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := r.Pairs(dataset, hops)
	if err != nil {
		b.Fatal(err)
	}
	est, err := r.NewEstimator(estimator, g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			est.Estimate(p.S, p.T, 250)
		}
	}
}

// BenchmarkPackMC is the word-packed sampler family against the MC
// baseline at equal s-t K (250, the same budget BenchmarkQuery measures):
// within each <dataset>/h=<hops> group, divide the MC row by a Pack row
// for the single-thread speedup of packing worlds. Every pack width
// answers s-t through the same 64-lane bidirectional search, so the three
// Pack rows should agree; the wide lanes pay only for source sweeps
// (internal/core's BenchmarkWidePackSweep). h=2 is the paper's default
// workload; h=4 is its distance-sensitivity regime (Figs. 14–15), where
// estimates ride long paths, per-sample BFS cost grows, and MC's
// find-the-target early exit rarely fires.
func BenchmarkPackMC(b *testing.B) {
	for _, ds := range []string{"lastFM", "NetHept", "AS_Topology", "DBLP_0.2", "DBLP_0.05", "BioMine"} {
		for _, hops := range []int{2, 4} {
			for _, est := range []string{"MC", "PackMC", "PackMC256", "PackMC512"} {
				b.Run(fmt.Sprintf("%s/h=%d/%s", ds, hops, est), func(b *testing.B) {
					benchPackWorkload(b, ds, hops, est)
				})
			}
		}
	}
}

// --- Engine (concurrent batch query engine, DESIGN.md §4) ---

// engineBenchWorkload builds the engine comparison workload: a 64-query
// batch of 8 sources x 8 targets on lastFM, the shape where batching can
// amortize per-source work (one BFS Sharing traversal per source instead
// of one per query).
func engineBenchWorkload(b *testing.B) (*Graph, []Query) {
	b.Helper()
	g, err := Dataset("lastFM", 0.1, 7)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := QueryPairs(g, 8, 2, 7)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]Query, 0, len(pairs)*len(pairs))
	for _, src := range pairs {
		for _, dst := range pairs {
			queries = append(queries, Query{
				S: src.S, T: dst.T, K: 250, Estimator: "BFSSharing",
			})
		}
	}
	return g, queries
}

// BenchmarkEngineBatch pushes the 64-query batch through an 8-worker
// engine (cache disabled, so every query is computed). Compare the qps
// metric against BenchmarkEngineSerialized: the engine groups the batch
// by source, so it runs 8 shared traversals where the serialized path
// runs 64.
func BenchmarkEngineBatch(b *testing.B) {
	g, queries := engineBenchWorkload(b)
	eng, err := NewEngine(g, EngineConfig{Workers: 8, MaxK: 250, Seed: 7, CacheSize: 0})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the pools so replica index construction (the serialized
	// baseline's NewBFSSharing, built outside its timer) is not
	// measured. One pass may build fewer replicas than the pool cap —
	// instances returned early get reused — so run a few.
	for i := 0; i < 3; i++ {
		eng.EstimateBatch(context.Background(), queries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range eng.EstimateBatch(context.Background(), queries) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
}

// BenchmarkMixedKindBatch pushes a mixed-kind batch — top-k rankings,
// plain s-t reliability, and single-source sweeps in one EstimateBatch
// call — through the unified Request surface: the CI smoke for the
// engine's (kind, source) grouping, where the s-t queries ride the
// source-amortized traversals while the top-k and single-source requests
// run as their own pooled units.
func BenchmarkMixedKindBatch(b *testing.B) {
	g, err := Dataset("lastFM", 0.1, 7)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := QueryPairs(g, 8, 2, 7)
	if err != nil {
		b.Fatal(err)
	}
	var reqs []Request
	for _, src := range pairs {
		reqs = append(reqs, Request{Kind: KindTopK, S: src.S, TopK: 10, K: 250})
		reqs = append(reqs, Request{Kind: KindSingleSource, S: src.S, K: 250})
		for _, dst := range pairs {
			reqs = append(reqs, Request{S: src.S, T: dst.T, K: 250, Estimator: "BFSSharing"})
		}
	}
	eng, err := NewEngine(g, EngineConfig{Workers: 8, MaxK: 250, Seed: 7, CacheSize: 0})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm the pools; see BenchmarkEngineBatch
		eng.EstimateBatch(context.Background(), reqs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range eng.EstimateBatch(context.Background(), reqs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(reqs))/b.Elapsed().Seconds(), "qps")
}

// BenchmarkEngineSerialized is the pre-engine baseline the server used to
// run: one estimator instance behind a mutex, answering the same 64
// queries one at a time.
func BenchmarkEngineSerialized(b *testing.B) {
	g, queries := engineBenchWorkload(b)
	est := NewBFSSharing(g, 7, 250)
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			mu.Lock()
			est.Estimate(q.S, q.T, q.K)
			mu.Unlock()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
}

// BenchmarkPackMCEngineBatch pushes the 64-query batch of
// engineBenchWorkload through the engine once per estimator: PackMC rides
// the source-grouped path (one amortized pack sweep per source, 8 sweeps
// for the batch: on this graph a sweep costs less than its 8 targets'
// s-t searches, so the measured choice keeps it; the warm-up batches
// measure both), MC computes its 64 queries as individual work units.
// Together with BenchmarkEngineBatch (BFS Sharing on the same workload)
// this is the engine-level view of the word-packing win.
func BenchmarkPackMCEngineBatch(b *testing.B) {
	for _, est := range []string{"MC", "PackMC"} {
		b.Run(est, func(b *testing.B) {
			g, queries := engineBenchWorkload(b)
			for i := range queries {
				queries[i].Estimator = est
			}
			eng, err := NewEngine(g, EngineConfig{Workers: 8, MaxK: 250, Seed: 7, CacheSize: 0})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 3; i++ { // warm the replica pools
				eng.EstimateBatch(context.Background(), queries)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, res := range eng.EstimateBatch(context.Background(), queries) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
		})
	}
}

// BenchmarkPackMCEngineGroup times one PackMC-named source group on
// DBLP_0.2: 20 distinct targets two hops from one source, k=1000, through
// a 1-worker engine with the cache off. On this graph a 256-lane sweep
// costs about half a 64-lane one, so the group's cost follows the width
// the engine sweeps at. The warm-up batches measure both widths and the
// s-t search before the timer starts.
func BenchmarkPackMCEngineGroup(b *testing.B) {
	g, err := Dataset("DBLP_0.2", 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := QueryPairs(g, 1, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := pairs[0].S
	var queries []Query
	for v, d := range g.HopDistances(s, 2) {
		if d == 2 && len(queries) < 20 {
			queries = append(queries, Query{S: s, T: NodeID(v), K: 1000, Estimator: "PackMC"})
		}
	}
	eng, err := NewEngine(g, EngineConfig{Workers: 1, MaxK: 1000, Seed: 7, CacheSize: 0, Estimators: []string{"PackMC"}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		eng.EstimateBatch(context.Background(), queries)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range eng.EstimateBatch(context.Background(), queries) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N), "ms/group")
}

// probTreeBenchGraph builds the workload shape ProbTree's index exists
// for (tree-like, low treewidth): a random tree plus a few cross edges,
// so the width-2 elimination absorbs almost every node into a bag and the
// spliced query graphs stay small. On such graphs the per-(s,t) splice
// cost is dominated by the full bag scan Algorithm 8 performs per query —
// exactly the part the source-grouped path pays once per group.
func probTreeBenchGraph(b *testing.B, n, extra int) *Graph {
	b.Helper()
	gb := NewGraphBuilder(n)
	r := uint64(12345)
	next := func(bound int) int {
		r = r*6364136223846793005 + 1442695040888963407
		return int((r >> 33) % uint64(bound))
	}
	for v := 1; v < n; v++ {
		parent := NodeID(next(v))
		p := 0.5 + float64(next(40))/100 // 0.5–0.9
		gb.AddEdge(parent, NodeID(v), p)
		gb.AddEdge(NodeID(v), parent, p)
	}
	for i := 0; i < extra; i++ {
		u, v := NodeID(next(n)), NodeID(next(n))
		if u != v {
			gb.AddEdge(u, v, 0.3)
		}
	}
	return gb.Build()
}

// BenchmarkProbTreeBatch measures the ProbTree source-group amortization:
// a wide single-source batch answered through the engine's grouped path
// (one QueryGraphAll expands and pre-collects the s-side bag chain once
// for every target) against the same queries through the per-(s,t) splice
// path (each query re-expands and re-scans the whole bag tree). Same
// seed, bit-identical results; Workers is pinned to 1 so the comparison
// isolates the algorithmic amortization from multi-core parallelism.
func BenchmarkProbTreeBatch(b *testing.B) {
	g := probTreeBenchGraph(b, 50000, 25)
	queries := make([]Query, 0, 64)
	for d := 1; len(queries) < 64; d += 311 {
		queries = append(queries, Query{S: 0, T: NodeID(d % g.NumNodes()), K: 100, Estimator: "ProbTree"})
	}
	newEngine := func() *Engine {
		eng, err := NewEngine(g, EngineConfig{Workers: 1, MaxK: 100, Seed: 7, CacheSize: 0})
		if err != nil {
			b.Fatal(err)
		}
		eng.Estimate(context.Background(), queries[0]) // build the shared index outside the timer
		return eng
	}
	b.Run("grouped", func(b *testing.B) {
		eng := newEngine()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range eng.EstimateBatch(context.Background(), queries) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
	})
	b.Run("per-query", func(b *testing.B) {
		eng := newEngine()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if res := eng.Estimate(context.Background(), q); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
	})
}

// BenchmarkIndexBuild measures the offline index construction of the two
// index-based methods (Fig. 13a).
func BenchmarkIndexBuild(b *testing.B) {
	for _, method := range []string{"BFSSharing", "ProbTree"} {
		b.Run(method, func(b *testing.B) {
			opts := harness.Options{Scale: 0.1, MaxK: 300, Seed: 7}
			r := harness.NewRunner(opts)
			g, err := r.Graph("lastFM")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.NewEstimator(method, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// adaptiveBenchWorkload builds the mixed easy/hard anytime workload:
// `easy` one-hop near-certain pairs, which reach a 1% relative half-width
// within a few hundred samples, and `hard` multi-hop mid-probability
// pairs, for which ε = 0.01 is unreachable inside the cap and the full
// budget runs. Every query names MC so the comparison measures the
// anytime stopping layer, not routing.
func adaptiveBenchWorkload(eps float64, budget int) (*Graph, []Query) {
	const easy, hard, hops = 30, 2, 4
	gb := NewGraphBuilder(2*easy + hard*(hops+1))
	node := NodeID(0)
	var queries []Query
	for i := 0; i < easy; i++ {
		gb.MustAddEdge(node, node+1, 0.995)
		queries = append(queries, Query{S: node, T: node + 1, K: budget, Estimator: "MC", Eps: eps})
		node += 2
	}
	for i := 0; i < hard; i++ {
		s := node
		for h := 0; h < hops; h++ {
			gb.MustAddEdge(node, node+1, 0.75)
			node++
		}
		queries = append(queries, Query{S: s, T: node, K: budget, Estimator: "MC", Eps: eps})
		node++
	}
	return gb.Build(), queries
}

// BenchmarkAdaptiveEngine compares anytime estimation (ε = 0.01, K as the
// sample cap) against the fixed-MaxK path on the mixed workload: the easy
// majority retires after a few hundred samples instead of burning the full
// 4000, so the adaptive qps should be well over 2x the fixed qps, with
// samples_used < cap on every easy pair (verified inside the loop).
func BenchmarkAdaptiveEngine(b *testing.B) {
	const budget = 4000
	for _, mode := range []struct {
		name string
		eps  float64
	}{
		{"fixed", 0},
		{"adaptive", 0.01},
	} {
		b.Run(mode.name, func(b *testing.B) {
			g, queries := adaptiveBenchWorkload(mode.eps, budget)
			eng, err := NewEngine(g, EngineConfig{Workers: 8, MaxK: budget, Seed: 7, CacheSize: 0})
			if err != nil {
				b.Fatal(err)
			}
			eng.EstimateBatch(context.Background(), queries) // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			var drawn, answered int
			for i := 0; i < b.N; i++ {
				for _, res := range eng.EstimateBatch(context.Background(), queries) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					if mode.eps > 0 && res.StopReason == string(StopEps) && res.SamplesUsed >= budget {
						b.Fatalf("easy pair %d->%d reported eps stop at the full cap", res.S, res.T)
					}
					drawn += res.SamplesUsed
					answered++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
			if answered > 0 {
				b.ReportMetric(float64(drawn)/float64(answered), "samples/query")
			}
		})
	}
}

// benchOverload measures goodput — served queries meeting a latency SLO,
// per second — under an OPEN-loop arrival schedule offering mult× a
// pre-saturation rate. Open loop is the point: real traffic does not slow
// down because the server is slow, so arrivals keep coming on their
// timetable regardless of how many are still in flight (a closed client
// loop self-throttles and can never actually overload the engine).
// Unprotected, the backlog grows without bound at 4x and queueing delay
// pushes every answer past the SLO: goodput collapses even though every
// request is eventually served. Admission-controlled, the engine bounds
// inflight work and sheds the excess fast (ErrOverloaded/ErrQueueTimeout,
// counted in shed_frac), so the served stream keeps its latency and
// goodput holds near the pre-saturation level — the overload-safety
// property PR8's acceptance gate checks: protected 4x goodput ≥ 90% of
// protected 1x goodput. Served answers that the degradation ladder
// down-resolved (reduced K / widened eps, Degraded=true) are reported in
// degraded_frac — trading resolution for latency under pressure is the
// designed behavior, and the metric keeps it visible.
func benchOverload(b *testing.B, g *Graph, mkQuery func(int64) Query, serviceTime time.Duration, protected bool, mult int) {
	b.Helper()
	workers := runtime.GOMAXPROCS(0)
	slo := serviceTime * 3

	cfg := EngineConfig{Seed: 42, MaxK: overloadK, Workers: workers, CacheSize: 0}
	if protected {
		cfg.Admission = AdmissionConfig{
			MaxInflight: workers,
			MaxQueue:    2 * workers,
			QueueWait:   serviceTime,
		}
	}
	eng, err := NewEngine(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the replica pool so no client pays index/replica construction.
	eng.Estimate(context.Background(), Query{S: 0, T: 5, K: overloadK, Estimator: "MC"})

	// Arrival interval for mult× load: capacity is ~workers/serviceTime,
	// 1x offers 3/4 of it. Dispatch on absolute deadlines so scheduler
	// overshoot on one sleep doesn't shrink the offered rate — a late
	// dispatcher bursts to catch back up to its timetable.
	interval := serviceTime * 4 / (3 * time.Duration(workers*mult))
	var served, sloOK, shed, degraded atomic.Int64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for i := int64(1); i <= int64(b.N); i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i-1) * interval)))
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			t0 := time.Now()
			res := eng.Estimate(context.Background(), mkQuery(i))
			lat := time.Since(t0)
			if res.Err != nil {
				shed.Add(1)
				return
			}
			served.Add(1)
			if res.Degraded {
				degraded.Add(1)
			}
			if lat <= slo {
				sloOK.Add(1)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.ReportMetric(float64(sloOK.Load())/elapsed.Seconds(), "goodput_qps")
	b.ReportMetric(float64(served.Load())/elapsed.Seconds(), "served_qps")
	b.ReportMetric(float64(shed.Load())/float64(b.N), "shed_frac")
	b.ReportMetric(float64(degraded.Load())/float64(b.N), "degraded_frac")
}

// overloadK is the per-query sample budget of the overload workload —
// large enough that one query is milliseconds of real work, so queueing
// delay (not per-call overhead) dominates under oversubscription.
const overloadK = 16000

// BenchmarkOverload: {unprotected, admission} × {1x, 4x} offered load.
// Compare goodput_qps within each pair of rows. The service time is
// calibrated ONCE, up front, so all four rows share one arrival timetable
// and one SLO — per-row recalibration on a noisy box would make the rows
// incomparable.
func BenchmarkOverload(b *testing.B) {
	g, err := Dataset("lastFM", 1.0, 7)
	if err != nil {
		b.Fatal(err)
	}
	mkQuery := func(i int64) Query {
		// Distinct pairs so no dedup or memoization flattens the load.
		return Query{S: NodeID(i % 5), T: NodeID(5 + i%7), K: overloadK, Estimator: "MC"}
	}

	// Calibrate the SLO base on an idle engine: the sequential per-query
	// latency, of which the SLO is 3×. Pre-saturation traffic (~1 service
	// time per query plus transient queueing) meets it with slack; an
	// unbounded overload backlog (many service times of queueing delay)
	// cannot; admission-controlled traffic (≤ 1 queue wait + 1 service
	// time) stays inside it.
	calib, err := NewEngine(g, EngineConfig{Seed: 42, MaxK: overloadK, Workers: 1, CacheSize: 0})
	if err != nil {
		b.Fatal(err)
	}
	// Warm first: the pool builds its replica on the first query, and that
	// one-time cost must not inflate the measured service time (and with it
	// the SLO every other latency is judged against).
	if res := calib.Estimate(context.Background(), mkQuery(100)); res.Err != nil {
		b.Fatal(res.Err)
	}
	var serviceTime time.Duration
	const calibN = 8
	for i := int64(0); i < calibN; i++ {
		t0 := time.Now()
		if res := calib.Estimate(context.Background(), mkQuery(i)); res.Err != nil {
			b.Fatal(res.Err)
		}
		serviceTime += time.Since(t0)
	}
	serviceTime /= calibN

	for _, mode := range []struct {
		name      string
		protected bool
	}{
		{"unprotected", false},
		{"admission", true},
	} {
		for _, mult := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/load=%dx", mode.name, mult), func(b *testing.B) {
				benchOverload(b, g, mkQuery, serviceTime, mode.protected, mult)
			})
		}
	}
}

// BenchmarkMutateQuery is the sustained dynamic-graph workload: each
// iteration commits one topology-preserving update batch and then pushes
// the mixed BFSSharing+ProbTree batch through the new epoch. The post-run
// gate asserts the engine repaired its indexes incrementally on every
// commit — zero full rebuilds — which is the contract for update/remove
// churn below the ProbTree rebuild threshold.
func BenchmarkMutateQuery(b *testing.B) {
	g, queries := engineBenchWorkload(b)
	// A slice of ProbTree queries keeps both offline indexes hot, so a
	// commit must repair both.
	for i := 0; i < 8 && i < len(queries); i++ {
		q := queries[i]
		q.Estimator = "ProbTree"
		queries = append(queries, q)
	}
	eng, err := NewEngine(g, EngineConfig{Workers: 8, MaxK: 250, Seed: 7, CacheSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm pools and build both indexes
		eng.EstimateBatch(ctx, queries)
	}

	// Oscillate the probability of a rotating set of edges, one small
	// batch per iteration. Updates never change topology, so the ProbTree
	// churn counter must stay under the rebuild threshold forever.
	edges := make([]Edge, 0, 16)
	for v := 0; v < g.NumNodes() && len(edges) < cap(edges); v++ {
		for _, id := range g.OutEdgeIDs(NodeID(v)) {
			if len(edges) == cap(edges) {
				break
			}
			edges = append(edges, g.Edge(id))
		}
	}
	if len(edges) == 0 {
		b.Fatal("workload graph has no edges")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		// Flip each edge's probability on alternate rotations, so every
		// commit really changes the graph (a same-value update would be
		// recognized as a no-op and skip the repair path entirely).
		muts := []Mutation{{Op: OpUpdateEdgeProb, From: e.From, To: e.To, P: 0.25 + 0.5*float64(i/len(edges)%2)}}
		if _, err := eng.Apply(ctx, muts); err != nil {
			b.Fatal(err)
		}
		for _, res := range eng.EstimateBatch(ctx, queries) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.StopTimer()

	st := eng.Stats()
	if st.Mutations.IndexRebuilds != 0 {
		b.Fatalf("update-only churn forced %d full index rebuilds; repair path not engaged", st.Mutations.IndexRebuilds)
	}
	b.ReportMetric(float64(st.Mutations.IndexRepairs)/float64(b.N), "repairs/op")
	b.ReportMetric(float64(st.Mutations.InvalidatedSources)/float64(b.N), "invalidated/op")
	b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
}

// BenchmarkBounds times ReliabilityBounds alone, on the two graphs the
// routed relbench workloads run on and the same h=2 pairs the paper's
// workload draws: the planner's inner loop without a server around it.
// The "_decide" rows time the pinch decision the router makes for a
// fixed-k query (bounds.Decide at the default cutoff) on the same pairs.
func BenchmarkBounds(b *testing.B) {
	for _, name := range []string{"NetHept", "DBLP_0.2"} {
		g, err := Dataset(name, 1, 42)
		if err != nil {
			b.Fatal(err)
		}
		pairs, err := QueryPairs(g, 256, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range []struct {
			name   string
			bounds func(s, t NodeID) error
		}{
			{name, func(s, t NodeID) error { _, _, err := ReliabilityBounds(g, s, t); return err }},
			{name + "_decide", func(s, t NodeID) error { _, _, _, err := bounds.Decide(g, s, t, 0.02); return err }},
		} {
			b.Run(row.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					if err := row.bounds(p.S, p.T); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

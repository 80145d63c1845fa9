package core

import (
	"fmt"
	"testing"

	"relcomp/internal/datasets"
	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
	"relcomp/internal/workload"
)

// benchGraph builds a mid-sized random graph with mixed probabilities, the
// shape the sampling kernels spend their time on.
func benchGraph(n, m int) *uncertain.Graph {
	r := rng.New(11)
	b := uncertain.NewBuilder(n)
	for i := 0; i < m; i++ {
		from := uncertain.NodeID(r.Intn(n))
		to := uncertain.NodeID(r.Intn(n))
		if from == to {
			continue
		}
		b.MustAddEdge(from, to, 0.05+0.9*r.Float64())
	}
	return b.Build()
}

// BenchmarkParallelMCWorkers pins the worker-combining path of ParallelMC
// (worker-local accumulation, no shared hit slice): the scaling across
// worker counts is the regression signal for reintroduced sharing.
func BenchmarkParallelMCWorkers(b *testing.B) {
	g := benchGraph(2000, 10000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := NewParallelMC(g, 7, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Estimate(0, uncertain.NodeID(g.NumNodes()-1), 4096)
			}
		})
	}
}

// BenchmarkPackVsMCKernel compares the per-query cost of the word-packed
// sampler against plain MC at equal K on one shared graph — the kernel
// behind the dataset-level BenchmarkPackMC at the repository root.
func BenchmarkPackVsMCKernel(b *testing.B) {
	g := benchGraph(2000, 10000)
	t := uncertain.NodeID(g.NumNodes() - 1)
	for _, bc := range []struct {
		name string
		est  Estimator
	}{
		{"MC", NewMC(g, 7)},
		{"PackMC", NewPackMC(g, 7)},
		{"PackMC256", NewWidePackMC(g, 7, 256)},
		{"PackMC512", NewWidePackMC(g, 7, 512)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.est.Estimate(0, t, 1024)
			}
		})
	}
}

// BenchmarkWidePackSweep times what the wide lanes still serve: a source
// sweep (EstimateAll) at 64, 256 and 512 lanes at the paper's k=1000, over
// the sources of eight h=2 pairs on each of four datasets. All three
// widths return bit-identical values, so ms/source compares their costs
// directly; s-t queries run one 64-lane kernel at every width and are
// timed by BenchmarkPackVsMCKernel. With -count N each repetition runs
// the widths back to back, so the comparison is interleaved.
func BenchmarkWidePackSweep(b *testing.B) {
	for _, name := range []string{"lastFM", "NetHept", "AS_Topology", "DBLP_0.2"} {
		spec, err := datasets.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		g := spec.Generate(1, 42)
		pairs, err := workload.Pairs(g, 8, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, lanes := range []int{64, 256, 512} {
			b.Run(fmt.Sprintf("%s/lanes=%d", name, lanes), func(b *testing.B) {
				var est SourceEstimator = NewPackMC(g, 7)
				if lanes > 64 {
					est = NewWidePackMC(g, 7, lanes)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, p := range pairs {
						est.EstimateAll(p.S, 1000)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N*len(pairs)), "ms/source")
			})
		}
	}
}

package engine

import (
	"context"
	"testing"
)

// BenchmarkEstimate measures the per-request cost of the execution spine
// for a single Estimate call and for an EstimateBatch of one query: a warm
// result-cache hit, a PackMC512 miss (cache disabled), and a warm routed
// hit. The hit cases isolate the engine's own overhead; the miss case shows
// it against a real estimator run.
//
//	go test -run '^$' -bench BenchmarkEstimate -benchmem ./internal/engine
func BenchmarkEstimate(b *testing.B) {
	cases := []struct {
		name      string
		cacheSize int
		q         Query
	}{
		{"hit", 64, Query{S: 0, T: 5, K: 200, Estimator: "MC"}},
		{"PackMC512_miss", 0, Query{S: 0, T: 5, K: 1000, Estimator: pack512Name}},
		{"routed_hit", 64, Query{S: 0, T: 5, K: 200}},
	}
	ctx := context.Background()
	for _, c := range cases {
		e := testEngine(b, Config{Workers: 2, MaxK: 1000, Seed: 42, CacheSize: c.cacheSize})
		if res := e.Estimate(ctx, c.q); res.Err != nil { // warm the cache, pools and bounds memo
			b.Fatal(res.Err)
		}
		b.Run(c.name+"/single", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				e.Estimate(ctx, c.q)
			}
		})
		b.Run(c.name+"/batch1", func(b *testing.B) {
			b.ReportAllocs()
			qs := []Query{c.q}
			for b.Loop() {
				e.EstimateBatch(ctx, qs)
			}
		})
	}
}

package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"relcomp/internal/datasets"
	"relcomp/internal/exact"
	"relcomp/internal/rng"
	"relcomp/internal/uncertain"
	"relcomp/internal/workload"
)

// planReference estimates each pair's reliability with a plain pack of
// refK worlds on a seed no compared estimate uses.
func planReference(g *uncertain.Graph, pairs []workload.Pair, refK int) []float64 {
	ref := make([]float64, len(pairs))
	pm := NewPackMC(g, 0x5eed)
	for i, p := range pairs {
		ref[i] = pm.Estimate(p.S, p.T, refK)
	}
	return ref
}

// BenchmarkRoutedPlan compares the routed two-phase plan with the plain
// pack on the six datasets at k=200 and k=1000, over 12 h=2 pairs. Each
// iteration answers one pair at a fresh seed with both, interleaved, and
// the metrics are each one's ms/query, RMSE against a 2^16-world pack
// reference and mean error in standard errors, the plan's efficiency gain
// 1/(MSE·time) over plain, and the share of queries it ran plain.
// Run with -benchtime 768x for 64 seeds per pair; not part of CI.
func BenchmarkRoutedPlan(b *testing.B) {
	for _, spec := range datasets.All() {
		b.Run(spec.Name, func(b *testing.B) {
			g := spec.Generate(1, 42)
			pairs, err := workload.Pairs(g, 12, 2, 1)
			if err != nil {
				b.Fatal(err)
			}
			ref := planReference(g, pairs, 1<<16)
			for _, k := range []int{200, 1000} {
				b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { benchPlan(b, g, pairs, ref, k) })
			}
		})
	}
}

func benchPlan(b *testing.B, g *uncertain.Graph, pairs []workload.Pair, ref []float64, k int) {
	pm := NewPackMC(g, 0)
	var plainT, planT time.Duration
	var plainSE, planSE, plainErr, planErr float64
	fellBack := 0
	for i := 0; i < b.N; i++ {
		p, want := pairs[i%len(pairs)], ref[i%len(pairs)]
		var plain, plan float64
		runPlain := func() {
			pm.Reseed(uint64(i) + 1)
			start := time.Now()
			plain = pm.Estimate(p.S, p.T, k)
			plainT += time.Since(start)
		}
		runPlan := func() {
			pm.Reseed(uint64(i) + 1)
			start := time.Now()
			var run twoPhaseRun
			plan, run = pm.twoPhase(p.S, p.T, k)
			planT += time.Since(start)
			if run.FellBack {
				fellBack++
			}
		}
		// Alternate which runs first, so neither gains from the caches
		// the other warmed.
		if i%2 == 0 {
			runPlain()
			runPlan()
		} else {
			runPlan()
			runPlain()
		}
		plainSE += (plain - want) * (plain - want)
		planSE += (plan - want) * (plan - want)
		plainErr += plain - want
		planErr += plan - want
	}
	n := float64(b.N)
	plainMS, planMS := plainT.Seconds()*1000/n, planT.Seconds()*1000/n
	b.ReportMetric(plainMS, "plain_ms")
	b.ReportMetric(planMS, "plan_ms")
	b.ReportMetric(math.Sqrt(plainSE/n), "plain_rmse")
	b.ReportMetric(math.Sqrt(planSE/n), "plan_rmse")
	if planSE > 0 {
		b.ReportMetric(plainSE*plainMS/(planSE*planMS), "efficiency")
	}
	// Mean errors in standard errors; the reference's own error shows in
	// both.
	for _, e := range []struct {
		name     string
		sum, sq2 float64
	}{{"plain_bias_se", plainErr, plainSE}, {"plan_bias_se", planErr, planSE}} {
		mean := e.sum / n
		if sd := math.Sqrt((e.sq2/n - mean*mean) / n); sd > 0 {
			b.ReportMetric(mean/sd, e.name)
		}
	}
	b.ReportMetric(float64(fellBack)/n, "fallback")
}

// decoyGraph returns g with decoy trees added: forward trees of fresh
// nodes hang off s and a random node, backward trees feed t and a random
// node. A forward tree's nodes have no edge back into g and a backward
// tree's no edge in from it, so no s-t path passes a decoy and R(s, t) is
// g's. Their deep levels make an open world cost far more than three
// levels of search, so the two-phase plan often predicts a gain on them
// where it runs the plain pack on g alone.
func decoyGraph(t *testing.T, r *rng.Source, g *uncertain.Graph, s, tt uncertain.NodeID) *uncertain.Graph {
	t.Helper()
	const depth, trees = 7, 4
	n := g.NumNodes()
	size := 1<<depth - 1
	b := uncertain.NewBuilder(n + trees*size)
	var tombs []uncertain.EdgeDelta
	for _, e := range g.Edges() {
		if e.P == 0 {
			tombs = append(tombs, uncertain.EdgeDelta{From: e.From, To: e.To})
			e.P = 0.5
		}
		b.MustAddEdge(e.From, e.To, e.P)
	}
	for i := 0; i < trees; i++ {
		root := uncertain.NodeID(n + i*size)
		at := []uncertain.NodeID{s, uncertain.NodeID(r.Intn(n)), tt, uncertain.NodeID(r.Intn(n))}[i]
		forward := i < 2
		edge := func(from, to uncertain.NodeID) {
			if !forward {
				from, to = to, from
			}
			b.MustAddEdge(from, to, 0.9)
		}
		edge(at, root)
		for v := 1; v < size; v++ { // node v's parent in the tree is (v-1)/2
			edge(root+uncertain.NodeID((v-1)/2), root+uncertain.NodeID(v))
		}
	}
	d, _, err := uncertain.ApplyDeltas(b.Build(), tombs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTwoPhaseMatchesExact is a mean-error z-test of EstimateTwoPhase,
// fallback and all, against the exact reliability: 64 seeds per pair on
// random graphs of at most 16 edges, with tombstoned edges, direct s→t
// edges and unreachable pairs, every other graph searched with decoy
// trees added (decoyGraph) so that the plan runs. Each pair's mean error
// must be within 4.5 standard errors, and so must their sum, which
// catches a bias too small for any one pair to show. The estimate must
// also stay a probability, and both the plan and the fallback must
// answer many of the estimates.
func TestTwoPhaseMatchesExact(t *testing.T) {
	const (
		k     = 256
		seeds = 64
	)
	r := rng.New(57)
	var pairs, direct, unreachable, completed, fellBack int
	var errSum, varSum float64
	for gi := 0; pairs < 120 && gi < 2000; gi++ {
		g := bidiTestGraph(t, r, []float64{-1, 0.5, 0.8}[gi%3], false)
		n := g.NumNodes()
		if g.NumEdges() > 16 || n < 3 || gi%5 != 0 && g.NumEdges() < n {
			continue
		}
		// Mostly the farthest node s reaches, where three levels leave
		// worlds open; every fifth graph the last node, often unreachable.
		s, tt := uncertain.NodeID(0), uncertain.NodeID(n-1)
		if gi%5 != 0 {
			dist := g.HopDistances(s, n)
			for v, d := range dist {
				if d > 0 && d > dist[tt] {
					tt = uncertain.NodeID(v)
				}
			}
		}
		want, err := exact.Enumerate(g, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		searched := g
		if gi%2 == 1 {
			searched = decoyGraph(t, r, g, s, tt)
		}
		pm := NewPackMC(searched, uint64(gi))
		var sum, sum2 float64
		for seed := uint64(1); seed <= seeds; seed++ {
			pm.Reseed(uint64(gi)<<32 | seed)  // streams apart across pairs, so their errors are independent
			got, run := pm.twoPhase(s, tt, k) // EstimateTwoPhase's answer
			switch {
			case run.FellBack:
				fellBack++
			case run.B > 0:
				completed++
			}
			if got < 0 || got > 1 || math.IsNaN(got) {
				t.Fatalf("graph %d seed %d: estimate %v", gi, seed, got)
			}
			sum += got - want
			sum2 += (got - want) * (got - want)
		}
		mean := sum / seeds
		se := math.Sqrt(max(sum2/seeds-mean*mean, 0) / (seeds - 1))
		// 4.5 standard errors over some 120 pairs, plus one world's worth
		// for pairs every seed answers alike.
		if math.Abs(mean) > 4.5*se+1.0/k {
			t.Errorf("graph %d (%d nodes, %d edges): mean error %.5f, standard error %.5f, exact %.5f", gi, n, g.NumEdges(), mean, se, want)
		}
		errSum += mean
		varSum += se * se
		pairs++
		if g.FindEdge(s, tt) >= 0 {
			direct++
		}
		if want == 0 {
			unreachable++
		}
	}
	if math.Abs(errSum) > 4.5*math.Sqrt(varSum) {
		t.Errorf("summed mean error %.5f over %d pairs, standard error %.5f", errSum, pairs, math.Sqrt(varSum))
	}
	if pairs < 120 || direct == 0 || unreachable == 0 || completed < 1000 || fellBack < 1000 {
		t.Fatalf("weak coverage: %d pairs, %d with a direct edge, %d unreachable, %d plan estimates with a completion sample, %d fallbacks",
			pairs, direct, unreachable, completed, fellBack)
	}
	t.Logf("%d pairs, %d with a direct edge, %d unreachable, %d plan estimates with a completion sample, %d fallbacks; summed error %.2f standard errors",
		pairs, direct, unreachable, completed, fellBack, errSum/math.Sqrt(varSum))
}

// TestTwoPhaseUnbiasedWherePilotSteers is a mean-error z-test on pairs
// where the pilot's outcomes steer the choice between plan and fallback:
// s and t joined by one path of 4 or 5 edges at p = 0.5, with decoy
// trees (decoyGraph) at both ends. An open world that reaches t stops
// early, one that misses searches both decoys, so a pilot whose open
// worlds miss predicts dear completions and falls back. At k=1000 the
// plan answers on some seeds and the plain pack on others. An answer that
// let the pilot's outcomes into the plan's hit rate would read low here,
// by some 5 standard errors summed over the two pairs.
func TestTwoPhaseUnbiasedWherePilotSteers(t *testing.T) {
	const k, seeds = 1000, 2000
	var plan, fellBack int
	var zSum float64
	for _, hops := range []int{4, 5} {
		b := uncertain.NewBuilder(hops + 1)
		for v := 0; v < hops; v++ {
			b.MustAddEdge(uncertain.NodeID(v), uncertain.NodeID(v+1), 0.5)
		}
		path := b.Build()
		s, tt := uncertain.NodeID(0), uncertain.NodeID(hops)
		want, err := exact.Enumerate(path, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		pm := NewPackMC(decoyGraph(t, rng.New(1), path, s, tt), 1)
		var sum, sum2 float64
		for seed := uint64(1); seed <= seeds; seed++ {
			pm.Reseed(seed)
			got, run := pm.twoPhase(s, tt, k)
			if run.FellBack {
				fellBack++
			} else {
				plan++
			}
			sum += got - want
			sum2 += (got - want) * (got - want)
		}
		mean := sum / seeds
		se := math.Sqrt((sum2/seeds - mean*mean) / (seeds - 1))
		if math.Abs(mean) > 4.5*se {
			t.Errorf("%d hops: mean error %.5f, standard error %.5f", hops, mean, se)
		}
		zSum += mean / se
		t.Logf("%d hops: mean error %.2f standard errors", hops, mean/se)
	}
	if z := zSum / math.Sqrt(2); math.Abs(z) > 4.5 {
		t.Errorf("summed mean error %.2f standard errors", z)
	}
	if 10*plan < seeds || 10*fellBack < seeds {
		t.Fatalf("the pilot steers too little: %d plan answers, %d fallbacks", plan, fellBack)
	}
}

// TestTwoPhaseBeatsPlainOnDBLP: at relbench's routed budget, k=200 on
// DBLP_0.2, the plan's RMSE is at most the plain pack's, over 6 h=2 pairs
// and 48 seeds against a 2^14-world pack reference.
func TestTwoPhaseBeatsPlainOnDBLP(t *testing.T) {
	const k, seeds = 200, 48
	g := datasets.DBLP02(1, 42)
	pairs, err := workload.Pairs(g, 6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := planReference(g, pairs, 1<<14)
	pm := NewPackMC(g, 0)
	var plainSE, planSE float64
	fellBack := 0
	for i, p := range pairs {
		for seed := uint64(1); seed <= seeds; seed++ {
			pm.Reseed(seed)
			plain := pm.Estimate(p.S, p.T, k)
			pm.Reseed(seed)
			plan, run := pm.twoPhase(p.S, p.T, k)
			if run.FellBack {
				fellBack++
			}
			plainSE += (plain - ref[i]) * (plain - ref[i])
			planSE += (plan - ref[i]) * (plan - ref[i])
		}
	}
	n := float64(len(pairs) * seeds)
	plainRMSE, planRMSE := math.Sqrt(plainSE/n), math.Sqrt(planSE/n)
	if planRMSE > plainRMSE || fellBack == len(pairs)*seeds {
		t.Errorf("k=%d: plan RMSE %.4f, plain %.4f, %d of %d fell back", k, planRMSE, plainRMSE, fellBack, len(pairs)*seeds)
	}
	t.Logf("k=%d: plan RMSE %.4f, plain %.4f, %d of %d fell back", k, planRMSE, plainRMSE, fellBack, len(pairs)*seeds)
}

// TestTwoPhaseFallsBackOnNetHept: on NetHept at k=1000, where the plan's
// predicted gain is marginal, it runs the plain pack on at least a third
// of the queries, and a fallback returns exactly what Estimate returns
// from the same state.
func TestTwoPhaseFallsBackOnNetHept(t *testing.T) {
	const k, seeds = 1000, 4
	g := datasets.NetHEPT(1, 42)
	pairs, err := workload.Pairs(g, 12, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, plan := NewPackMC(g, 0), NewPackMC(g, 0)
	fellBack := 0
	for _, p := range pairs {
		for seed := uint64(1); seed <= seeds; seed++ {
			plain.Reseed(seed)
			plan.Reseed(seed)
			want := plain.Estimate(p.S, p.T, k)
			got, run := plan.twoPhase(p.S, p.T, k)
			if !run.FellBack {
				continue
			}
			fellBack++
			if got != want {
				t.Errorf("(%d,%d) seed %d: fallback %v, Estimate %v", p.S, p.T, seed, got, want)
			}
		}
	}
	if total := len(pairs) * seeds; 3*fellBack < total {
		t.Errorf("%d of %d queries fell back, want at least a third", fellBack, total)
	}
}

package engine

import (
	"context"
	"testing"

	"relcomp/internal/core"
	"relcomp/internal/uncertain"
)

// TestSharedIndexAcrossReplicas: an engine with Workers = N must hold
// exactly one BFS Sharing edge-bit arena and one ProbTree bag set — every
// pool replica is a scratch handle over the same index object. This is
// the memory guarantee of the Index/Scratch split: index bytes are
// O(index), not O(Workers × index).
func TestSharedIndexAcrossReplicas(t *testing.T) {
	const workers = 4
	e := testEngine(t, Config{Workers: workers, MaxK: 200, Seed: 42,
		Estimators: []string{"BFSSharing", "ProbTree"}})

	// Force every replica into existence by borrowing up to capacity.
	borrowAll := func(name string) []core.Estimator {
		p := e.state.Load().pools[name]
		insts := make([]core.Estimator, workers)
		for i := range insts {
			insts[i] = p.get()
		}
		return insts
	}
	returnAll := func(name string, insts []core.Estimator) {
		for _, inst := range insts {
			e.state.Load().pools[name].put(inst)
		}
	}

	bss := borrowAll("BFSSharing")
	first := bss[0].(*core.BFSQuerier)
	for i, inst := range bss {
		q := inst.(*core.BFSQuerier)
		if q == first && i > 0 {
			t.Fatalf("replica %d is the same handle as replica 0", i)
		}
		if q.Index() != first.Index() {
			t.Fatalf("BFS replica %d holds its own index copy", i)
		}
		// Each handle must answer through the shared arena.
		if r := q.Estimate(0, 5, 200); r < 0 || r > 1 {
			t.Fatalf("replica %d estimate %v", i, r)
		}
	}
	if e.state.Load().pools["BFSSharing"].size() != workers {
		t.Fatalf("built %d BFS replicas, want %d", e.state.Load().pools["BFSSharing"].size(), workers)
	}
	// Total index memory across all replicas is one arena: every handle
	// reports the same index object, whose size is one index.
	if got, want := first.MemoryBytes()-first.ScratchBytes(), first.Index().Bytes(); got != want {
		t.Fatalf("index accounting %d, want %d", got, want)
	}
	returnAll("BFSSharing", bss)

	pts := borrowAll("ProbTree")
	pfirst := pts[0].(*core.ProbTreeQuerier)
	for i, inst := range pts {
		q := inst.(*core.ProbTreeQuerier)
		if q.Index() != pfirst.Index() {
			t.Fatalf("ProbTree replica %d holds its own bag set", i)
		}
	}
	returnAll("ProbTree", pts)
}

// TestRunSharedAccounting pins the counter semantics of the amortized
// batch path for both groupable estimators: intra-batch duplicates count
// in DedupedQueries only (never as cache hits), unique targets touch the
// LRU exactly once per batch, and nothing is double-counted when the same
// batch repeats against a warm cache.
func TestRunSharedAccounting(t *testing.T) {
	for _, est := range []string{"BFSSharing", "ProbTree", "PackMC"} {
		t.Run(est, func(t *testing.T) {
			e := testEngine(t, Config{Workers: 2, MaxK: 200, Seed: 42, CacheSize: 64,
				Estimators: []string{est}})
			q := func(s, d int) Query {
				return Query{S: uncertain.NodeID(s), T: uncertain.NodeID(d), K: 100, Estimator: est}
			}
			batch := []Query{q(0, 5), q(0, 5), q(0, 6)} // one source group, one duplicate

			results := e.EstimateBatch(context.Background(), batch)
			cached := 0
			for _, r := range results {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if r.Cached {
					cached++
				}
			}
			if cached != 1 {
				t.Errorf("cold batch: %d results flagged Cached, want 1 (the duplicate)", cached)
			}
			st := e.Stats()
			if st.DedupedQueries != 1 {
				t.Errorf("cold batch: DedupedQueries %d, want 1", st.DedupedQueries)
			}
			if st.CacheHits != 0 {
				t.Errorf("cold batch: CacheHits %d, want 0 — a dedup must not count as a hit", st.CacheHits)
			}
			if st.CacheMisses != 2 {
				t.Errorf("cold batch: CacheMisses %d, want 2 (unique targets only)", st.CacheMisses)
			}
			if st.Queries != 3 {
				t.Errorf("cold batch: Queries %d, want 3", st.Queries)
			}

			// Warm repeat: both unique targets hit the LRU; the duplicate
			// is still a dedup, not a second hit.
			for _, r := range e.EstimateBatch(context.Background(), batch) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if !r.Cached {
					t.Errorf("warm batch: result (%d,%d) not flagged Cached", r.S, r.T)
				}
			}
			st = e.Stats()
			if st.CacheHits != 2 {
				t.Errorf("warm batch: CacheHits %d, want 2", st.CacheHits)
			}
			if st.DedupedQueries != 2 {
				t.Errorf("warm batch: DedupedQueries %d, want 2", st.DedupedQueries)
			}
			if st.CacheMisses != 2 {
				t.Errorf("warm batch: CacheMisses %d, want 2 (no recomputation)", st.CacheMisses)
			}
			if st.Queries != 6 {
				t.Errorf("warm batch: Queries %d, want 6", st.Queries)
			}
			if es := st.Estimators[est]; es.Queries != 6 {
				t.Errorf("estimator row Queries %d, want 6", es.Queries)
			}
		})
	}
}

// TestGroupedBatchMatchesSingleLargeGroup drives a wide source group
// (well past the lone-target fallback) through EstimateBatch for each
// amortizing estimator and checks every answer against the single-query
// path on a fresh engine. For PackMC this pins the counter-based-stream
// contract: one amortized pack sweep must be bit-identical to per-target
// queries.
func TestGroupedBatchMatchesSingleLargeGroup(t *testing.T) {
	for _, est := range []string{"ProbTree", "PackMC"} {
		t.Run(est, func(t *testing.T) {
			cfg := Config{Workers: 4, MaxK: 300, Seed: 42, CacheSize: 0,
				Estimators: []string{est}}
			batch := testEngine(t, cfg)
			single := testEngine(t, cfg)
			var qs []Query
			for d := 1; d < 20; d++ {
				qs = append(qs, Query{S: 0, T: uncertain.NodeID(d), K: 200, Estimator: est})
			}
			for i, res := range batch.EstimateBatch(context.Background(), qs) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				want := single.Estimate(context.Background(), qs[i])
				if res.Reliability != want.Reliability {
					t.Errorf("query %d: batch %v vs single %v", i, res.Reliability, want.Reliability)
				}
			}
		})
	}
}

// TestPackGroupSweepsOrSearchesByCost drives one fixed-k pack group
// through both sides of the router's sweep-or-search choice and checks
// that each side runs (by the cost samples it leaves) and that both
// answer exactly as single queries do. A fresh engine sweeps at each width
// first, then searches once so every cost is measured; after that the
// measured costs decide.
func TestPackGroupSweepsOrSearchesByCost(t *testing.T) {
	for _, est := range []string{packName, pack512Name} {
		t.Run(est, func(t *testing.T) {
			cfg := Config{Workers: 2, MaxK: 300, Seed: 42, CacheSize: 0, Estimators: []string{est}}
			batch := testEngine(t, cfg)
			single := testEngine(t, cfg)
			var qs []Query
			for d := 1; d < 7; d++ {
				qs = append(qs, Query{S: 0, T: uncertain.NodeID(d), K: 200, Estimator: est})
			}
			qs = append(qs, qs[2]) // a duplicate target counts once
			check := func(step string) {
				t.Helper()
				for i, res := range batch.EstimateBatch(context.Background(), qs) {
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					if want := single.Estimate(context.Background(), qs[i]); res.Reliability != want.Reliability {
						t.Errorf("%s: query %d: batch %v vs single %v", step, i, res.Reliability, want.Reliability)
					}
				}
			}
			samples := func() (sweeps, searches int) {
				r := batch.router
				r.mu.Lock()
				defer r.mu.Unlock()
				for _, w := range sweepWidths {
					sweeps += r.sweeps[w].n
				}
				return sweeps, r.search.n
			}
			expect := func(step string, sweeps, searches int) {
				t.Helper()
				if sw, se := samples(); sw != sweeps || se != searches {
					t.Fatalf("%s: %d sweeps and %d searches measured, want %d and %d", step, sw, se, sweeps, searches)
				}
			}
			check("unmeasured")
			expect("unmeasured", 1, 0)
			check("one width measured")
			expect("one width measured", 2, 0)
			check("sweeps measured")
			expect("sweeps measured", 2, 6)

			setCosts := func(sweep, search float64) {
				r := batch.router
				r.mu.Lock()
				for _, w := range sweepWidths {
					r.sweeps[w] = latencyMean{secs: sweep, n: 10}
				}
				r.search = latencyMean{secs: search, n: 10}
				r.mu.Unlock()
			}
			setCosts(1, 0.2) // six targets cost 1.2 sweeps
			check("sweep cheaper")
			expect("sweep cheaper", 21, 10)
			setCosts(1, 0.1) // six targets cost 0.6 sweeps
			check("search cheaper")
			expect("search cheaper", 20, 16)
		})
	}
}

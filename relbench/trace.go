package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"relcomp"
	"relcomp/internal/rng"
)

// The traced run times one workload's own requests at each layer boundary
// from outside: the HTTP round trip against the child, then the same
// request against an in-process engine configured like the child, then
// the analytic bounds and the bare estimator that engine reported. The
// layers of one request are separate executions of it, so a layer's self
// time is its span's duration minus its child spans' durations, and the
// self times of a request sum to its round trip by construction. Nothing
// inside relserver or the library is instrumented.

// span is one timed call at a layer boundary. Spans of one request share
// req; parent names the layer of the span that caused this one.
type span struct {
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"` // ns since the traced loop began
	End    int64  `json:"end"`
	Parent string `json:"parent,omitempty"`
	Write  bool   `json:"write,omitempty"`
}

const (
	layerWire   = "relserver"
	layerEngine = "engine"
	layerBounds = "bounds"
	layerCore   = "core"
)

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) time(req int, layer, parent string, write bool, fn func()) {
	start := time.Since(t.t0)
	fn()
	t.spans = append(t.spans, span{req, layer, int64(start), int64(time.Since(t.t0)), parent, write})
}

// selfTimes returns, for reads or for writes, the mean self time (ms) of
// every layer over the traced requests, the mean round trip, and the
// request count.
func selfTimes(spans []span, write bool) (self map[string]float64, roundTrip float64, n int) {
	self = map[string]float64{}
	for _, s := range spans {
		if s.Write != write {
			continue
		}
		d := float64(s.End-s.Start) / 1e6
		self[s.Layer] += d
		if s.Parent == "" {
			roundTrip += d
			n++
		} else {
			self[s.Parent] -= d
		}
	}
	for l := range self {
		self[l] /= float64(n)
	}
	return self, roundTrip / float64(n), n
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// role is an estimator's name inside metric names: the paper's six under
// their own names (LP+ spelled LPplus), every pack width under "pack" so
// that the metric names outlive a change of lane widths.
func role(estimator string) string {
	if strings.HasPrefix(estimator, "PackMC") {
		return "pack"
	}
	return strings.ReplaceAll(estimator, "+", "plus")
}

// coreEstimators are the bare estimators the layer table times.
func coreEstimators() []string {
	return []string{"MC", "BFSSharing", "ProbTree", "LP+", "RHH", "RSS", packEstimator()}
}

var sink uint64 // keeps the rng micro-loops from being optimised away

// perCall runs fn until budget has passed or it has run max times, at
// least twice, and returns the mean time per call.
func perCall(budget time.Duration, max int, fn func(i int)) (time.Duration, int) {
	start := time.Now()
	n := 0
	for n < 2 || (n < max && time.Since(start) < budget) {
		fn(n)
		n++
	}
	return time.Since(start) / time.Duration(n), n
}

// request turns a sent query into the engine's request type.
func (q query) request() relcomp.Request {
	return relcomp.Request{S: relcomp.NodeID(q.S), T: relcomp.NodeID(q.T), K: q.K, Estimator: q.Estimator}
}

func (m mutation) engineMutation() relcomp.Mutation {
	return relcomp.Mutation{Op: relcomp.OpUpdateEdgeProb, From: relcomp.NodeID(m.From), To: relcomp.NodeID(m.To), P: m.P}
}

// replay runs one step against an in-process engine the way relserver's
// handlers would.
func replay(ctx context.Context, eng *relcomp.Engine, st *step) ([]relcomp.Response, error) {
	switch {
	case st.write():
		muts := make([]relcomp.Mutation, len(st.muts))
		for i, m := range st.muts {
			muts[i] = m.engineMutation()
		}
		_, err := eng.Apply(ctx, muts)
		return nil, err
	case st.path == "/v1/query":
		res := eng.Estimate(ctx, st.queries[0].request())
		return []relcomp.Response{res}, res.Err
	}
	reqs := make([]relcomp.Request, len(st.queries))
	for i, q := range st.queries {
		reqs[i] = q.request()
	}
	res := eng.EstimateBatch(ctx, reqs)
	for _, x := range res {
		if x.Err != nil {
			return res, x.Err
		}
	}
	return res, nil
}

// traceLayers is one traced run: it prints the layer table and returns
// the per-layer metrics.
func (r *run) traceLayers(ctx context.Context, length time.Duration, spanFile string) ([]metric, error) {
	var out []metric
	add := func(name, unit string, v float64, n int) { out = append(out, metric{name, unit, v, n, false}) }

	start := time.Now()
	if _, err := relcomp.Dataset(r.w.dataset, 1, graphSeed); err != nil {
		return nil, err
	}
	add("datasets.generate_s", "s", time.Since(start).Seconds(), 1)

	c, _, err := r.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	eng, closeEng, err := r.referenceEngine()
	if err != nil {
		return nil, err
	}
	defer closeEng()
	// The in-process engine gets the child's warm-up; its first two steps
	// are the first use of each index.
	for i := range r.plan.warm {
		start := time.Now()
		if _, err := replay(ctx, eng, &r.plan.warm[i]); err != nil {
			return nil, fmt.Errorf("in-process warm-up: %v", err)
		}
		if i < 2 {
			add("core."+r.plan.warm[i].queries[0].Estimator+".index_build_s", "s", time.Since(start).Seconds(), 1)
		}
	}

	// The traced loop: one sequential client, each request through every
	// layer before the next is sent.
	tr := &tracer{t0: time.Now()}
	var epoch uint64
	traced := func(i int, st *step) {
		var x exchange
		x.step = st
		tr.time(i, layerWire, "", st.write(), func() { x.status, x.body, x.err = c.post(st) })
		if _, err := r.checkReply(&x, epoch); !r.check(err) {
			return
		}
		var res []relcomp.Response
		tr.time(i, layerEngine, layerWire, st.write(), func() { res, err = replay(ctx, eng, st) })
		if !r.check(err) {
			return
		}
		if st.write() {
			epoch++
			return
		}
		if r.w.shape == mutateMix {
			return // a batch's estimator work is amortised and cached: no bare equivalent
		}
		q := st.queries[0]
		if r.w.shape == routed {
			tr.time(i, layerBounds, layerEngine, false, func() {
				relcomp.ReliabilityBounds(eng.Graph(), relcomp.NodeID(q.S), relcomp.NodeID(q.T))
			})
		}
		if used := res[0].Used; used != relcomp.EngineBoundsName {
			r.check(relcomp.BorrowEstimator(eng, used, func(est relcomp.Estimator) error {
				tr.time(i, layerCore, layerEngine, false, func() { est.Estimate(relcomp.NodeID(q.S), relcomp.NodeID(q.T), q.K) })
				return nil
			}))
		}
	}
	i := 0
	for ; time.Since(tr.t0) < length; i++ {
		traced(i, &r.plan.steps[i%len(r.plan.steps)])
	}
	var stats engineStats
	if err := c.getJSON("/v1/engine/stats", &stats); err != nil {
		return nil, err
	}
	if r.w.shape != mutateMix { // the mix has its writes in the loop
		for j := range r.plan.probes {
			if st := &r.plan.probes[j]; j >= probeWarm {
				traced(i+j, st)
			} else if _, err := r.send(c, st, epoch); r.check(err) {
				_, err = replay(ctx, eng, st)
				r.check(err)
				epoch++
			}
		}
	}
	var after engineStats
	if err := c.getJSON("/v1/engine/stats", &after); err != nil {
		return nil, err
	}
	r.check(checkStats(&after, epoch))

	self, roundTrip, n := selfTimes(tr.spans, false)
	fmt.Printf("layer table for %s: mean ms per read request over %d requests, one client; rows sum to the round trip\n", r.w.name, n)
	for _, l := range []string{layerWire, layerEngine, layerBounds, layerCore} {
		if v, ok := self[l]; ok {
			fmt.Printf("  %-12s self %12.4f ms\n", l, v)
		}
	}
	fmt.Printf("  %-12s      %12.4f ms\n", "round trip", roundTrip)
	add("trace.roundtrip_ms", "ms", roundTrip, n)
	add("relserver.self_ms", "ms", self[layerWire], n)
	add("engine.self_ms", "ms", self[layerEngine], n)
	wself, writeTrip, wn := selfTimes(tr.spans, true)
	add("trace.write_roundtrip_ms", "ms", writeTrip, wn)
	add("relserver.mutate.self_ms", "ms", wself[layerWire], wn)
	add("engine.apply.ms_per_batch", "ms", wself[layerEngine], wn)

	// Counters of the child over the traced loop.
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	add("engine.cache.hit_ratio", "ratio", ratio(stats.CacheHits, stats.CacheHits+stats.CacheMisses), int(stats.CacheHits+stats.CacheMisses))
	routedTo := map[string]uint64{}
	total := stats.BoundsAnswered
	for name, e := range stats.Estimators {
		routedTo[role(name)] += e.Routed
		total += e.Routed
	}
	for _, name := range coreEstimators() {
		add("engine.router.share."+role(name), "ratio", ratio(routedTo[role(name)], total), int(total))
	}
	add("engine.router.bounds_answered_share", "ratio", ratio(stats.BoundsAnswered, total), int(total))
	batches := after.Mutations.Batches
	add("engine.mutations.invalidated_sources_per_batch", "count", ratio(after.Mutations.InvalidatedSources, batches), int(batches))
	add("engine.mutations.index_repairs_per_batch", "count", ratio(after.Mutations.IndexRepairs, batches), int(batches))

	path := filepath.Join(r.h.dir, "layers.snap")
	defer os.Remove(path)
	defer os.Remove(relcomp.MutationSidecarPath(path))
	snap, err := r.snapshotLayers(ctx, path, add)
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	if err := r.microLayers(ctx, c, snap, add); err != nil {
		return nil, err
	}
	if err := r.sidecarLayers(ctx, path, add); err != nil {
		return nil, err
	}
	if spanFile == "" {
		spanFile = filepath.Join(filepath.Dir(r.h.dir), "spans-"+r.w.name+".jsonl")
	}
	return out, writeSpans(spanFile, tr.spans)
}

// microLayers times single layers on this workload's graph and pairs,
// whether or not the workload's requests pass through them.
func (r *run) microLayers(ctx context.Context, c *child, snap *relcomp.Snapshot, add func(string, string, float64, int)) error {
	engine := func(cache int) (*relcomp.Engine, error) { return snapshotEngine(snap, cache) }
	meanP := r.g.ProbSummary().Mean
	// rng: the draws under the packed kernels and the index builds.
	const draws = 1 << 20
	q := rng.FixedProb(meanP)
	start := time.Now()
	for i := uint64(0); i < draws; i++ {
		m, d := rng.MaskAtFixed(i, q, ^uint64(0))
		sink += m ^ d
	}
	add("rng.mask_fixed.ns_per_draw", "ns", float64(time.Since(start).Nanoseconds())/draws, draws)
	need := [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	var mask, decided [4]uint64
	start = time.Now()
	for i := uint64(0); i < draws; i += 4 {
		rng.MaskAtFixed4(i, i+1, i+2, i+3, q, &need, &mask, &decided)
		sink += mask[0] ^ decided[3]
	}
	add("rng.mask_fixed4.ns_per_draw", "ns", float64(time.Since(start).Nanoseconds())/draws, draws)
	src := rng.New(graphSeed)
	words := make([]uint64, 1<<12)
	start = time.Now()
	const fills = 64
	for i := 0; i < fills; i++ {
		src.FillMask(words, 0, len(words)*64, meanP)
		sink += words[i]
	}
	add("rng.fillmask.ns_per_word", "ns", float64(time.Since(start).Nanoseconds())/float64(fills*len(words)), fills*len(words))

	// Bare estimators and the bounds on the workload's leading pairs.
	eng, err := engine(0)
	if err != nil {
		return err
	}
	var pairs []query
	for i := range r.plan.steps {
		if pairs = append(pairs, r.plan.steps[i].queries...); len(pairs) >= 48 {
			break
		}
	}
	at := func(i int) (relcomp.NodeID, relcomp.NodeID) {
		p := pairs[i%len(pairs)]
		return relcomp.NodeID(p.S), relcomp.NodeID(p.T)
	}
	for _, name := range coreEstimators() {
		err := relcomp.BorrowEstimator(eng, name, func(est relcomp.Estimator) error {
			per, n := perCall(400*time.Millisecond, len(pairs), func(i int) {
				s, t := at(i)
				est.Estimate(s, t, r.w.k)
			})
			add("core."+role(name)+".ms_per_query", "ms", ms(per), n)
			return nil
		})
		if err != nil {
			return err
		}
	}
	per, n := perCall(400*time.Millisecond, len(pairs), func(i int) {
		s, t := at(i)
		relcomp.ReliabilityBounds(r.g, s, t)
	})
	add("bounds.ms_per_pair", "ms", ms(per), n)

	// Engine overheads. A pinned miss against the bare estimator, call by
	// call on the same pairs. BFSSharing at one word of samples: its worlds
	// are the shared index, so both calls do identical work (a sampling
	// estimator draws other worlds when borrowed than when the engine
	// reseeds it), and short calls leave the overhead visible. The bare
	// estimator comes from a second engine's pool, since borrowing from eng
	// while it estimates could wait on itself.
	const overheadK = 64
	other, err := engine(0)
	if err != nil {
		return err
	}
	var miss, bare time.Duration
	err = relcomp.BorrowEstimator(other, "BFSSharing", func(est relcomp.Estimator) error {
		var failed error
		_, n = perCall(600*time.Millisecond, 512, func(i int) {
			s, t := at(i)
			t0 := time.Now()
			res := eng.Estimate(ctx, relcomp.Request{S: s, T: t, K: overheadK, Estimator: "BFSSharing"})
			t1 := time.Now()
			est.Estimate(s, t, overheadK)
			bare += time.Since(t1)
			miss += t1.Sub(t0)
			if res.Err != nil {
				failed = res.Err
			}
		})
		return failed
	})
	if err != nil {
		return err
	}
	add("engine.miss_overhead_us", "us", float64((miss-bare).Nanoseconds())/1e3/float64(n), n)

	pack := packEstimator()
	cached, err := engine(cacheSize)
	if err != nil {
		return err
	}
	s0, t0 := at(0)
	hot := relcomp.Request{S: s0, T: t0, K: r.w.k, Estimator: pack}
	if res := cached.Estimate(ctx, hot); res.Err != nil {
		return res.Err
	}
	per, n = perCall(200*time.Millisecond, 1<<20, func(int) { cached.Estimate(ctx, hot) })
	add("engine.hit_us", "us", float64(per.Nanoseconds())/1e3, n)

	for _, est := range []string{"BFSSharing", pack} {
		b := r.plan.batch(r.plan.pool[:batchSrcs], r.w.k, est)
		if _, err := replay(ctx, eng, &b); err != nil {
			return err
		}
		per, n := perCall(300*time.Millisecond, 8, func(int) { replay(ctx, eng, &b) })
		add("engine.batch."+role(est)+".ms_per_query", "ms", ms(per)/float64(len(b.queries)), n*len(b.queries))
	}

	// The wire alone: requests the child answers from its cache.
	hit := queryStep(query{S: int(s0), T: int(t0), K: r.w.k, Estimator: pack})
	big := r.plan.batch(r.plan.pool[:256/srcTargets], r.w.k, pack)
	for _, st := range []*step{&hit, &big} {
		lat, err := r.hitLatencies(c, st)
		if err != nil {
			return err
		}
		name := "relserver.query_hit_roundtrip_us"
		if st == &big {
			name = "relserver.batch256_hit_us_per_query"
		}
		add(name, "us", median(lat)/float64(len(st.queries)), len(lat))
	}
	return nil
}

// hitLatencies sends st once so that the child caches its answers, then
// repeatedly, and returns the round trips (us) of the repeats.
func (r *run) hitLatencies(c *child, st *step) ([]float64, error) {
	if _, err := r.send(c, st, ^uint64(0)); err != nil {
		return nil, err
	}
	var lat []float64
	var failed error
	perCall(300*time.Millisecond, 2000, func(int) {
		start := time.Now()
		if _, _, err := c.post(st); err != nil {
			failed = err
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	})
	return lat, failed
}

// snapshotLayers times relsnap build and the open of its output on this
// workload's graph. The opened snapshot then supplies microLayers with
// engines that need no index build of their own.
func (r *run) snapshotLayers(ctx context.Context, path string, add func(string, string, float64, int)) (*relcomp.Snapshot, error) {
	start := time.Now()
	if err := r.buildSnapshot(ctx, path); err != nil {
		return nil, err
	}
	add("snapshot.build_s", "s", time.Since(start).Seconds(), 1)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	add("snapshot.size_mb", "MiB", float64(st.Size())/(1<<20), 1)

	start = time.Now()
	snap, err := relcomp.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	if _, err := snapshotEngine(snap, cacheSize); err != nil {
		snap.Close()
		return nil, err
	}
	add("snapshot.open_s", "s", time.Since(start).Seconds(), 1)
	return snap, nil
}

// sidecarLayers times the sidecar path: a snapshot-served child takes the
// plan's probe writes and drains, and a second one starts from snapshot
// plus sidecar.
func (r *run) sidecarLayers(ctx context.Context, path string, add func(string, string, float64, int)) error {
	served, err := r.h.spawn(ctx, serverArgs("-snapshot", path))
	if err != nil {
		return err
	}
	for i := range r.plan.probes {
		if _, err := r.send(served, &r.plan.probes[i], uint64(i)); !r.check(err) {
			break
		}
	}
	if err := served.stop(); err != nil {
		return err
	}
	side, err := os.Stat(relcomp.MutationSidecarPath(path))
	if err != nil {
		return err
	}
	add("mutate.sidecar_bytes_per_batch", "B", float64(side.Size())/probeWrites, probeWrites)
	start := time.Now()
	again, err := r.h.spawn(ctx, serverArgs("-snapshot", path))
	if err != nil {
		return err
	}
	add("mutate.sidecar_replay_s", "s", time.Since(start).Seconds(), probeWrites)
	again.kill()
	return nil
}

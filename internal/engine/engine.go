// Package engine is the concurrent query engine layered over the paper's
// six s-t reliability estimators. It exists to serve estimator traffic at
// production concurrency, which the estimators themselves cannot: each
// keeps per-instance scratch state and is not goroutine-safe.
//
// Queries arrive through one typed Request union (request.go): plain s-t
// reliability, distance-constrained reachability (Request.D), top-k
// ranking (Request.TopK), single-source, and k-terminal (Request.Targets)
// — each optionally conditioned on per-request Evidence applied as a
// probability overlay over the shared graph. Every kind is served by the
// same machinery: pooled replicas, the result cache (keyed on the full
// request identity including kind and evidence), anytime stopping, and
// batch grouping (kinds.go).
//
// One execution spine (run) answers every call: Estimate is a batch of
// one, EstimateBatch a batch of many. The spine validates, admits the
// valid queries as one request (admission.go, with the degradation ladder
// of degrade.go), routes, builds work units, and runs them over the
// workers. It combines five mechanisms:
//
//   - Estimator pooling: per-estimator pools of replica instances (same
//     graph, same seed), each Workers deep, hand every worker an
//     exclusive instance, so concurrent queries never contend on scratch
//     state (pool.go). Parallelism is across queries, never inside one:
//     every replica samples on its caller's goroutine. The
//     index-based estimators share one immutable offline index per
//     estimator kind; replicas are cheap online-scratch handles over it,
//     so index memory is O(index), not O(Workers × index), and only the
//     first borrow pays index build latency.
//   - Source grouping: the spine groups a call's queries by (estimator,
//     source) so the source-rooted methods amortize their per-source work
//     — one BFS Sharing traversal answers every target of a source via
//     its source session (AllSampler), one ProbTree group splice
//     (QueryGraphEach) expands the source-side bag chain once for every
//     target of a source, and one pack sweep (AllSampler) serves every
//     target of a source from the same counter-seeded world ensemble its
//     single queries draw, at whichever width (64 or 256 lanes) is
//     measured cheaper (router.sweepWidth). A fixed-budget pack group
//     whose targets are measured clearly cheaper to search one by one
//     runs as per-query units instead (router.searchEach).
//     Duplicate queries in one call are computed once.
//   - Result caching: a bounded LRU keyed by (s, t, estimator, k, ε) with
//     hit/miss/eviction counters (cache.go).
//   - Adaptive routing: queries that do not name an estimator are routed
//     from the analytic bounds width and online latency statistics,
//     following the paper's selection guidance (router.go).
//   - Anytime estimation: queries carrying an accuracy target (Eps) or a
//     latency target (Deadline) run the incremental core.Sampler sessions
//     under sequential stopping instead of a fixed budget — K becomes the
//     sample cap, easy pairs stop after a few hundred samples, and hard
//     pairs keep sampling until ε, the deadline, or the cap. The router's
//     bounds interval seeds the stopping layer's chunk schedule; source
//     groups advance per-target samplers in lockstep and retire targets
//     as they converge. Results report the samples actually used and the
//     rule that stopped them.
//
// Results are deterministic given Config.Seed: replicas are identical and
// every computation reseeds its instance from the query key, so a query
// returns the same value no matter which worker runs it, whether it was
// batched, and whether it was cached. Concurrent execution is therefore
// observationally equivalent to sequential execution (asserted by the
// package's -race tests), with the one exception of adaptively routed
// queries, whose estimator choice depends on latencies observed so far.
package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"relcomp/internal/core"
	"relcomp/internal/faultinject"
	"relcomp/internal/mutate"
	"relcomp/internal/uncertain"
)

// BoundsName is the pseudo-estimator name reported when the analytic
// bounds pinch a routed query tightly enough to answer it outright. It
// is also accepted as Query.Estimator: such queries are answered by the
// bounds-interval midpoint with no sampling, whatever the width.
const BoundsName = "bounds"

// DefaultEstimators lists the estimators an engine builds when Config
// leaves the set empty, and also every name it can build: the paper's
// six, in table order, plus the word-packed PackMC under its three names
// (PackMC, PackMC256, PackMC512). The pack names share one replica pool
// and differ only in the stream seed a query draws: every source sweep
// runs at the width measured cheaper, whatever the name. Of the three,
// only PackMC is routed. The multi-core ParallelMC and ParallelPackMC
// are not served: the engine parallelizes across queries, Workers
// replicas deep, not inside one.
func DefaultEstimators() []string {
	return []string{"MC", "BFSSharing", "ProbTree", "LP+", "RHH", "RSS", "PackMC", "PackMC256", "PackMC512"}
}

// Config configures an Engine.
type Config struct {
	// Workers bounds the number of concurrently processed batch groups
	// and is the replica count of every estimator pool. It changes no
	// answer. <= 0 means GOMAXPROCS.
	Workers int
	// MaxK caps the per-query sample budget and sizes the BFS Sharing
	// index width. <= 0 means 2000 (the paper's safe L bound is 1500).
	MaxK int
	// Seed drives every estimator replica and per-query reseed; engines
	// with equal configs, Workers aside, return identical results.
	Seed uint64
	// CacheSize bounds the LRU result cache; <= 0 disables caching.
	CacheSize int
	// Estimators names the pools to build; empty means DefaultEstimators.
	Estimators []string
	// BoundsCutoff is the bounds width at or below which a routed query
	// is answered by the interval midpoint without sampling; <= 0 means
	// 0.02.
	BoundsCutoff float64
	// Preloaded supplies pre-built offline indexes (typically loaded from
	// a snapshot) for the index-based estimator pools, which then skip
	// their lazy first-borrow build. Nil fields fall back to building.
	Preloaded *PreloadedIndexes
	// Admission bounds the work the engine accepts at once and arms the
	// overload degradation ladder; the zero value disables both (every
	// request admitted immediately, full fidelity). See AdmissionConfig.
	Admission AdmissionConfig
	// DegreeRelabel serves a degree-sorted rename of the graph (hubs get
	// the lowest ids, clustering the hot CSR rows and kernel scratch at
	// the front of their arrays) while the query surface keeps the
	// caller's ids; see relabel.go. The rename changes which worlds the
	// counter-based samplers draw (edge ids move), not their distribution,
	// and stays deterministic per (graph, config). Incompatible with
	// Preloaded indexes built over the un-relabeled graph; snapshots
	// written by a relabeling engine carry the permutation, and
	// NewFromSnapshot restores it without re-relabeling.
	DegreeRelabel bool
	// BaseEpoch is the mutation epoch of the supplied graph: 0 for a
	// fresh build, the manifest epoch when resuming from a snapshot (set
	// by NewFromSnapshot). Engine.Apply numbers committed batches from
	// here, and the engine's mutation log chains from it.
	BaseEpoch uint64
	// MutationLogLimit bounds the in-memory replay buffer of committed
	// mutation batches; <= 0 selects mutate.DefaultLogLimit.
	MutationLogLimit int
}

// PreloadedIndexes carries pre-built offline indexes into New. Each index
// must have been built over the exact graph the engine serves, and the
// BFS index's width must equal the engine's MaxK — with the same engine
// seed, answers are then bit-identical to an engine that built its own
// indexes (see NewFromSnapshot, which pins seed and MaxK from the
// snapshot manifest).
type PreloadedIndexes struct {
	BFS      *core.BFSIndex
	ProbTree *core.ProbTreeIndex
}

// Query and Result — the typed Request union and its Response — are
// defined in request.go; the names Query and Result remain as aliases.

// Engine is the concurrent batch query engine. All methods are safe for
// concurrent use.
type Engine struct {
	cfg   Config
	names []string // configured estimators, stable order
	// state is the current epoch's graph-derived serving state (graph,
	// pools, indexes, memos, invalidation tags); see state.go. Queries
	// load it once and run against that consistent snapshot; Apply swaps
	// in a successor.
	state  atomic.Pointer[epochState]
	cache  *lruCache[cacheVal]
	router *router
	// relab translates ids between the caller's graph and the served
	// degree-sorted rename; nil when DegreeRelabel is off (relabel.go).
	// Mutations never change the node set, so the map survives every
	// epoch (new edges are engine-internal and not evidence-addressable).
	relab *relabelMap
	// adm is the admission controller (admission.go); nil when disabled,
	// which every acquire/noteDegraded call handles.
	adm *admission
	// log records committed mutation batches for replay and subscriber
	// catch-up; applyMu serializes Apply so epochs chain (apply.go).
	log     *mutate.Log
	applyMu sync.Mutex

	// subs is the live subscription registry (subscribe.go); Apply pings
	// every entry after publishing a new state.
	subMu  sync.Mutex
	subs   map[uint64]*Subscription
	subSeq uint64

	mu      sync.Mutex
	queries uint64
	batches uint64
	batched uint64 // queries answered (not rejected) via EstimateBatch
	deduped uint64 // intra-batch duplicates answered by reuse
	// Anytime accounting: queries computed under a stopping rule, the
	// budget they were allowed, and the samples they actually drew — the
	// samples-saved-vs-MaxK view Stats reports.
	anytimeQueries uint64
	samplesBudget  uint64
	samplesDrawn   uint64
	// Mutation accounting (apply.go): committed batches, individual
	// mutations applied, sources whose invalidation tag was bumped, and
	// the incremental-repair vs full-rebuild split of index maintenance.
	mutBatches     uint64
	mutApplied     uint64
	srcInvalidated uint64
	idxRepairs     uint64
	idxRebuilds    uint64
	perEst         map[string]*estCounter
	perKind        map[Kind]uint64
}

// cacheVal is the result cache's stored answer: the per-kind payload (the
// scalar reliability, a single-source vector, or a top-k ranking) plus the
// anytime termination report, so cached replays carry the same metadata
// as the computation that filled the entry. The slice payloads are shared
// between the cache and every hit that returns them; Response documents
// them as read-only.
type cacheVal struct {
	r       float64
	all     []float64
	top     []core.Reliability
	samples int
	reason  string
	// epoch is the engine epoch the filling computation ran under,
	// reported on hits via Response.Epoch: a hit for a mutation-unaffected
	// source may legitimately predate the current epoch.
	epoch uint64
}

type estCounter struct {
	queries   uint64
	computed  uint64 // queries answered by running the estimator (not cached)
	totalSecs float64
}

// New builds an engine over g. It constructs one replica per configured
// estimator lazily on first demand, so construction is cheap — except
// under Config.DegreeRelabel, which rebuilds the CSR in degree-sorted
// order up front (O(m log m)).
func New(g *uncertain.Graph, cfg Config) (*Engine, error) {
	var relab *relabelMap
	if cfg.DegreeRelabel {
		if cfg.Preloaded != nil {
			return nil, fmt.Errorf("engine: DegreeRelabel cannot be combined with Preloaded indexes built over the original graph; load a relabeled snapshot with NewFromSnapshot instead")
		}
		perm := uncertain.DegreePerm(g)
		rg, edgeMap, err := uncertain.Relabel(g, perm)
		if err != nil {
			return nil, err
		}
		relab = newRelabelMap(perm, edgeMap)
		g = rg
	}
	return newEngine(g, cfg, relab)
}

// newEngine is New's body over the graph actually served (possibly a
// degree-sorted rename); NewFromSnapshot calls it directly with the
// relabel map restored from the snapshot, never re-relabeling.
func newEngine(g *uncertain.Graph, cfg Config, relab *relabelMap) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 2000
	}
	if len(cfg.Estimators) == 0 {
		cfg.Estimators = DefaultEstimators()
	}
	if err := validatePreloaded(g, cfg); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		relab:   relab,
		cache:   newLRUCache[cacheVal](cfg.CacheSize),
		log:     mutate.NewLog(cfg.BaseEpoch, cfg.MutationLogLimit),
		subs:    make(map[uint64]*Subscription),
		perEst:  make(map[string]*estCounter, len(cfg.Estimators)),
		perKind: make(map[Kind]uint64),
	}
	srcEpoch := make([]uint64, g.NumNodes())
	for i := range srcEpoch {
		srcEpoch[i] = cfg.BaseEpoch
	}
	bfsIx, ptIx := indexHolders(cfg, g)
	st, err := buildEpochState(cfg, g, cfg.BaseEpoch, srcEpoch, bfsIx, ptIx)
	if err != nil {
		return nil, err
	}
	e.state.Store(st)
	for _, name := range cfg.Estimators {
		e.names = append(e.names, name)
		e.perEst[name] = &estCounter{}
	}
	// The router's bounds memo is not result caching — it amortizes a
	// static, expensive graph walk — so it stays on even when the result
	// cache is disabled, and a small result cache must not shrink it.
	memoSize := cfg.CacheSize
	if memoSize < 1024 {
		memoSize = 1024
	}
	// Names that share a pool (the pack names) cost the same, so only the
	// first configured one is a routing candidate.
	var candidates []string
	seen := make(map[*pool]bool, len(e.names))
	for _, name := range e.names {
		if p := st.pools[name]; !seen[p] {
			seen[p] = true
			candidates = append(candidates, name)
		}
	}
	e.router = newRouter(candidates, cfg.BoundsCutoff, memoSize)
	e.adm = newAdmission(cfg.Admission)
	return e, nil
}

// factoryFor maps an estimator name to its replica constructor.
//
// The index-based estimators share the epoch's lazy index cells (see
// state.go): the immutable offline index is built exactly once per
// estimator kind — lazily, on the pool's first borrow, or repaired
// incrementally across mutations — and every replica is a lightweight
// online-scratch handle over that shared index. Engine memory for an
// index is therefore O(index) regardless of Workers, and only the first
// borrow pays build latency; all later replicas construct in near-zero
// time. A preloaded index (validated by New) resolves the cell up front,
// so the first borrow costs nothing.
func factoryFor(name string, g *uncertain.Graph, seed uint64, bfsIx *lazyIndex[*core.BFSIndex], ptIx *lazyIndex[*core.ProbTreeIndex]) (func() core.Estimator, error) {
	switch name {
	case "MC":
		return func() core.Estimator { return core.NewMC(g, seed) }, nil
	case "BFSSharing":
		return func() core.Estimator { return bfsIx.get().Querier() }, nil
	case "ProbTree":
		return func() core.Estimator { return ptIx.get().Querier(seed, nil) }, nil
	case "LP+":
		return func() core.Estimator { return core.NewLazyProp(g, seed) }, nil
	case "RHH":
		return func() core.Estimator { return core.NewRHH(g, seed) }, nil
	case "RSS":
		return func() core.Estimator { return core.NewRSS(g, seed) }, nil
	case packName, pack256Name, pack512Name:
		return func() core.Estimator { return core.NewPackMC(g, seed) }, nil
	default:
		return nil, fmt.Errorf("engine: unknown estimator %q", name)
	}
}

// replicaSeed derives the shared construction seed of a pool's replicas.
func replicaSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return mix64(seed ^ h.Sum64())
}

// querySeed derives the deterministic per-query stream seed: equal for
// equal (engine seed, estimator, s, t, k) and uncorrelated otherwise.
func querySeed(seed uint64, name string, s, t uncertain.NodeID, k int) uint64 {
	z := replicaSeed(seed, name)
	z = mix64(z + 0x9e3779b97f4a7c15*uint64(s))
	z = mix64(z + 0xbf58476d1ce4e5b9*uint64(t))
	return mix64(z + 0x94d049bb133111eb*uint64(k))
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Names returns the configured estimator names in stable order.
func (e *Engine) Names() []string {
	out := make([]string, len(e.names))
	copy(out, e.names)
	return out
}

// Graph returns the graph the engine currently serves (the newest epoch's
// graph under mutation). Under Config.DegreeRelabel this is the
// degree-sorted rename, not the constructor's graph — its node and edge
// ids are the internal ones (Do-borrowed estimators speak them too); the
// Estimate/EstimateBatch surface translates, this accessor does not.
func (e *Engine) Graph() *uncertain.Graph { return e.state.Load().g }

// Epoch returns the current mutation epoch: BaseEpoch plus the number of
// batches Apply has committed.
func (e *Engine) Epoch() uint64 { return e.state.Load().epoch }

// MutationLog returns the engine's committed-batch log (bounded replay
// buffer); see mutate.Log.
func (e *Engine) MutationLog() *mutate.Log { return e.log }

// MaxK returns the per-query sample budget cap.
func (e *Engine) MaxK() int { return e.cfg.MaxK }

// validate rejects malformed requests before they can reach an estimator
// (which would panic): the shared budget/stopping/evidence rules, then the
// kind's own shape. st is the epoch snapshot the request will run under.
func (e *Engine) validate(st *epochState, q Request) error {
	if err := validateEvidence(st.g, q.Evidence); err != nil {
		return err
	}
	if !(q.Eps >= 0 && q.Eps < 1) { // NaN included
		return fmt.Errorf("engine: accuracy target eps %v outside [0, 1)", q.Eps)
	}
	if q.Deadline < 0 {
		return fmt.Errorf("engine: negative deadline %v", q.Deadline)
	}
	checkBudget := func(t uncertain.NodeID) error {
		if err := core.CheckQuery(st.g, q.S, t, q.K); err != nil {
			return err
		}
		if q.K > e.cfg.MaxK {
			return fmt.Errorf("engine: sample budget %d exceeds engine maximum %d", q.K, e.cfg.MaxK)
		}
		return nil
	}
	switch q.kind() {
	case KindReliability:
		if q.Estimator == BoundsName {
			if !q.Evidence.Empty() {
				return fmt.Errorf("engine: the %q pseudo-estimator is computed on the base graph and cannot honor evidence", BoundsName)
			}
			// The bounds path draws no samples, so K is unused and a zero
			// value must not be an error; only the endpoints matter.
			return core.CheckQuery(st.g, q.S, q.T, 1)
		}
		if err := checkBudget(q.T); err != nil {
			return err
		}
		if !q.Evidence.Empty() {
			if q.Estimator != "" && !evidenceCapable(q.Estimator) {
				return fmt.Errorf("engine: estimator %q cannot honor per-request evidence (index-based; use MC or PackMC, or omit the estimator)", q.Estimator)
			}
			return nil
		}
		if q.Estimator != "" {
			if _, ok := st.pools[q.Estimator]; !ok {
				return fmt.Errorf("engine: unknown estimator %q", q.Estimator)
			}
		}
		return nil
	case KindDistance:
		if q.D < 1 {
			return fmt.Errorf("engine: distance bound d %d must be >= 1", q.D)
		}
		if q.Estimator != "" && q.Estimator != "MC" {
			return fmt.Errorf("engine: distance queries run on the MC family; estimator %q not supported", q.Estimator)
		}
		return checkBudget(q.T)
	case KindTopK, KindSingleSource:
		if q.kind() == KindTopK && q.TopK < 1 {
			return fmt.Errorf("engine: topk %d must be >= 1", q.TopK)
		}
		switch {
		case q.Estimator == "":
		case !q.Evidence.Empty():
			if !packLike(q.Estimator) {
				return fmt.Errorf("engine: estimator %q cannot honor per-request evidence for %s (use a PackMC name or omit the estimator)", q.Estimator, q.kind())
			}
		case q.Estimator != sharedName && !packLike(q.Estimator):
			return fmt.Errorf("engine: %s queries need a multi-target estimator (BFSSharing or a PackMC name); %q is not one", q.kind(), q.Estimator)
		default:
			if _, ok := st.pools[q.Estimator]; !ok {
				return fmt.Errorf("engine: estimator %q not configured", q.Estimator)
			}
		}
		if q.Evidence.Empty() {
			if _, ok := st.pools[e.kindEstimator(q)]; !ok {
				return fmt.Errorf("engine: estimator %q not configured", e.kindEstimator(q))
			}
		}
		return checkBudget(q.S)
	case KindKTerminal:
		if len(q.Targets) == 0 {
			return fmt.Errorf("engine: k-terminal query needs at least one target")
		}
		n := uncertain.NodeID(st.g.NumNodes())
		for _, t := range q.Targets {
			if t < 0 || t >= n {
				return fmt.Errorf("engine: k-terminal target %d out of range [0,%d)", t, n)
			}
		}
		if q.Estimator != "" && q.Estimator != "MC" {
			return fmt.Errorf("engine: k-terminal queries run on the MC family; estimator %q not supported", q.Estimator)
		}
		return checkBudget(q.S)
	default:
		return fmt.Errorf("engine: unknown query kind %q", q.Kind)
	}
}

// noteKind counts one answered request per kind for Stats.
func (e *Engine) noteKind(k Kind) {
	e.mu.Lock()
	e.perKind[k]++
	e.mu.Unlock()
}

// Estimate answers one query. It is a batch of one: the same execution
// spine as EstimateBatch (validation, admission, degradation, routing,
// the result cache, pooled execution) answers it, so a query's answer does
// not depend on which entry point carried it. Only Stats' batch counters
// tell the two apart.
//
// The context cancels queued and anytime work: a canceled context fails
// the query up front and stops an anytime query between sample chunks
// (fixed-budget estimates are not interruptible once started). A context
// deadline acts like Query.Deadline; the earlier of the two wins.
//
// With admission control configured the query first passes the admission
// controller: at capacity it queues (bounded, deadline-bounded), sheds
// with ErrOverloaded or ErrQueueTimeout when the queue overflows or the
// wait expires, and under pressure the degradation ladder may answer
// below the requested fidelity, flagged via Response.Degraded.
func (e *Engine) Estimate(ctx context.Context, q Request) Response {
	return e.execute(ctx, []Request{q})[0]
}

// EstimateBatch answers a set of queries concurrently: validated up
// front, adaptively routed in a parallel resolve phase, turned into work
// units (amortized (source, k, ε, deadline) groups for the groupable
// estimators, per-query units otherwise), and spread over the engine's
// workers. Results are positionally aligned with the input and identical
// to what sequential Estimate calls would return (modulo adaptive
// routing, which is latency-dependent). A canceled context fails the
// not-yet-started units with the context error; in-flight fixed-budget
// units finish, in-flight anytime units stop at the next chunk.
//
// Under admission control the batch admits as one request costed at the
// sum of its valid queries; a shed batch fails every valid position with
// the admission error, and a degradation level in force at admission
// applies to every query (per-position Degraded flags report which were
// actually reduced).
func (e *Engine) EstimateBatch(ctx context.Context, queries []Query) []Result {
	results := e.execute(ctx, queries)
	answered := uint64(0)
	for i := range results {
		if results[i].Err == nil {
			answered++
		}
	}
	e.mu.Lock()
	e.batches++
	e.batched += answered
	e.mu.Unlock()
	return results
}

// resolve routes a validated query that names no estimator, or answers
// one that names the BoundsName pseudo-estimator. When the analytic
// bounds pinch the answer — or the query explicitly asks for BoundsName —
// it fills res in and reports done; no sampling runs at all. Otherwise
// the returned decision names the routed estimator and carries the
// bounds interval, which seeds the anytime stopping layer's prior and
// chunk schedule; full asks for full bounds where the schedule will read
// them, and otherwise a pinch decision serves.
func (e *Engine) resolve(st *epochState, q Query, res *Result, full bool) (d decision, done bool) {
	if q.Estimator == BoundsName {
		start := time.Now()
		res.Used = BoundsName
		res.Reliability = e.router.midpoint(st.g, st.srcTag(q.S), q.S, q.T)
		res.Latency = time.Since(start)
		e.record(BoundsName, res.Latency.Seconds(), false)
		return d, true
	}
	start := time.Now()
	if full {
		d = e.router.routeFull(st.g, st.srcTag(q.S), q.S, q.T)
	} else {
		d = e.router.route(st.g, st.srcTag(q.S), q.S, q.T)
	}
	if d.pinched {
		res.Used = BoundsName
		res.Reliability = d.value
		// The bounds walk is the whole cost of a pinched answer; record
		// it so the "bounds" stats row reflects reality, not zero.
		res.Latency = time.Since(start)
		e.record(BoundsName, res.Latency.Seconds(), false)
		return d, true
	}
	return d, false
}

// effectiveDeadline resolves a query's wall-clock bound from its Deadline
// field and the context's deadline; the zero time means unbounded.
func effectiveDeadline(ctx context.Context, d time.Duration) time.Time {
	var dl time.Time
	if d > 0 {
		dl = time.Now().Add(d)
	}
	if cd, ok := ctx.Deadline(); ok && (dl.IsZero() || cd.Before(dl)) {
		dl = cd
	}
	return dl
}

// adaptiveOpts builds the stopping configuration for one anytime query.
// Routed queries seed the prior from the bounds midpoint and pick the
// chunk schedule from the hard/easy classification: hard queries (wide
// bounds) start with larger chunks, since their convergence checks cannot
// succeed early anyway.
func (e *Engine) adaptiveOpts(ctx context.Context, q Query, dl time.Time, d decision) core.AdaptiveOptions {
	opts := core.AdaptiveOptions{
		Eps:      q.Eps,
		MaxK:     q.K,
		Deadline: dl,
		Ctx:      ctx,
	}
	if d.width > 0 { // routed: the bounds interval is known
		opts.Prior = d.prior
		if d.width > defaultHardWidth {
			opts.Chunk = hardChunk
		} else {
			opts.Chunk = easyChunk
		}
	}
	return opts
}

// easyChunk and hardChunk are the anytime layer's starting chunk sizes by
// routed hard/easy classification (bounds wider than defaultHardWidth are
// hard); unclassified (named-estimator) queries use the core default.
const (
	easyChunk        = 256
	hardChunk        = 1024
	defaultHardWidth = 0.25
)

// queryKey builds the result-cache key for a query running under the
// given stopping configuration: the schedule fields keep bounds-seeded
// (routed) anytime runs apart from default-schedule ones, since the two
// stop at different chunk boundaries. The source's invalidation tag makes
// entries outdated by a mutation unreachable (cache.go).
func (e *Engine) queryKey(st *epochState, name string, q Query, opts core.AdaptiveOptions) cacheKey {
	return cacheKey{
		s: q.S, t: q.T, est: name, k: q.K, eps: q.Eps,
		chunk: opts.Chunk, prior: opts.Prior, epoch: st.srcTag(q.S),
	}
}

// runSingle answers one validated query with the named estimator: cache
// lookup, then a borrowed, per-query-reseeded instance.
func (e *Engine) runSingle(ctx context.Context, st *epochState, name string, d decision, q Query, res *Result) {
	res.Used = name
	dl := effectiveDeadline(ctx, q.Deadline)
	var opts core.AdaptiveOptions
	if q.Eps > 0 || !dl.IsZero() {
		opts = e.adaptiveOpts(ctx, q, dl, d)
	}
	key := e.queryKey(st, name, q, opts)
	// Deadline-truncated results are timing-dependent: never cached.
	if dl.IsZero() {
		if v, ok := e.cache.get(key); ok {
			e.fillHit(res, name, v)
			return
		}
	}
	e.compute(ctx, st, name, q, dl, opts, key, res)
}

// compute answers one query on a borrowed instance of the named estimator
// and does the full accounting: timing, cache fill, router observation,
// counters. A faulted replica (or factory) costs exactly this query: the
// replica is discarded, the error is typed, nothing is cached.
func (e *Engine) compute(ctx context.Context, st *epochState, name string, q Query, dl time.Time, opts core.AdaptiveOptions, key cacheKey, res *Result) {
	if err := e.withReplica(st.pool(name), func(inst core.Estimator) {
		start := time.Now()
		e.runOne(ctx, inst, name, q, dl, opts, res)
		res.Latency = time.Since(start)
	}); err != nil {
		res.Err = err
		return
	}
	if res.Err == nil && dl.IsZero() {
		e.cache.put(key, answerOf(res, st.epoch))
	}
	// The plan feeds the router's PackMC row, and no search cost: it never
	// weighs against a sweep.
	e.router.observe(servedBy(name), res.Latency.Seconds())
	if packLike(name) && q.Eps == 0 && dl.IsZero() {
		e.router.observeSearch(res.Latency.Seconds() / float64(q.K))
	}
	e.record(name, res.Latency.Seconds(), false)
}

// runOne reseeds inst for the query and runs the estimate: one fixed-K
// call for a plain query, an incremental session under the given stopping
// configuration for an anytime one. With Eps = 0 and no deadline the
// fixed path runs, so plain queries stay bit-identical to the estimators'
// own Estimate.
func (e *Engine) runOne(ctx context.Context, inst core.Estimator, name string, q Query, dl time.Time, opts core.AdaptiveOptions, res *Result) {
	seed := e.querySeedFor(name, q.S, q.T, q.K)
	if faultinject.Enabled() {
		// Injection points keyed by the per-query stream seed, so a seeded
		// injector faults the same queries on every run regardless of
		// scheduling. The panic is contained by withReplica above.
		faultinject.Sleep(faultinject.SlowReplica, seed)
		faultinject.MaybePanic(faultinject.EstimatorPanic, seed)
	}
	if name == planName {
		inst = core.NewTwoPhasePackMC(inst.(*core.PackMC))
	}
	if s, ok := inst.(core.Seeder); ok {
		s.Reseed(seed)
	}
	e.runScalar(ctx, q, core.NewSampler(inst, q.S, q.T), q.Eps > 0 || !dl.IsZero(), opts, res)
}

// fillAnytime reports an anytime session's outcome on res — the estimate,
// the samples drawn and the rule that stopped them; a canceled session
// fails res with the context error — and adds it to the
// samples-saved-vs-budget accounting.
func (e *Engine) fillAnytime(ctx context.Context, res *Response, budget int, ar core.AdaptiveResult) {
	res.Reliability = ar.Estimate
	res.SamplesUsed = ar.Samples
	res.StopReason = string(ar.Reason)
	if ar.Reason == core.StopCanceled {
		res.Err = ctx.Err()
	}
	e.mu.Lock()
	e.anytimeQueries++
	e.samplesBudget += uint64(budget)
	e.samplesDrawn += uint64(ar.Samples)
	e.mu.Unlock()
}

// fillHit answers res from a result-cache entry.
func (e *Engine) fillHit(res *Response, name string, v cacheVal) {
	res.Reliability, res.Reliabilities, res.TopTargets = v.r, v.all, v.top
	res.SamplesUsed, res.StopReason, res.Epoch = v.samples, v.reason, v.epoch
	res.Cached = true
	e.record(name, 0, true)
}

// answerOf is the cache entry for res, computed under epoch.
func answerOf(res *Response, epoch uint64) cacheVal {
	return cacheVal{
		r: res.Reliability, all: res.Reliabilities, top: res.TopTargets,
		samples: res.SamplesUsed, reason: res.StopReason, epoch: epoch,
	}
}

// fanOut answers the duplicates dups with the computation at results[first]:
// the same payload and epoch, reported as reused (Cached, counted in
// Stats.DedupedQueries) whether or not the result cache is enabled. An
// errored representative (context cancellation) passes its error on
// without posing as a cache hit.
func (e *Engine) fanOut(results []Response, first int, dups []int) {
	src := &results[first]
	for _, i := range dups {
		results[i] = Response{
			Request: results[i].Request, Used: src.Used, Epoch: src.Epoch,
			Reliability: src.Reliability, Reliabilities: src.Reliabilities, TopTargets: src.TopTargets,
			SamplesUsed: src.SamplesUsed, StopReason: src.StopReason,
			Cached: src.Err == nil, Err: src.Err,
		}
		if src.Err == nil {
			e.noteDeduped()
			e.record(src.Used, 0, true)
		}
	}
}

// querySeedFor derives the stream seed runOne reseeds with. PackMC's
// source-grouped batch path answers every target of an (s, k) group from
// one reseeded pack sweep (AllSampler), so its seed must ignore the
// target — single and grouped execution then draw the same world ensemble
// and, because PackMC's masks are counter-based, return identical values.
// Every other estimator keeps the full (s, t, k) key.
func (e *Engine) querySeedFor(name string, s, t uncertain.NodeID, k int) uint64 {
	if packLike(name) {
		t = s
	}
	return querySeed(e.cfg.Seed, name, s, t, k)
}

// workUnit is one work item of the execution spine. Two shapes:
//   - a groupable estimator (BFS Sharing, ProbTree, PackMC): a (source,
//     k, ε, deadline) group — every same-source, same-budget,
//     same-stopping-rule query of the call, answered with the per-source
//     work amortized across the group;
//   - otherwise: one distinct (estimator, s, t, k, ε, deadline) query,
//     computed once and fanned out to every position that asked for it.
//
// Routed (unnamed-estimator) queries are resolved in a parallel phase
// before units are built, so queries the router sends to a groupable
// estimator join its amortized source groups too.
type workUnit struct {
	est      string
	s        uncertain.NodeID
	k        int
	eps      float64
	deadline time.Duration
	idxs     []int // query indices the unit answers
	shape    unitShape
}

// unitShape says how a work unit runs.
type unitShape int

const (
	// perQuery: one distinct plain query, run by runSingle.
	perQuery unitShape = iota
	// sourceGroup: an amortized source group, run by runShared.
	sourceGroup
	// kindRequest: a non-plain request (any kind other than plain s-t
	// reliability, or any request under evidence), run by runKind. Such
	// units are deduped on the full request identity, so mixed calls
	// group by (kind, source, parameters) — a top-k and a single-source
	// request of one source are distinct units, while identical requests
	// collapse to one computation.
	kindRequest
)

// groupKey identifies one work unit: the cache key (whose target is zeroed
// for amortized source groups) plus the deadline, which shapes anytime
// execution but never enters the result cache.
type groupKey struct {
	key      cacheKey
	deadline time.Duration
}

// sharedName, ptName, and packName are the estimators whose core API
// exposes multi-target amortization: one BFS Sharing traversal computes
// every target's reliability at once (AllSampler), one ProbTree group
// splice expands the source-side bag chain once for all targets
// (QueryGraphAll), and one pack sweep leaves every reached node's
// per-world hit counts behind (AllSampler again; a fixed-budget pack
// group may search per target instead, see run). All other estimators
// answer per query, so their batch queries become individual work units
// and spread over all workers instead of serializing behind a shared
// source.
const (
	sharedName  = "BFSSharing"
	ptName      = "ProbTree"
	packName    = "PackMC"
	pack256Name = "PackMC256"
	pack512Name = "PackMC512"
)

// planName is what answers a routed fixed-k query the router sends to
// PackMC: core's two-phase pack (PackMC.EstimateTwoPhase) on a PackMC
// replica. It is no configured estimator. Its queries run one by one,
// never in a sweep group, so a batch answers them as single calls do;
// its stream seed and cache entries are its own, apart from named
// PackMC's. Eps- and deadline-targeted routed queries keep the plain pack.
const planName = core.TwoPhaseName

// servedBy returns the configured estimator that serves name: PackMC for
// the plan, which runs on PackMC's replicas and costs what routing to
// PackMC costs; name itself otherwise.
func servedBy(name string) string {
	if name == planName {
		return packName
	}
	return name
}

// packLike reports whether name is one of the pack names. All three run
// on PackMC replicas from one pool and share its counter-based stream
// properties: the target-less query seed, the amortized source-session
// batch path, and evidence capability (index-free, O(n) construction per
// overlay). The name enters only the query seed.
func packLike(name string) bool {
	return name == packName || name == pack256Name || name == pack512Name
}

// groupable reports whether name's batch queries are amortized per
// (source, k) group rather than answered per query.
func groupable(name string) bool {
	return name == sharedName || name == ptName || packLike(name)
}

// orderedGroups accumulates query indices per key in the keys'
// first-appearance order, so iteration — and with it unit execution order
// — is deterministic run to run: groups[j] holds the indices of order[j].
// The key index is built only when a second distinct key arrives, so a
// call with one query allocates no map.
type orderedGroups[K comparable] struct {
	order  []K
	groups [][]int
	index  map[K]int
}

func (g *orderedGroups[K]) add(key K, i int) {
	j, seen := g.index[key]
	if g.index == nil {
		seen = len(g.order) == 1 && g.order[0] == key
	}
	if !seen {
		j = len(g.order)
		if j == 1 {
			g.index = map[K]int{g.order[0]: 0}
		}
		if g.index != nil {
			g.index[key] = j
		}
		g.order = append(g.order, key)
		g.groups = append(g.groups, nil)
	}
	g.groups[j] = append(g.groups[j], i)
}

// run is the engine's one execution spine, behind both Estimate and
// EstimateBatch (through execute, relabel.go): validate every query,
// admit the valid ones as one request, degrade them if admission says so,
// resolve routed queries in parallel, build work units, run the units
// over the workers, and flag the degraded answers. Results echo each
// request as asked, not the degraded variant actually executed.
func (e *Engine) run(ctx context.Context, queries []Query) []Result {
	// The whole call runs against one epoch snapshot: validation,
	// admission costing, routing, amortized groups, and cache keys all
	// agree on the graph, whatever Apply does concurrently.
	st := e.state.Load()
	results := make([]Response, len(queries))
	valid := 0
	for i, q := range queries {
		results[i] = Response{Request: q, Epoch: st.epoch, Err: e.validate(st, q)}
		if results[i].Err == nil {
			valid++
		}
	}
	// Requests that fail validation or arrive canceled are never admitted.
	fail := func(err error) []Result {
		for i := range results {
			if results[i].Err == nil {
				results[i].Err = err
			}
		}
		return results
	}
	if valid == 0 {
		return results
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	release, lvl, err := e.admit(ctx, st, queries, results)
	if err != nil {
		return fail(err)
	}
	defer release()
	// exec is what actually runs: the degraded variants of the queries
	// under a ladder level, the queries themselves otherwise.
	exec, degradedAt := e.degradeAll(queries, lvl)
	// decisions[i].estimator names the estimator query i runs on; it
	// stays "" for queries not to run (invalid, or answered by the
	// bounds). Routed queries carry their whole bounds decision.
	decisions := make([]decision, len(exec))
	var routed orderedGroups[cacheKey] // adaptive queries by (s, t)
	var kinds orderedGroups[groupKey]  // non-plain requests by identity
	for i, q := range exec {
		if results[i].Err != nil {
			continue
		}
		e.noteKind(q.kind())
		if !q.plainReliability() {
			// Non-plain requests dedupe on their full identity; each
			// distinct request is one work unit, answered by runKind.
			kinds.add(groupKey{key: e.kindKey(st, q, e.kindEstimator(q)), deadline: q.Deadline}, i)
			continue
		}
		if q.Estimator == "" || q.Estimator == BoundsName {
			// Routing depends only on (s, t) — dedupe so a batch full of
			// one hot pair pays the bounds walk once, not once per query.
			// The estimator field keeps explicit bounds requests in their
			// own group, apart from adaptive ones.
			routed.add(cacheKey{s: q.S, t: q.T, est: q.Estimator}, i)
			continue
		}
		decisions[i].estimator = q.Estimator
	}
	// Resolve adaptive queries across the workers first — the analytic
	// bounds walk is most of routing's cost and must not run serially —
	// so routed queries join the amortized groups below like named ones.
	// A pair group holding an anytime query, or any under a context
	// deadline, runs on a bounds-seeded schedule (below) and needs full
	// bounds; fixed-k groups need only the pinch verdict.
	_, ctxDeadline := ctx.Deadline()
	pairs := routed.groups
	e.forEachParallel(len(pairs), func(j int) {
		idxs := pairs[j]
		if err := ctx.Err(); err != nil {
			for _, i := range idxs {
				results[i].Err = err
			}
			return
		}
		full := ctxDeadline
		for _, i := range idxs {
			full = full || exec[i].anytime()
		}
		first := idxs[0]
		d, done := e.resolve(st, exec[first], &results[first], full)
		if done {
			// Duplicates count in the bounds counters like separate calls.
			for range idxs[1:] {
				e.router.notePinched()
			}
			e.fanOut(results, first, idxs[1:])
			return
		}
		for _, i := range idxs {
			decisions[i] = d
		}
		for range idxs[1:] {
			e.router.noteRouted(d.estimator)
		}
	}, func(j int, err error) {
		for _, i := range pairs[j] {
			results[i].Err = err
		}
	})

	// Units are built in first-appearance order so execution order (and
	// with it replica construction and stats accumulation) is the same
	// on every run of an identical call. Group keys extend cacheKey with
	// the deadline; for amortized groups the target is zeroed, keying on
	// (estimator, s, k, ε, deadline).
	var shared, single orderedGroups[groupKey]
	for i, q := range exec {
		name := decisions[i].estimator
		if name == "" {
			continue
		}
		// Dedup identical queries: one computation fans out to every
		// position that asked for it.
		gk := groupKey{key: cacheKey{s: q.S, t: q.T, est: name, k: q.K, eps: q.Eps}, deadline: q.Deadline}
		switch {
		case decisions[i].width > 0 && (q.anytime() || ctxDeadline):
			// A routed anytime query runs on a bounds-seeded chunk
			// schedule: a lockstep group sweep cannot honor it, and a
			// named query of the same pair (default schedule) is not its
			// duplicate.
			gk.key.prior = decisions[i].prior
			single.add(gk, i)
		case decisions[i].width > 0 && name == packName:
			// A routed fixed-k pack query runs the plan, alone.
			gk.key.est = planName
			single.add(gk, i)
		case groupable(name):
			gk.key.t = 0
			shared.add(gk, i)
		default:
			single.add(gk, i)
		}
	}
	// A fixed-k pack group pays one source sweep for all its targets, or
	// one s-t search per target. Which is cheaper depends on the graph (a
	// sweep costs ~20 searches on DBLP_0.2 at k=1000, under 2 on lastFM)
	// and on the group's size, so the router's measured costs decide. A
	// group that searches leaves as per-query units, which dedupe, cache
	// and spread over the workers like any other; its values do not move,
	// since pack queries draw a target-less stream (querySeedFor). shared
	// is compacted in place and takes no further adds.
	kept := 0
	for j, gk := range shared.order {
		idxs := shared.groups[j]
		if packLike(gk.key.est) && gk.key.eps == 0 && gk.deadline == 0 && !ctxDeadline &&
			e.router.searchEach(distinctTargets(exec, idxs)) {
			for _, i := range idxs {
				gk.key.t = exec[i].T
				single.add(gk, i)
			}
			continue
		}
		shared.order[kept], shared.groups[kept] = gk, idxs
		kept++
	}
	shared.order, shared.groups = shared.order[:kept], shared.groups[:kept]
	var units []workUnit
	addUnits := func(g *orderedGroups[groupKey], shape unitShape) {
		for j, gk := range g.order {
			units = append(units, workUnit{
				est: gk.key.est, s: gk.key.s, k: gk.key.k,
				eps: gk.key.eps, deadline: gk.deadline, idxs: g.groups[j], shape: shape,
			})
		}
	}
	addUnits(&single, perQuery)
	// One unit per (estimator, source, k, ε, deadline): same-source
	// groups with different budgets (or estimators, or stopping rules)
	// are independent, so they parallelize too.
	addUnits(&shared, sourceGroup)
	// Non-plain kind units parallelize like any other; their estimator
	// pools (BFS Sharing, PackMC, per-d distance) are Workers-deep.
	addUnits(&kinds, kindRequest)

	e.forEachParallel(len(units), func(j int) {
		u := units[j]
		if err := ctx.Err(); err != nil {
			for _, i := range u.idxs {
				results[i].Err = err
			}
			return
		}
		first := u.idxs[0]
		switch u.shape {
		case sourceGroup:
			e.runShared(ctx, st, u, exec, results)
			return
		case kindRequest:
			e.runKind(ctx, st, exec[first], &results[first])
		default:
			e.runSingle(ctx, st, u.est, decisions[first], exec[first], &results[first])
		}
		e.fanOut(results, first, u.idxs[1:])
	}, func(j int, err error) {
		// A unit that still panicked past the replica-level containment
		// (an engine bug, not a replica fault) costs its own positions
		// only; the rest of the call is unaffected.
		for _, i := range units[j].idxs {
			results[i].Err = err
		}
	})

	for i := range degradedAt {
		if !degradedAt[i] || results[i].Err != nil {
			continue
		}
		results[i].Degraded = true
		e.adm.noteDegraded()
		if results[i].Used == BoundsName && queries[i].Estimator != BoundsName {
			// The ladder floor: the request asked for sampling and got the
			// bounds midpoint instead.
			results[i].StopReason = string(core.StopDegraded)
		}
	}
	return results
}

// distinctTargets counts the distinct targets among queries[idxs].
func distinctTargets(queries []Query, idxs []int) int {
	seen := make(map[uncertain.NodeID]struct{}, len(idxs))
	for _, i := range idxs {
		seen[queries[i].T] = struct{}{}
	}
	return len(seen)
}

// forEachParallel runs fn(0..n-1) across up to Workers goroutines,
// returning when all calls complete. A panic in fn is contained to its
// work item: capturePanic converts it to a typed error and onPanic(j,
// err) reports it, so one faulting unit costs exactly that unit's
// results — never the process (an unrecovered panic on an engine-spawned
// goroutine would kill it) and never the batch's other units.
func (e *Engine) forEachParallel(n int, fn func(int), onPanic func(int, error)) {
	workers := min(e.cfg.Workers, n)
	if workers <= 1 {
		for j := 0; j < n; j++ {
			runContained(j, fn, onPanic)
		}
		return
	}
	work := make(chan int, n)
	for j := 0; j < n; j++ {
		work <- j
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				runContained(j, fn, onPanic)
			}
		}()
	}
	wg.Wait()
}

// runContained runs fn(j), reporting a panic through onPanic.
func runContained(j int, fn func(int), onPanic func(int, error)) {
	if err := capturePanic(func() { fn(j) }); err != nil && onPanic != nil {
		onPanic(j, err)
	}
}

// runShared amortizes a groupable (estimator, source, k, ε, deadline)
// group: every query shares the estimator, source, budget, and stopping
// rule, so the per-source work is paid once for the whole group. For BFS
// Sharing and PackMC one source session (AllSampler) advanced by k
// answers all targets at once — its SnapshotOf(t) is exactly
// Estimate(s, t, k), the s-t query just reads one entry of the traversal
// the method computes anyway (PackMC is reseeded target-less, and its
// counter-based streams draw the world ensemble each single query would).
// For ProbTree one QueryGraphEach call expands the s-side bag chain once
// and splices every target against it, producing per-target query graphs
// identical to per-query splicing; each target's inner estimate then runs
// under its own per-query reseed. On every path amortization does not
// change results.
//
// Anytime groups (ε or deadline set) run the same amortized traversals
// incrementally: BFS Sharing and PackMC advance one multi-target session
// in lockstep and retire each target as its stopping rule fires, ending
// the shared sweep once every target is retired; ProbTree splices the
// source side once and runs each target's inner session under its own
// stopping. Grouped execution uses the default chunk schedule, as named
// queries do on the per-query path, so the sessions share streams and
// chunk boundaries and a grouped answer is bit-identical to the per-query
// one. (Routed anytime queries, whose schedule is bounds-seeded, are
// never grouped.)
func (e *Engine) runShared(ctx context.Context, st *epochState, u workUnit, queries []Query, results []Result) {
	name, s, k := u.est, u.s, u.k
	dl := effectiveDeadline(ctx, u.deadline)
	anytime := u.eps > 0 || !dl.IsZero()
	cacheable := dl.IsZero()
	keyFor := func(t uncertain.NodeID) cacheKey {
		return cacheKey{s: s, t: t, est: name, k: k, eps: u.eps, epoch: st.srcTag(s)}
	}
	// Dedupe by target first, then consult the cache once per unique
	// target — duplicates never touch the cache counters, matching the
	// per-query dedup path.
	var byTarget orderedGroups[uncertain.NodeID]
	for _, i := range u.idxs {
		results[i].Used = name
		byTarget.add(queries[i].T, i)
	}
	var missTargets []uncertain.NodeID
	var misses [][]int // each miss target's positions, representative first
	for j, t := range byTarget.order {
		grp := byTarget.groups[j]
		if cacheable {
			if v, hit := e.cache.get(keyFor(t)); hit {
				e.fillHit(&results[grp[0]], name, v)
				e.fanOut(results, grp[0], grp[1:])
				continue
			}
		}
		missTargets = append(missTargets, t)
		misses = append(misses, grp)
	}
	switch len(missTargets) {
	case 0:
		return
	case 1:
		// A lone target gains nothing from amortization; answer it on the
		// per-query path, on the group's default chunk schedule so its
		// cache key matches the lockstep path's entries for the same
		// (s, t, k, ε).
		first := misses[0][0]
		q := queries[first]
		var opts core.AdaptiveOptions
		if anytime {
			opts = e.adaptiveOpts(ctx, q, dl, decision{})
		}
		e.compute(ctx, st, name, q, dl, opts, e.queryKey(st, name, q, opts), &results[first])
		e.fanOut(results, first, misses[0][1:])
		return
	}
	var elapsed time.Duration
	perr := e.withReplica(st.pools[name], func(inst core.Estimator) {
		if faultinject.Enabled() {
			// The whole group is one traversal, so it faults (or drags) as
			// a unit, keyed by the group's target-less stream seed.
			fkey := e.querySeedFor(name, s, s, k)
			faultinject.Sleep(faultinject.SlowReplica, fkey)
			faultinject.MaybePanic(faultinject.EstimatorPanic, fkey)
		}
		start := time.Now()
		opts := core.AdaptiveOptions{Eps: u.eps, MaxK: k, Deadline: dl, Ctx: ctx}
		switch est := inst.(type) { // factoryFor guarantees the concrete types
		case *core.ProbTreeQuerier:
			// Streamed so only one spliced graph is alive at a time, however
			// wide the group.
			est.QueryGraphEach(s, missTargets, func(i int, sq core.SplicedQuery) {
				// The same per-query reseed as runOne, so the inner sampler
				// stream — and with it the estimate — matches a single
				// Estimate call bit for bit.
				est.Reseed(e.querySeedFor(name, s, missTargets[i], k))
				res := &results[misses[i][0]]
				if anytime {
					e.fillAnytime(ctx, res, k, core.AdaptiveEstimate(est.SplicedSampler(sq), opts))
					return
				}
				res.Reliability, res.SamplesUsed = est.EstimateSpliced(sq, k), k
			})
		case core.SourceSampler:
			// Pack names reseed target-less exactly as runOne does; the BFS
			// querier has no per-query stream (its worlds are the index's).
			if sd, ok := est.(core.Seeder); ok {
				sd.Reseed(e.querySeedFor(name, s, s, k))
			}
			e.sweep(est, func(ss core.SourceSampler) int {
				ms := ss.AllSampler(s)
				if anytime {
					for i, ar := range core.AdaptiveEstimateAll(ms, missTargets, opts) {
						e.fillAnytime(ctx, &results[misses[i][0]], k, ar)
					}
					return ms.N()
				}
				ms.Advance(k)
				for i, t := range missTargets {
					res := &results[misses[i][0]]
					res.Reliability, res.SamplesUsed = ms.SnapshotOf(t).Estimate, k
				}
				return k
			})
		default:
			panic(fmt.Sprintf("engine: estimator %q grouped without an amortized path", name))
		}
		elapsed = time.Since(start)
	})
	if perr != nil {
		// The replica faulted (and was discarded): every miss target of
		// the group fails with the typed error — the cache-served targets
		// above already have their answers and keep them.
		for _, grp := range misses {
			for _, i := range grp {
				results[i] = Response{Request: results[i].Request, Used: name, Epoch: st.epoch, Err: perr}
			}
		}
		return
	}
	// Each query's Latency reports its amortized share of the shared
	// group, but the router sees the full group cost once: a single
	// adaptive query routed here would pay all of it.
	share := elapsed / time.Duration(len(missTargets))
	e.router.observe(name, elapsed.Seconds())
	for i, grp := range misses {
		res := &results[grp[0]]
		res.Latency = share
		if res.Err == nil && cacheable {
			e.cache.put(keyFor(missTargets[i]), answerOf(res, st.epoch))
		}
		e.record(name, share.Seconds(), false)
		e.fanOut(results, grp[0], grp[1:])
	}
}

// sweep runs one source sweep on ss: on a pack replica at the width the
// router picks, feeding that width's cost per drawn sample back, and on
// any other source estimator (the BFS querier) as it is. run returns the
// samples it drew.
func (e *Engine) sweep(ss core.SourceSampler, run func(core.SourceSampler) int) {
	pm, ok := ss.(*core.PackMC)
	if !ok {
		run(ss)
		return
	}
	lanes := e.router.sweepWidth()
	start := time.Now()
	if n := run(pm.SweepAt(lanes)); n > 0 {
		e.router.observeSweep(lanes, time.Since(start).Seconds()/float64(n))
	}
}

// Do borrows an instance of the named estimator for fn's exclusive use —
// the escape hatch for advanced queries (top-k, single-source) that need
// the concrete estimator rather than one Estimate call. The instance is
// reseeded before fn runs, so a borrowed sampling estimator's stream
// depends only on the engine seed, never on the queries the replica
// happened to serve earlier. The pack names lend a PackMC replica, and
// the plan name routed answers report (planName) borrows one that runs
// the plan.
//
// fn must not call back into the engine for the same estimator: it holds
// one of the pool's Workers replicas, and at Workers = 1 a re-entrant
// borrow blocks forever.
func (e *Engine) Do(name string, fn func(core.Estimator) error) error {
	p := e.state.Load().pool(name)
	if p == nil {
		return fmt.Errorf("engine: unknown estimator %q", name)
	}
	inst := p.get()
	defer p.put(inst)
	est := inst
	if name == planName {
		est = core.NewTwoPhasePackMC(inst.(*core.PackMC))
	}
	if s, ok := est.(core.Seeder); ok {
		s.Reseed(mix64(replicaSeed(e.cfg.Seed, name) + 0xD0e5eed))
	}
	return fn(est)
}

// noteDeduped counts one intra-batch duplicate answered by reuse, so the
// per-result Cached flags reconcile with Stats even when the LRU is
// disabled (CacheHits + DedupedQueries covers every reused answer).
func (e *Engine) noteDeduped() {
	e.mu.Lock()
	e.deduped++
	e.mu.Unlock()
}

// perEstCap bounds the per-estimator stats map: the distance kind mints a
// row per client-chosen hop bound ("MC(d<=7)"), so without a cap a client
// sweeping hop bounds would grow Stats.Estimators without limit. Rows
// beyond the cap accumulate under the overflow name.
const (
	perEstCap      = 256
	perEstOverflow = "other"
)

// record accumulates per-estimator counters. Cached answers count as
// queries but contribute no latency.
func (e *Engine) record(name string, seconds float64, cached bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries++
	c := e.perEst[name]
	if c == nil {
		if len(e.perEst) >= perEstCap {
			name = perEstOverflow
			c = e.perEst[name]
		}
	}
	if c == nil {
		c = &estCounter{}
		e.perEst[name] = c
	}
	c.queries++
	if !cached {
		c.computed++
		c.totalSecs += seconds
	}
}

// EstimatorStats reports one estimator's share of engine traffic.
type EstimatorStats struct {
	Queries      uint64  `json:"queries"`
	AvgLatencyMs float64 `json:"avgLatencyMs"`
	// EwmaLatencyMs is the router's latency estimate: the mean over the
	// estimator's first 256 computed queries, then an EWMA over a
	// 256-query horizon. 0 until the first computed query.
	EwmaLatencyMs float64 `json:"ewmaLatencyMs"`
	Routed        uint64  `json:"routed"`
	PoolReplicas  int     `json:"poolReplicas"`
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Queries        uint64 `json:"queries"`
	Batches        uint64 `json:"batches"`
	BatchQueries   uint64 `json:"batchQueries"`
	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	CacheEvictions uint64 `json:"cacheEvictions"`
	DedupedQueries uint64 `json:"dedupedQueries"`
	CacheLen       int    `json:"cacheLen"`
	CacheCap       int    `json:"cacheCap"`
	BoundsAnswered uint64 `json:"boundsAnswered"`
	// BoundsMemo reports the router's bounds-memo LRU (hits, misses,
	// evictions, occupancy) so operators can size it: a memo churning
	// through evictions means repeated adaptive traffic is re-paying the
	// bounds computation.
	BoundsMemo CacheStats `json:"boundsMemo"`
	// BoundsComputed and BoundsSeconds are the planner's cost: how many
	// times the router computed analytic bounds (a memo miss each) and
	// the wall-clock seconds that took in total, to set against the
	// estimators' latencies. BoundsCutoff is the interval width at or
	// below which the router answers from the bounds alone, as resolved
	// from the configuration.
	BoundsComputed uint64  `json:"boundsComputed"`
	BoundsSeconds  float64 `json:"boundsSeconds"`
	BoundsCutoff   float64 `json:"boundsCutoff"`
	// Anytime accounting: queries computed under a stopping rule (ε or
	// deadline), the total samples their budgets allowed, and the samples
	// actually drawn — AnytimeSamplesSaved is the work the stopping rules
	// avoided versus running every such query to its full budget.
	AnytimeQueries      uint64 `json:"anytimeQueries"`
	AnytimeSampleCap    uint64 `json:"anytimeSampleCap"`
	AnytimeSamplesDrawn uint64 `json:"anytimeSamplesDrawn"`
	AnytimeSamplesSaved uint64 `json:"anytimeSamplesSaved"`
	Workers             int    `json:"workers"`
	// Admission reports the overload controller: requests admitted,
	// queued, shed (429-class), timed out in the queue (503-class), and
	// answered degraded, plus the live inflight and queue gauges. All
	// zero (Enabled false) when admission control is off.
	Admission AdmissionStats `json:"admission"`
	// Mutations reports the dynamic-graph subsystem: the current epoch
	// and the cumulative mutation/invalidation/repair counters.
	Mutations  MutationStats             `json:"mutations"`
	Estimators map[string]EstimatorStats `json:"estimators"`
	// Kinds counts accepted requests per query kind ("reliability",
	// "distance", "topk", "single_source", "kterminal"), so operators see
	// the workload mix the unified surface carries.
	Kinds map[string]uint64 `json:"kinds"`
}

// MutationStats is Stats' dynamic-graph section: the current epoch, the
// committed batch / applied mutation counts, how many source invalidation
// tags mutations have bumped (the precise-invalidation work), the
// incremental-repair vs full-rebuild split of index maintenance, the
// mutation log's retained batch count, and the live subscriber gauge.
type MutationStats struct {
	Epoch              uint64 `json:"epoch"`
	Batches            uint64 `json:"batches"`
	Applied            uint64 `json:"applied"`
	InvalidatedSources uint64 `json:"invalidatedSources"`
	IndexRepairs       uint64 `json:"indexRepairs"`
	IndexRebuilds      uint64 `json:"indexRebuilds"`
	LogRetained        int    `json:"logRetained"`
	Subscribers        int    `json:"subscribers"`
}

// Stats snapshots the engine's counters. The cache, router, and engine
// counters are sampled under their own locks without a global freeze, so
// a snapshot taken under concurrent traffic can be skewed by in-flight
// queries (e.g. CacheHits momentarily exceeding Queries).
func (e *Engine) Stats() Stats {
	routed, ewma, pinched, boundsRuns, boundsSecs := e.router.snapshot()
	cs := e.cache.stats()
	memo := e.router.memoStats()
	st := e.state.Load()
	e.subMu.Lock()
	subscribers := len(e.subs)
	e.subMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	out := Stats{
		Queries:             e.queries,
		Batches:             e.batches,
		BatchQueries:        e.batched,
		CacheHits:           cs.Hits,
		CacheMisses:         cs.Misses,
		CacheEvictions:      cs.Evictions,
		DedupedQueries:      e.deduped,
		CacheLen:            cs.Len,
		CacheCap:            cs.Cap,
		BoundsAnswered:      pinched,
		BoundsMemo:          memo,
		BoundsComputed:      boundsRuns,
		BoundsSeconds:       boundsSecs,
		BoundsCutoff:        e.router.cutoff,
		AnytimeQueries:      e.anytimeQueries,
		AnytimeSampleCap:    e.samplesBudget,
		AnytimeSamplesDrawn: e.samplesDrawn,
		AnytimeSamplesSaved: e.samplesBudget - e.samplesDrawn,
		Workers:             e.cfg.Workers,
		Admission:           e.adm.stats(),
		Mutations: MutationStats{
			Epoch:              st.epoch,
			Batches:            e.mutBatches,
			Applied:            e.mutApplied,
			InvalidatedSources: e.srcInvalidated,
			IndexRepairs:       e.idxRepairs,
			IndexRebuilds:      e.idxRebuilds,
			LogRetained:        e.log.Len(),
			Subscribers:        subscribers,
		},
		Estimators: make(map[string]EstimatorStats, len(e.perEst)),
		Kinds:      make(map[string]uint64, len(e.perKind)),
	}
	for k, v := range e.perKind { //lint:allow maprange commutative map-to-map copy for a stats snapshot
		out.Kinds[string(k)] = v
	}
	for name, c := range e.perEst { //lint:allow maprange commutative map-to-map copy for a stats snapshot
		es := EstimatorStats{
			Queries:       c.queries,
			Routed:        routed[name],
			EwmaLatencyMs: ewma[name] * 1000,
		}
		if c.computed > 0 {
			es.AvgLatencyMs = c.totalSecs / float64(c.computed) * 1000
		}
		if p := st.pools[name]; p != nil {
			es.PoolReplicas = p.size()
		}
		out.Estimators[name] = es
	}
	return out
}

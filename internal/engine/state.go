package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"relcomp/internal/core"
	"relcomp/internal/uncertain"
)

// The dynamic-graph serving state. Everything derived from the graph —
// the graph itself, the estimator replica pools, the lazily built offline
// indexes, the evidence-overlay memo, the per-hop-bound distance pools,
// and the per-source invalidation epochs — lives in one immutable
// epochState behind an atomic pointer. A query loads the pointer once and
// works against that consistent snapshot for its whole lifetime;
// Engine.Apply builds the successor state off to the side (repairing the
// built indexes incrementally) and swaps the pointer, so concurrent
// queries see either the pre-mutation world or the post-mutation world,
// never a blend. Engine-global concerns that must survive mutations —
// the result cache (epoch-tagged keys make stale entries unreachable),
// the router's latency EWMAs, admission control, counters, the id
// relabel map (the node set never changes) — stay on the Engine.

// lazyIndex is a peekable once-cell: get() builds on first use (like
// sync.OnceValue), and peek() reports the built value without forcing the
// build — which is what lets Apply repair an index incrementally exactly
// when someone has paid for it, and keep laziness when nobody has.
type lazyIndex[T any] struct {
	once  sync.Once
	build func() T
	built atomic.Bool
	v     T
}

// newLazyIndex returns a cell that builds on first get.
func newLazyIndex[T any](build func() T) *lazyIndex[T] {
	return &lazyIndex[T]{build: build}
}

// resolvedIndex returns a cell already holding v (a preloaded or repaired
// index); get returns it immediately and peek reports it built.
func resolvedIndex[T any](v T) *lazyIndex[T] {
	l := &lazyIndex[T]{v: v}
	l.once.Do(func() { l.built.Store(true) })
	return l
}

func (l *lazyIndex[T]) get() T {
	l.once.Do(func() {
		l.v = l.build()
		l.built.Store(true)
	})
	return l.v
}

func (l *lazyIndex[T]) peek() (v T, ok bool) {
	if !l.built.Load() {
		return v, false
	}
	return l.v, true
}

// distPoolSet is the per-hop-bound distance pool map of one epoch's
// graph. It is a separate mutex-guarded object (not inline epochState
// fields) so a no-op mutation can share it between adjacent states
// without two locks guarding one map.
type distPoolSet struct {
	mu    sync.Mutex
	pools map[int]*pool
	g     *uncertain.Graph
}

// epochState is one epoch's immutable serving state; see the package
// comment above. Fields are set once by buildEpochState (or shared from
// the predecessor when the graph did not change) and never written after
// the state is published, with the one exception of the internally
// synchronized lazy/memo members (bfsIx, ptIx, overlays, dist).
type epochState struct {
	// epoch is the number of mutation batches applied to reach this
	// state, counted from the engine's base epoch (0 for a fresh graph,
	// the manifest epoch for a snapshot start).
	epoch uint64
	g     *uncertain.Graph
	pools map[string]*pool
	// overlays memoizes evidence-conditioned probability overlays of g
	// (kinds.go). Overlay probabilities come from g, so the memo belongs
	// to the epoch: a mutation drops it wholesale with the state.
	overlays *lruCache[*uncertain.Graph]
	dist     *distPoolSet
	// srcEpoch[v] is the epoch of the last mutation whose edges were
	// reachable from v — the conservative invalidation vector. It tags
	// result-cache and bounds-memo keys: a mutation bumps the tag of
	// every source that could observe it, so those sources' old entries
	// become unreachable (and age out of the LRU), while untouched
	// sources keep hitting their entries across the epoch bump.
	srcEpoch []uint64
	bfsIx    *lazyIndex[*core.BFSIndex]
	ptIx     *lazyIndex[*core.ProbTreeIndex]
}

// pool returns the replica pool that serves the named estimator.
func (st *epochState) pool(name string) *pool { return st.pools[servedBy(name)] }

// srcTag returns the invalidation tag for source s, tolerating
// out-of-range ids (admission cost estimates run before validation).
func (st *epochState) srcTag(s uncertain.NodeID) uint64 {
	if s < 0 || int(s) >= len(st.srcEpoch) {
		return 0
	}
	return st.srcEpoch[s]
}

// indexHolders builds the lazy offline-index cells for a graph, honoring
// preloaded indexes when given (epoch 0 under Config.Preloaded).
func indexHolders(cfg Config, g *uncertain.Graph) (*lazyIndex[*core.BFSIndex], *lazyIndex[*core.ProbTreeIndex]) {
	bfs := newLazyIndex(func() *core.BFSIndex {
		return core.NewBFSIndex(g, replicaSeed(cfg.Seed, sharedName), cfg.MaxK)
	})
	pt := newLazyIndex(func() *core.ProbTreeIndex {
		return core.NewProbTreeIndex(g, core.DefaultTreeWidth)
	})
	if pre := cfg.Preloaded; pre != nil {
		if pre.BFS != nil {
			bfs = resolvedIndex(pre.BFS)
		}
		if pre.ProbTree != nil {
			pt = resolvedIndex(pre.ProbTree)
		}
	}
	return bfs, pt
}

// buildEpochState assembles one epoch's serving state over g: fresh
// replica pools wired to the given index cells (one pool serves every
// configured pack name), a fresh overlay memo, and fresh distance pools.
// cfg must already be normalized (newEngine does that once).
func buildEpochState(cfg Config, g *uncertain.Graph, epoch uint64, srcEpoch []uint64, bfsIx *lazyIndex[*core.BFSIndex], ptIx *lazyIndex[*core.ProbTreeIndex]) (*epochState, error) {
	st := &epochState{
		epoch:    epoch,
		g:        g,
		pools:    make(map[string]*pool, len(cfg.Estimators)),
		overlays: newLRUCache[*uncertain.Graph](overlayCacheCap),
		dist:     &distPoolSet{pools: make(map[int]*pool), g: g},
		srcEpoch: srcEpoch,
		bfsIx:    bfsIx,
		ptIx:     ptIx,
	}
	var packPool *pool // the one pool every configured pack name shares
	for _, name := range cfg.Estimators {
		if _, dup := st.pools[name]; dup {
			return nil, fmt.Errorf("engine: estimator %q configured twice", name)
		}
		if packLike(name) && packPool != nil {
			st.pools[name] = packPool
			continue
		}
		factory, err := factoryFor(name, g, replicaSeed(cfg.Seed, name), cfg.Workers, bfsIx, ptIx)
		if err != nil {
			return nil, err
		}
		capacity := cfg.Workers
		if internallyParallel(name) {
			capacity = 1
		}
		st.pools[name] = newPool(capacity, factory)
		if packLike(name) {
			packPool = st.pools[name]
		}
	}
	return st, nil
}

// sharedSuccessor returns a successor state for a mutation with no net
// graph effect: the epoch advances (the batch is recorded and reported),
// but every piece of serving state — pools, indexes, memos, invalidation
// tags — is shared with the predecessor.
func (st *epochState) sharedSuccessor(epoch uint64) *epochState {
	return &epochState{
		epoch:    epoch,
		g:        st.g,
		pools:    st.pools,
		overlays: st.overlays,
		dist:     st.dist,
		srcEpoch: st.srcEpoch,
		bfsIx:    st.bfsIx,
		ptIx:     st.ptIx,
	}
}

package engine

import (
	"context"

	"relcomp/internal/core"
	"relcomp/internal/uncertain"
)

// Degree-sorted relabeling (Config.DegreeRelabel): the engine serves a
// cache-friendly rename of the caller's graph — hubs first, per
// uncertain.DegreePerm — while the query surface keeps speaking the
// caller's original ids. Requests are translated in (S, T, Targets,
// evidence edge ids) and responses are translated out (single-source
// vectors re-permuted, top-k node ids restored, Response.Request left as
// the caller wrote it), so turning the flag on changes performance, not
// meaning. What it does change is the sampled worlds: edge ids are
// positional in the sorted CSR, and the counter-based streams are keyed
// by edge id, so a relabeled engine draws a different (identically
// distributed) world ensemble than an unrelabeled one. Determinism is
// unaffected — the permutation is a pure function of the graph, so equal
// (graph, config) still means equal answers.
//
// Internal surfaces that hand out raw estimators or the served graph
// (Graph, Do, WriteSnapshot's index builds) speak the internal relabeled
// ids; Graph() documents this.

// relabelMap is the engine's id-translation state, present only when the
// served graph is a rename of the caller's.
type relabelMap struct {
	toNew     []uncertain.NodeID // external node id -> internal (perm[old] = new)
	toOld     []uncertain.NodeID // internal node id -> external
	edgeToNew []uncertain.EdgeID // external edge id -> internal
}

// newRelabelMap builds the translation state from the node permutation
// (perm[old] = new) and the edge id map Relabel returned.
func newRelabelMap(perm []uncertain.NodeID, edgeMap []uncertain.EdgeID) *relabelMap {
	return &relabelMap{toNew: perm, toOld: uncertain.InversePerm(perm), edgeToNew: edgeMap}
}

// nodeIn translates one caller-side node id to the internal rename. Ids
// outside the graph pass through untranslated so validate rejects them
// with the caller's own value in the message.
func (r *relabelMap) nodeIn(v uncertain.NodeID) uncertain.NodeID {
	if v < 0 || int(v) >= len(r.toNew) {
		return v
	}
	return r.toNew[v]
}

func (r *relabelMap) edgeIn(e uncertain.EdgeID) uncertain.EdgeID {
	if e < 0 || int(e) >= len(r.edgeToNew) {
		return e
	}
	return r.edgeToNew[e]
}

func (r *relabelMap) edgesIn(ids []uncertain.EdgeID) []uncertain.EdgeID {
	if len(ids) == 0 {
		return ids
	}
	out := make([]uncertain.EdgeID, len(ids))
	for i, e := range ids {
		out[i] = r.edgeIn(e)
	}
	return out
}

// requestIn returns q with every id the engine will act on renamed to the
// internal layout. The caller's Request value is not mutated.
func (r *relabelMap) requestIn(q Request) Request {
	q.S = r.nodeIn(q.S)
	q.T = r.nodeIn(q.T)
	if len(q.Targets) > 0 {
		ts := make([]uncertain.NodeID, len(q.Targets))
		for i, t := range q.Targets {
			ts[i] = r.nodeIn(t)
		}
		q.Targets = ts
	}
	if !q.Evidence.Empty() {
		q.Evidence.Include = r.edgesIn(q.Evidence.Include)
		q.Evidence.Exclude = r.edgesIn(q.Evidence.Exclude)
	}
	return q
}

// responseOut restores the caller's id surface on a computed response:
// Request reads back exactly as submitted, single-source vectors are
// re-permuted to external indexing, and top-k entries name external
// nodes. Scalar fields need no translation.
func (r *relabelMap) responseOut(res *Response, orig Request) {
	res.Request = orig
	if len(res.Reliabilities) > 0 {
		ext := make([]float64, len(res.Reliabilities))
		for old := range ext {
			ext[old] = res.Reliabilities[r.toNew[old]]
		}
		res.Reliabilities = ext
	}
	if len(res.TopTargets) > 0 {
		top := make([]core.Reliability, len(res.TopTargets))
		copy(top, res.TopTargets)
		for i := range top {
			if n := top[i].Node; n >= 0 && int(n) < len(r.toOld) {
				top[i].Node = r.toOld[n]
			}
		}
		res.TopTargets = top
	}
}

// execute is the query surface's entry into the execution spine (run,
// engine.go), shared by Estimate and EstimateBatch. Under DegreeRelabel
// every query is translated in and every result translated out,
// preserving positional alignment, so callers never see internal ids.
func (e *Engine) execute(ctx context.Context, queries []Query) []Result {
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-ctx compatibility defaulting at the API boundary itself
	}
	if e.relab == nil {
		return e.run(ctx, queries)
	}
	internal := make([]Query, len(queries))
	for i, q := range queries {
		internal[i] = e.relab.requestIn(q)
	}
	results := e.run(ctx, internal)
	for i := range results {
		e.relab.responseOut(&results[i], queries[i])
	}
	return results
}

// DegreeRelabeled reports whether the engine serves a degree-sorted
// rename of the constructor's graph (and therefore translates ids at the
// query surface).
func (e *Engine) DegreeRelabeled() bool { return e.relab != nil }

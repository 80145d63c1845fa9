package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"relcomp"
)

// server exposes reliability queries over a fixed uncertain graph as a
// small JSON HTTP API:
//
//	POST /v1/query                             the unified typed query endpoint:
//	     {"kind":"reliability|distance|topk|single_source|kterminal",
//	      "s":0, "t":5, "k":1000, "d":3, "topk":10, "targets":[3,4],
//	      "estimator":"RSS", "eps":0.01, "deadline_ms":50,
//	      "evidence":{"include":[edgeID,...],"exclude":[...]}}
//	     Per-kind response fields: "reliability" for the scalar kinds,
//	     "reliabilities" (one value per node) for single_source,
//	     "targets" ([{node, reliability}]) for topk.
//	POST /v1/batch                             {"queries":[<query objects as above>]} — kinds may be mixed;
//	     top-level "eps"/"deadline_ms" supply batch-wide defaults
//	GET  /v1/graph                             graph statistics
//	GET  /v1/estimators                        available estimator names + query kinds
//	GET  /v1/reliability?s=0&t=5&k=1000&estimator=RSS
//	     (omit estimator= to let the engine route adaptively; add
//	     eps=0.01 and/or deadline_ms=50 for anytime estimation — k
//	     becomes the sample cap, the default cap rises to the engine
//	     maximum, and the response reports samples_used and stop_reason)
//	GET  /v1/estimate                          alias of /v1/reliability
//	GET  /v1/bounds?s=0&t=5                    analytic bounds + best path
//	GET  /v1/topk?s=0&n=10&k=1000              alias of /v1/query with kind=topk
//	POST /v1/mutate                            commit a batch of edge mutations (see mutate.go)
//	GET  /v1/subscribe?s=0&t=5                 SSE continuous query: re-estimates per relevant mutation batch
//	GET  /v1/engine/stats                      engine counters (cache, routing, latency, anytime savings, kind mix, mutations)
//
// All query traffic — every kind — goes through the concurrent batch
// query engine (relcomp.Engine): per-estimator instance pools replace the
// old per-estimator mutexes, so queries to the same estimator no longer
// serialize behind one in-flight request; batch requests amortize
// per-source work; repeated queries hit the LRU result cache, which keys
// the query kind and evidence set. Each request's context is threaded
// into the engine, so a client disconnect cancels its queued and anytime
// in-flight work.
type server struct {
	graph  *relcomp.Graph
	engine *relcomp.Engine
	// ready gates /readyz: true once serving, flipped false when the
	// drain starts so load balancers stop routing before in-flight
	// requests finish.
	ready atomic.Bool

	// The dynamic-graph surface (mutate.go). sidecar, when non-nil, is
	// the snapshot's on-disk mutation log; mutMu orders commits and their
	// sidecar appends so on-disk epochs stay contiguous.
	mutMu   sync.Mutex
	sidecar *os.File
}

// maxBatchQueries bounds the work and result memory one POST /v1/batch
// request can demand; maxBatchBytes bounds the body size before
// decoding. Global admission control — queue, concurrency, and sample
// budgets across all concurrent requests — lives in the engine (the
// -max-inflight family of flags); these per-request limits only keep a
// single body from being unboundedly large.
const (
	maxBatchQueries = 4096
	maxBatchBytes   = 4 << 20
)

func newServerWith(g *relcomp.Graph, cfg relcomp.EngineConfig) *server {
	eng, err := relcomp.NewEngine(g, cfg)
	if err != nil {
		// The default estimator set is statically known; a failure here is
		// a programming error, not an input error.
		panic(err)
	}
	return newServer(g, eng)
}

func newServer(g *relcomp.Graph, eng *relcomp.Engine) *server {
	return &server{graph: g, engine: eng}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/graph", s.handleGraph)
	mux.HandleFunc("/v1/estimators", s.handleEstimators)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/reliability", s.handleReliability)
	mux.HandleFunc("/v1/estimate", s.handleReliability)
	mux.HandleFunc("/v1/bounds", s.handleBounds)
	mux.HandleFunc("/v1/topk", s.handleTopK)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/mutate", s.handleMutate)
	mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	mux.HandleFunc("/v1/engine/stats", s.handleEngineStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// handleHealthz is the liveness probe: the process is up and the handler
// goroutine runs. It stays 200 through drain — a draining server is alive.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 while the server accepts new
// query traffic, 503 before startup completes and from the moment a
// drain begins, so load balancers stop routing ahead of the listener
// closing.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// wireBuf is a pooled body buffer: requests are read into it and
// responses encoded into it, so a request leaves no body-sized garbage.
// enc encodes into the buffer and keeps no state between values; q and
// out hold /v1/query's request and answer, so neither escapes per request.
type wireBuf struct {
	bytes.Buffer
	enc *json.Encoder
	q   queryJSON
	out resultJSON
}

// maxPooledWire is the largest buffer returned to the pool; a large
// batch's buffer is left to the collector instead of pinned for good.
const maxPooledWire = 64 << 10

var wireBufs = sync.Pool{New: func() any {
	b := new(wireBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	return b
}}

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

func putWireBuf(b *wireBuf) {
	b.q, b.out = queryJSON{}, resultJSON{} // drop references into the cache
	if b.Cap() <= maxPooledWire {
		wireBufs.Put(b)
	}
}

// jsonContentType is every JSON response's Content-Type value, shared so
// that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// send writes v as the JSON body with the given status: json.Encoder's
// bytes, in one Write, as the Encoder itself would write them.
func (b *wireBuf) send(w http.ResponseWriter, status int, v interface{}) {
	b.Reset()
	b.enc.Encode(v)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(b.Bytes())
}

// decode reads r's body, at most limit bytes, into the buffer and decodes
// it into v. A body over the limit fails with *http.MaxBytesError.
func (b *wireBuf) decode(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	b.Reset()
	if _, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return err
	}
	return json.Unmarshal(b.Bytes(), v)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	b := getWireBuf()
	defer putWireBuf(b)
	b.send(w, status, v)
}

// decodeBody decodes r's body, at most limit bytes, into v.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	b := getWireBuf()
	defer putWireBuf(b)
	return b.decode(w, r, limit, v)
}

type apiError struct {
	Error string `json:"error"`
}

func badRequest(w http.ResponseWriter, format string, args ...interface{}) {
	writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeEngineError maps an engine result error to its HTTP status.
// Overload is backpressure, not a client mistake: a full admission queue
// is 429 (the client should back off and retry) and a queue-wait timeout
// is 503 (the server gave up on this one), both with Retry-After so
// well-behaved clients pace their retries. A contained estimator panic is
// a server fault (500). Everything else — validation, unknown estimator,
// cancellation — keeps the 400 the engine's error text explains.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, relcomp.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.Is(err, relcomp.ErrQueueTimeout):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case errors.Is(err, relcomp.ErrEstimatorPanic):
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	}
}

// intParam parses a required integer query parameter.
func intParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// intParamDefault parses an optional integer query parameter.
func intParamDefault(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// epsParam parses the optional anytime accuracy target: the relative 95%
// CI half-width at which sampling stops. 0 (the default) keeps the exact
// fixed budget.
func epsParam(r *http.Request) (float64, error) {
	raw := r.URL.Query().Get("eps")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter \"eps\": %v", err)
	}
	if v < 0 || v >= 1 {
		return 0, fmt.Errorf("parameter \"eps\": %v outside [0, 1)", v)
	}
	return v, nil
}

// deadlineParam parses the optional anytime latency target in
// milliseconds; 0 (the default) means unbounded.
func deadlineParam(r *http.Request) (time.Duration, error) {
	ms, err := intParamDefault(r, "deadline_ms", 0)
	if err != nil {
		return 0, err
	}
	if ms < 0 {
		return 0, fmt.Errorf("parameter \"deadline_ms\": %d must not be negative", ms)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// checkNode validates a node id at int width, before any int32 NodeID
// conversion could silently truncate huge values onto a valid node.
func (s *server) checkNode(name string, v int) error {
	if v < 0 || v >= s.graph.NumNodes() {
		return fmt.Errorf("parameter %q: node %d out of range [0,%d)", name, v, s.graph.NumNodes())
	}
	return nil
}

func (s *server) nodeParam(r *http.Request, name string) (relcomp.NodeID, error) {
	v, err := intParam(r, name)
	if err != nil {
		return 0, err
	}
	if err := s.checkNode(name, v); err != nil {
		return 0, err
	}
	return relcomp.NodeID(v), nil
}

// defaultK is the implicit sample budget when a request omits k, clamped
// to the engine's cap.
func (s *server) defaultK() int {
	if k := s.engine.MaxK(); k < 1000 {
		return k
	}
	return 1000
}

// samplesParam parses the sample budget. Anytime requests (eps or
// deadline_ms set) default the cap to the engine maximum — they pay only
// for the samples their stopping rule needs, so the cap should be
// generous — while fixed requests keep the conservative default.
func (s *server) samplesParam(r *http.Request, anytime bool) (int, error) {
	def := s.defaultK()
	if anytime {
		def = s.engine.MaxK()
	}
	k, err := intParamDefault(r, "k", def)
	if err != nil {
		return 0, err
	}
	if k <= 0 || k > s.engine.MaxK() {
		return 0, fmt.Errorf("parameter \"k\": %d outside (0,%d]", k, s.engine.MaxK())
	}
	return k, nil
}

func (s *server) handleGraph(w http.ResponseWriter, r *http.Request) {
	sum := s.graph.ProbSummary()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"name":         s.graph.Name(),
		"nodes":        s.graph.NumNodes(),
		"edges":        s.graph.NumEdges(),
		"probMean":     sum.Mean,
		"probStdDev":   sum.StdDev,
		"probQuartile": []float64{sum.Q1, sum.Q2, sum.Q3},
		"maxSamples":   s.engine.MaxK(),
	})
}

func (s *server) handleEstimators(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"estimators": s.engine.Names(),
		"adaptive":   true, // omit estimator= and the engine routes per query
		// Also accepted: the no-sampling analytic-bounds pseudo-estimator.
		"pseudoEstimators": []string{relcomp.EngineBoundsName},
		// The query kinds POST /v1/query and /v1/batch accept.
		"kinds": relcomp.QueryKinds(),
	})
}

// targetJSON is one entry of a top-k ranking on the wire.
type targetJSON struct {
	Node        relcomp.NodeID `json:"node"`
	Reliability float64        `json:"reliability"`
}

// resultJSON is the wire form of one engine response. Exactly one payload
// field is populated per kind: "reliability" for the scalar kinds
// (reliability, distance, kterminal), "reliabilities" for single_source,
// "targets" for topk. samples_used and stop_reason report the anytime
// termination: how many of the k-sample cap were actually drawn and which
// rule ("eps", "deadline", "max_k", "separated", ...) ended sampling;
// stop_reason is empty for fixed-budget queries.
type resultJSON struct {
	Kind          string       `json:"kind"`
	S             int          `json:"s"`
	T             int          `json:"t"`
	K             int          `json:"k"`
	D             int          `json:"d,omitempty"`
	TopK          int          `json:"topk,omitempty"`
	Targets       []targetJSON `json:"targets,omitempty"`
	Estimator     string       `json:"estimator"`
	Reliability   float64      `json:"reliability"`
	Reliabilities []float64    `json:"reliabilities,omitempty"`
	Cached        bool         `json:"cached"`
	Degraded      bool         `json:"degraded,omitempty"`
	// Epoch is the mutation epoch the answer was computed under; cached
	// answers for sources no mutation has touched may report an earlier
	// epoch than the engine's current one (the value is identical).
	Epoch       uint64  `json:"epoch"`
	TimeMs      float64 `json:"timeMs"`
	SamplesUsed int     `json:"samples_used"`
	StopReason  string  `json:"stop_reason,omitempty"`
	Error       string  `json:"error,omitempty"`
}

func toJSON(res relcomp.Response) resultJSON {
	used := res.Used
	if used == "" {
		// Engine-rejected queries never resolve an estimator; echo the
		// requested one so clients can still correlate failures.
		used = res.Request.Estimator
	}
	kind := res.Request.Kind
	if kind == "" {
		kind = relcomp.KindReliability
	}
	out := resultJSON{
		Kind: string(kind),
		S:    int(res.S), T: int(res.T), K: res.K,
		D: res.D, TopK: res.Request.TopK,
		Estimator:     used,
		Reliability:   res.Reliability,
		Reliabilities: res.Reliabilities,
		Cached:        res.Cached,
		Degraded:      res.Degraded,
		Epoch:         res.Epoch,
		TimeMs:        float64(res.Latency.Microseconds()) / 1000,
		SamplesUsed:   res.SamplesUsed,
		StopReason:    res.StopReason,
	}
	for _, tgt := range res.TopTargets {
		out.Targets = append(out.Targets, targetJSON{tgt.Node, tgt.R})
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	return out
}

// queryJSON is the wire form of one Request, shared by POST /v1/query and
// the items of POST /v1/batch. K, Eps, and DeadlineMs are pointers so an
// omitted field (defaulted) is distinguishable from an explicit zero.
type queryJSON struct {
	Kind       string        `json:"kind"`
	S          int           `json:"s"`
	T          int           `json:"t"`
	K          *int          `json:"k"`
	D          int           `json:"d"`
	TopK       int           `json:"topk"`
	Targets    []int         `json:"targets"`
	Estimator  string        `json:"estimator"`
	Eps        *float64      `json:"eps"`
	DeadlineMs *int          `json:"deadline_ms"`
	Evidence   *evidenceJSON `json:"evidence"`
}

type evidenceJSON struct {
	Include []int `json:"include"`
	Exclude []int `json:"exclude"`
}

// checkEdge validates an edge id at int width, like checkNode for nodes.
func (s *server) checkEdge(name string, v int) error {
	if v < 0 || v >= s.graph.NumEdges() {
		return fmt.Errorf("parameter %q: edge %d out of range [0,%d)", name, v, s.graph.NumEdges())
	}
	return nil
}

// needsTarget reports whether the kind reads the T field.
func needsTarget(kind relcomp.QueryKind) bool {
	return kind == "" || kind == relcomp.KindReliability || kind == relcomp.KindDistance
}

// buildRequest turns one wire query into an engine Request, validating
// everything that must be checked at int width before the int32
// conversions (node ids, target ids, evidence edge ids) and applying the
// batch-wide eps/deadline defaults. Shape errors the engine can diagnose
// itself (unknown kinds, negative d or k, missing targets) are left to
// engine validation, whose errors the handlers surface as 400s.
func (s *server) buildRequest(q queryJSON, defEps *float64, defDeadlineMs *int) (relcomp.Request, error) {
	var req relcomp.Request
	req.Kind = relcomp.QueryKind(q.Kind)
	req.Estimator = q.Estimator
	req.D = q.D
	req.TopK = q.TopK

	if err := s.checkNode("s", q.S); err != nil {
		return req, err
	}
	req.S = relcomp.NodeID(q.S)
	if needsTarget(req.Kind) {
		if err := s.checkNode("t", q.T); err != nil {
			return req, err
		}
		req.T = relcomp.NodeID(q.T)
	}
	for _, tgt := range q.Targets {
		if err := s.checkNode("targets", tgt); err != nil {
			return req, err
		}
		req.Targets = append(req.Targets, relcomp.NodeID(tgt))
	}
	if q.Evidence != nil {
		for _, e := range q.Evidence.Include {
			if err := s.checkEdge("evidence.include", e); err != nil {
				return req, err
			}
			req.Evidence.Include = append(req.Evidence.Include, relcomp.EdgeID(e))
		}
		for _, e := range q.Evidence.Exclude {
			if err := s.checkEdge("evidence.exclude", e); err != nil {
				return req, err
			}
			req.Evidence.Exclude = append(req.Evidence.Exclude, relcomp.EdgeID(e))
		}
	}

	eps := 0.0
	if defEps != nil {
		eps = *defEps
	}
	if q.Eps != nil {
		eps = *q.Eps
	}
	if eps < 0 || eps >= 1 {
		return req, fmt.Errorf("parameter \"eps\": %v outside [0, 1)", eps)
	}
	req.Eps = eps
	deadlineMs := 0
	if defDeadlineMs != nil {
		deadlineMs = *defDeadlineMs
	}
	if q.DeadlineMs != nil {
		deadlineMs = *q.DeadlineMs
	}
	if deadlineMs < 0 {
		return req, fmt.Errorf("parameter \"deadline_ms\": %d must not be negative", deadlineMs)
	}
	req.Deadline = time.Duration(deadlineMs) * time.Millisecond

	// Anytime queries default their cap to the engine maximum, like the
	// GET endpoints; an explicit k always wins (and an explicit k:0 is
	// rejected by the engine, not silently defaulted).
	k := s.defaultK()
	if eps > 0 || deadlineMs > 0 {
		k = s.engine.MaxK()
	}
	if q.K != nil {
		k = *q.K
	}
	req.K = k
	return req, nil
}

// handleQuery is the unified typed query endpoint: every kind, one POST
// body, per-kind response fields.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST required"})
		return
	}
	b := getWireBuf()
	defer putWireBuf(b)
	if err := b.decode(w, r, maxBatchBytes, &b.q); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{Error: fmt.Sprintf("query body exceeds %d bytes", maxBatchBytes)})
			return
		}
		badRequest(w, "invalid JSON body: %v", err)
		return
	}
	req, err := s.buildRequest(b.q, nil, nil)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	res := s.engine.Estimate(r.Context(), req)
	if res.Err != nil {
		writeEngineError(w, res.Err)
		return
	}
	b.out = toJSON(res)
	b.send(w, http.StatusOK, &b.out)
}

func (s *server) handleReliability(w http.ResponseWriter, r *http.Request) {
	src, err := s.nodeParam(r, "s")
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	dst, err := s.nodeParam(r, "t")
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	name := r.URL.Query().Get("estimator")
	eps, err := epsParam(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	deadline, err := deadlineParam(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	var k int
	if name == relcomp.EngineBoundsName {
		// The bounds pseudo-estimator draws no samples; accept any k so
		// the same query succeeds here and on /v1/batch.
		k, err = intParamDefault(r, "k", s.defaultK())
	} else {
		k, err = s.samplesParam(r, eps > 0 || deadline > 0)
	}
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	res := s.engine.Estimate(r.Context(), relcomp.Query{
		S: src, T: dst, K: k,
		Estimator: name,
		Eps:       eps,
		Deadline:  deadline,
	})
	if res.Err != nil {
		writeEngineError(w, res.Err)
		return
	}
	writeJSON(w, http.StatusOK, toJSON(res))
}

// batchRequest is the POST /v1/batch body: a list of query objects in the
// same wire shape as POST /v1/query — kinds may be mixed freely; the
// engine groups them by (kind, source, parameters) so same-source work
// still amortizes. The top-level Eps and DeadlineMs supply batch-wide
// anytime defaults that per-query fields override.
type batchRequest struct {
	Eps        *float64    `json:"eps"`
	DeadlineMs *int        `json:"deadline_ms"`
	Queries    []queryJSON `json:"queries"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST required"})
		return
	}
	var req batchRequest
	if err := decodeBody(w, r, maxBatchBytes, &req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{Error: fmt.Sprintf("batch body exceeds %d bytes; split into smaller batches", maxBatchBytes)})
			return
		}
		badRequest(w, "invalid JSON body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		badRequest(w, "empty batch")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		badRequest(w, "batch of %d queries exceeds limit %d", len(req.Queries), maxBatchQueries)
		return
	}
	// Range-check node and edge ids at int width before the int32
	// conversions — a converted-then-validated id would silently truncate
	// huge values onto a valid id instead of failing.
	out := make([]resultJSON, len(req.Queries))
	failed := 0
	queries := make([]relcomp.Request, 0, len(req.Queries))
	engineIdx := make([]int, 0, len(req.Queries)) // out position per engine query
	for i, q := range req.Queries {
		built, err := s.buildRequest(q, req.Eps, req.DeadlineMs)
		kind := string(built.Kind)
		if kind == "" {
			kind = string(relcomp.KindReliability)
		}
		out[i] = resultJSON{Kind: kind, S: q.S, T: q.T, K: built.K, D: q.D, TopK: q.TopK, Estimator: q.Estimator}
		if err != nil {
			out[i].Error = err.Error()
			failed++
			continue
		}
		queries = append(queries, built)
		engineIdx = append(engineIdx, i)
	}
	start := time.Now()
	results := s.engine.EstimateBatch(r.Context(), queries)
	elapsed := time.Since(start)

	for j, res := range results {
		out[engineIdx[j]] = toJSON(res)
		if res.Err != nil {
			failed++
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"results": out,
		"queries": len(out),
		"failed":  failed,
		"timeMs":  float64(elapsed.Microseconds()) / 1000,
	})
}

func (s *server) handleEngineStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

func (s *server) handleBounds(w http.ResponseWriter, r *http.Request) {
	src, err := s.nodeParam(r, "s")
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	dst, err := s.nodeParam(r, "t")
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	lo, hi, err := relcomp.ReliabilityBounds(s.graph, src, dst)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	path, err := relcomp.MostReliablePath(s.graph, src, dst)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"s": src, "t": dst,
		"lower":           lo,
		"upper":           hi,
		"bestPath":        path.Nodes,
		"bestPathProb":    path.Prob,
		"samplingAdvised": hi-lo > s.engine.Stats().BoundsCutoff, // the router's own rule
	})
}

// handleTopK is the GET alias of POST /v1/query with kind=topk: the same
// engine Request, the same response shape, query parameters instead of a
// body (s, n, k, and optionally estimator/eps/deadline_ms).
func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	src, err := s.nodeParam(r, "s")
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	n, err := intParamDefault(r, "n", 10)
	if err != nil || n <= 0 {
		badRequest(w, "parameter \"n\" must be a positive integer")
		return
	}
	eps, err := epsParam(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	deadline, err := deadlineParam(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	k, err := s.samplesParam(r, eps > 0 || deadline > 0)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	res := s.engine.Estimate(r.Context(), relcomp.Request{
		Kind: relcomp.KindTopK, S: src, TopK: n, K: k,
		Estimator: r.URL.Query().Get("estimator"),
		Eps:       eps, Deadline: deadline,
	})
	if res.Err != nil {
		writeEngineError(w, res.Err)
		return
	}
	writeJSON(w, http.StatusOK, toJSON(res))
}

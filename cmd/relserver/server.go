package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"relcomp"
)

// server exposes reliability queries over an uncertain graph as a small
// JSON HTTP API:
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
//	     POST /v1/query with kind=reliability, its fields as query
//	     parameters (omit estimator= to let the engine route adaptively;
//	     add eps=0.01 and/or deadline_ms=50 for anytime estimation — k
//	     becomes the sample cap, the default cap rises to the engine
//	     maximum, and the response reports samples_used and stop_reason)
//	GET  /v1/topk?s=0&n=10&k=1000              POST /v1/query with kind=topk; n is topk (default 10)
//	GET  /v1/bounds?s=0&t=5                    analytic bounds + best path
//	POST /v1/mutate                            commit a batch of edge mutations (see mutate.go)
//	GET  /v1/subscribe?s=0&t=5                 SSE continuous query: re-estimates per relevant mutation batch
//	GET  /v1/engine/stats                      engine counters (cache, routing, latency, anytime savings, kind mix, mutations)
//
// The GET query endpoints decode their query string into the body POST
// /v1/query decodes (queryParams), and from there share its request
// builder, validation and answer.
//
// Every endpoint reads the engine's current graph, so ids and counts
// follow committed mutations. relserver never enables
// DegreeRelabel, so the engine's ids are the caller's.
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
	return newServer(eng)
}

func newServer(eng *relcomp.Engine) *server {
	return &server{engine: eng}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/graph", s.handleGraph)
	mux.HandleFunc("/v1/estimators", s.handleEstimators)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/reliability", s.handleGet(relcomp.KindReliability))
	mux.HandleFunc("/v1/bounds", s.handleBounds)
	mux.HandleFunc("/v1/topk", s.handleGet(relcomp.KindTopK))
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

// optionalParam parses the query parameter name into a new *dst, leaving
// *dst as it is when the parameter is absent.
func optionalParam[T any](vals url.Values, name string, parse func(string) (T, error), dst **T) error {
	raw := vals.Get(name)
	if raw == "" {
		return nil
	}
	v, err := parse(raw)
	if err != nil {
		return fmt.Errorf("parameter %q: %v", name, err)
	}
	*dst = &v
	return nil
}

// requiredInt parses a required integer query parameter.
func requiredInt(vals url.Values, name string) (int, error) {
	var v *int
	if err := optionalParam(vals, name, strconv.Atoi, &v); err != nil {
		return 0, err
	}
	if v == nil {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	return *v, nil
}

func parseFloat(raw string) (float64, error) { return strconv.ParseFloat(raw, 64) }

// queryParams decodes a GET query endpoint's query string into q, the
// wire query POST /v1/query decodes from its body, for the given kind.
// s is required, and so is t when the kind reads it. k, estimator, eps
// and deadline_ms are optional, as in the body; topk reads its ranking
// size from n (default 10). Range checks are buildRequest's and the
// engine's, as for a body.
func queryParams(vals url.Values, kind relcomp.QueryKind, q *queryJSON) error {
	*q = queryJSON{Kind: string(kind), Estimator: vals.Get("estimator")}
	var err error
	if q.S, err = requiredInt(vals, "s"); err != nil {
		return err
	}
	if needsTarget(kind) {
		if q.T, err = requiredInt(vals, "t"); err != nil {
			return err
		}
	}
	if kind == relcomp.KindTopK {
		n := 10
		topk := &n
		if err := optionalParam(vals, "n", strconv.Atoi, &topk); err != nil {
			return err
		}
		q.TopK = *topk
	}
	if err := optionalParam(vals, "k", strconv.Atoi, &q.K); err != nil {
		return err
	}
	if err := optionalParam(vals, "eps", parseFloat, &q.Eps); err != nil {
		return err
	}
	return optionalParam(vals, "deadline_ms", strconv.Atoi, &q.DeadlineMs)
}

// checkNode validates a node id of g at int width, before any int32
// NodeID conversion could silently truncate huge values onto a valid
// node.
func checkNode(g *relcomp.Graph, name string, v int) error {
	if v < 0 || v >= g.NumNodes() {
		return fmt.Errorf("parameter %q: node %d out of range [0,%d)", name, v, g.NumNodes())
	}
	return nil
}

// checkEdge validates an edge id of g at int width, like checkNode for
// nodes.
func checkEdge(g *relcomp.Graph, name string, v int) error {
	if v < 0 || v >= g.NumEdges() {
		return fmt.Errorf("parameter %q: edge %d out of range [0,%d)", name, v, g.NumEdges())
	}
	return nil
}

// defaultK is the implicit sample budget when a request omits k, clamped
// to the engine's cap.
func (s *server) defaultK() int {
	if k := s.engine.MaxK(); k < 1000 {
		return k
	}
	return 1000
}

func (s *server) handleGraph(w http.ResponseWriter, r *http.Request) {
	g := s.engine.Graph()
	sum := g.ProbSummary()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"name":         g.Name(),
		"nodes":        g.NumNodes(),
		"edges":        g.NumEdges(),
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
	g := s.engine.Graph()
	var req relcomp.Request
	req.Kind = relcomp.QueryKind(q.Kind)
	req.Estimator = q.Estimator
	req.D = q.D
	req.TopK = q.TopK

	if err := checkNode(g, "s", q.S); err != nil {
		return req, err
	}
	req.S = relcomp.NodeID(q.S)
	if needsTarget(req.Kind) {
		if err := checkNode(g, "t", q.T); err != nil {
			return req, err
		}
		req.T = relcomp.NodeID(q.T)
	}
	for _, tgt := range q.Targets {
		if err := checkNode(g, "targets", tgt); err != nil {
			return req, err
		}
		req.Targets = append(req.Targets, relcomp.NodeID(tgt))
	}
	if q.Evidence != nil {
		for _, e := range q.Evidence.Include {
			if err := checkEdge(g, "evidence.include", e); err != nil {
				return req, err
			}
			req.Evidence.Include = append(req.Evidence.Include, relcomp.EdgeID(e))
		}
		for _, e := range q.Evidence.Exclude {
			if err := checkEdge(g, "evidence.exclude", e); err != nil {
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
	if !(eps >= 0 && eps < 1) { // NaN included
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

	// Anytime queries default their cap to the engine maximum: they pay
	// only for the samples their stopping rule needs. An explicit k always
	// wins (and an explicit k:0 is rejected by the engine, not silently
	// defaulted).
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
	s.answer(w, r, b)
}

// handleGet serves a GET query endpoint of the given kind: the query
// string decodes into the body POST /v1/query would carry, which then
// takes the same path.
func (s *server) handleGet(kind relcomp.QueryKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b := getWireBuf()
		defer putWireBuf(b)
		if err := queryParams(r.URL.Query(), kind, &b.q); err != nil {
			badRequest(w, "%v", err)
			return
		}
		s.answer(w, r, b)
	}
}

// answer builds the engine Request from b.q, estimates it, and sends the
// answer encoded through b.
func (s *server) answer(w http.ResponseWriter, r *http.Request, b *wireBuf) {
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
	g := s.engine.Graph()
	var ends [2]relcomp.NodeID
	for i, name := range []string{"s", "t"} {
		v, err := requiredInt(r.URL.Query(), name)
		if err == nil {
			err = checkNode(g, name, v)
		}
		if err != nil {
			badRequest(w, "%v", err)
			return
		}
		ends[i] = relcomp.NodeID(v)
	}
	src, dst := ends[0], ends[1]
	lo, hi, err := relcomp.ReliabilityBounds(g, src, dst)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	path, err := relcomp.MostReliablePath(g, src, dst)
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

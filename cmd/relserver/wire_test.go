package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relcomp"
)

// TestWireBytesMatchEncoder: the pooled encoder writes exactly the bytes
// and Content-Type a fresh json.Encoder on the ResponseWriter wrote, for
// every Response shape and the other bodies the endpoints send.
func TestWireBytesMatchEncoder(t *testing.T) {
	base := relcomp.Response{Request: relcomp.Request{S: 3, T: 9, K: 200}, Used: "PackMC", Reliability: 0.8125,
		SamplesUsed: 200, Latency: 1234567 * time.Nanosecond, Epoch: 2}
	shapes := map[string]relcomp.Response{"reliability": base}
	add := func(name string, edit func(*relcomp.Response)) {
		r := base
		edit(&r)
		shapes[name] = r
	}
	add("cached", func(r *relcomp.Response) { r.Cached, r.Latency = true, 0 })
	add("anytime", func(r *relcomp.Response) { r.Eps, r.SamplesUsed, r.StopReason = 0.01, 512, "eps" })
	add("degraded", func(r *relcomp.Response) {
		r.Degraded, r.Used, r.StopReason = true, relcomp.EngineBoundsName, "degraded"
	})
	add("distance", func(r *relcomp.Response) { r.Kind, r.D, r.Used = relcomp.KindDistance, 3, "MC(d<=3)" })
	add("topk", func(r *relcomp.Response) {
		r.Kind, r.TopK = relcomp.KindTopK, 2
		r.TopTargets = []relcomp.Reliability{{Node: 4, R: 0.5}, {Node: 7, R: 1.0 / 3}}
	})
	add("single_source", func(r *relcomp.Response) {
		r.Kind, r.Reliabilities = relcomp.KindSingleSource, []float64{1, 0.25, 0, 1e-9}
	})
	add("kterminal", func(r *relcomp.Response) { r.Kind, r.Targets = relcomp.KindKTerminal, []relcomp.NodeID{4, 5} })
	add("error", func(r *relcomp.Response) {
		r.Used, r.Request.Estimator, r.Err = "", "RSS<&>", errors.New("bad <query> & more")
	})

	check := func(name string, v any, write func(http.ResponseWriter)) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		write(rec)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: wire bytes\n%s\nwant\n%s", name, got, want.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Code != http.StatusTeapot {
			t.Errorf("%s: status %d, Content-Type %q", name, rec.Code, ct)
		}
	}
	for name, res := range shapes {
		out := toJSON(res)
		check(name, out, func(w http.ResponseWriter) { writeJSON(w, http.StatusTeapot, out) })
		check(name+" (pooled answer)", out, func(w http.ResponseWriter) {
			b := getWireBuf()
			defer putWireBuf(b)
			b.out = toJSON(res)
			b.send(w, http.StatusTeapot, &b.out)
		})
	}
	batch := map[string]interface{}{"results": []resultJSON{toJSON(base), toJSON(shapes["error"])}, "queries": 2, "failed": 1, "timeMs": 0.5}
	check("batch", batch, func(w http.ResponseWriter) { writeJSON(w, http.StatusTeapot, batch) })
	check("apiError", apiError{Error: "x"}, func(w http.ResponseWriter) { writeJSON(w, http.StatusTeapot, apiError{Error: "x"}) })
}

// TestQueryEndpointBytes: a cache-hit POST /v1/query sends what encoding
// the engine's own answer gives.
func TestQueryEndpointBytes(t *testing.T) {
	s := testServer(t)
	h := s.handler()
	body := `{"s":0,"t":5,"k":200,"estimator":"MC"}`
	post(t, h, "/v1/query", body) // fill the cache
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader([]byte(body))))
	res := s.engine.Estimate(context.Background(), relcomp.Request{S: 0, T: 5, K: 200, Estimator: "MC"})
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(toJSON(res))
	if !res.Cached || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Errorf("cached %v; wire\n%s\nwant\n%s", res.Cached, rec.Body.Bytes(), want.Bytes())
	}
}

// TestBodyRejectsTrailingData: /v1/query, /v1/batch and /v1/mutate
// parse the whole body as one JSON value, so data after it is a 400 and
// the same body without it is accepted (or, for /v1/mutate on a server
// without mutations enabled, rejected for another reason).
func TestBodyRejectsTrailingData(t *testing.T) {
	h := testServer(t).handler()
	for _, c := range []struct{ url, body string }{
		{"/v1/query", `{"s":0,"t":5,"k":200,"estimator":"MC"}`},
		{"/v1/batch", `{"queries":[{"s":0,"t":5,"k":200,"estimator":"MC"}]}`},
		{"/v1/mutate", `{"mutations":[{"op":"update","from":0,"to":1,"p":0.5}]}`},
	} {
		code, out := post(t, h, c.url, c.body+` {"s":1}`)
		if code != http.StatusBadRequest {
			t.Errorf("%s with trailing data: status %d, want 400", c.url, code)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, "invalid JSON body") {
			t.Errorf("%s with trailing data: error %q", c.url, msg)
		}
		if code, out := post(t, h, c.url, c.body); code == http.StatusBadRequest {
			if msg, _ := out["error"].(string); strings.Contains(msg, "invalid JSON body") {
				t.Errorf("%s without trailing data: %q", c.url, msg)
			}
		}
	}
}

// reusedWriter is a ResponseWriter that keeps no bytes and allocates
// nothing per request, so AllocsPerRun counts the handler's allocations.
type reusedWriter struct {
	h      http.Header
	status int
}

func (w *reusedWriter) Header() http.Header         { return w.h }
func (w *reusedWriter) WriteHeader(code int)        { w.status = code }
func (w *reusedWriter) Write(p []byte) (int, error) { return len(p), nil }

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// queryHitAllocs is the allocation count of one cache-hit POST /v1/query
// through handleQuery, the engine's share included: JSON decoding of the
// body, the byte limit's reader, and the engine's request bookkeeping.
// Reading into a fresh decoder and encoding through a fresh encoder cost
// 23.
const queryHitAllocs = 18

// TestQueryHandlerAllocs pins the allocations of one cache-hit POST
// /v1/query.
func TestQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	s := testServer(t)
	body := []byte(`{"s":0,"t":5,"k":200,"estimator":"MC"}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/query", rd)
	w := &reusedWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		req.Body = readCloser{rd}
		w.status = 0
		s.handleQuery(w, req)
	}
	serve() // fill the cache
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if allocs := testing.AllocsPerRun(200, serve); allocs > queryHitAllocs {
		t.Errorf("%.1f allocations per cache-hit query, want at most %d", allocs, queryHitAllocs)
	}
}

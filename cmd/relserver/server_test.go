package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"relcomp"
)

func testServer(t *testing.T) *server {
	t.Helper()
	g, err := relcomp.Dataset("lastFM", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	return newServerWith(g, relcomp.EngineConfig{Seed: 42, MaxK: 500, CacheSize: 4096})
}

func get(t *testing.T, h http.Handler, url string) (int, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", url, rec.Body.String(), err)
	}
	return rec.Code, body
}

func post(t *testing.T, h http.Handler, url, body string) (int, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", url, rec.Body.String(), err)
	}
	return rec.Code, out
}

func TestGraphEndpoint(t *testing.T) {
	h := testServer(t).handler()
	code, body := get(t, h, "/v1/graph")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["nodes"].(float64) <= 0 || body["edges"].(float64) <= 0 {
		t.Errorf("graph stats %v", body)
	}
}

func TestEstimatorsEndpoint(t *testing.T) {
	h := testServer(t).handler()
	code, body := get(t, h, "/v1/estimators")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	names := body["estimators"].([]interface{})
	if len(names) < 7 { // six from the paper + ParallelMC
		t.Errorf("only %d estimators: %v", len(names), names)
	}
}

func TestReliabilityEndpoint(t *testing.T) {
	h := testServer(t).handler()
	for _, est := range []string{"MC", "RSS", "ProbTree", "LP+", "ParallelMC"} {
		code, body := get(t, h, "/v1/reliability?s=0&t=5&k=200&estimator="+url.QueryEscape(est))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d body %v", est, code, body)
		}
		r := body["reliability"].(float64)
		if r < 0 || r > 1 {
			t.Errorf("%s: reliability %v", est, r)
		}
		if body["estimator"].(string) != est {
			t.Errorf("wrong estimator echoed: %v", body["estimator"])
		}
	}
}

// TestReliabilityAdaptive: omitting estimator= routes the query through
// the engine's adaptive router, which reports what answered it.
func TestReliabilityAdaptive(t *testing.T) {
	h := testServer(t).handler()
	code, body := get(t, h, "/v1/reliability?s=0&t=5&k=200")
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, body)
	}
	if body["estimator"].(string) == "" {
		t.Error("adaptive query reports no estimator")
	}
	r := body["reliability"].(float64)
	if r < 0 || r > 1 {
		t.Errorf("reliability %v", r)
	}
}

// TestReliabilityCached: the second identical query must be a cache hit
// with the identical value.
func TestReliabilityCached(t *testing.T) {
	h := testServer(t).handler()
	url := "/v1/reliability?s=0&t=5&k=200&estimator=MC"
	_, first := get(t, h, url)
	_, second := get(t, h, url)
	if !second["cached"].(bool) {
		t.Fatal("second query not cached")
	}
	if first["reliability"] != second["reliability"] {
		t.Errorf("cache changed the answer: %v vs %v", first["reliability"], second["reliability"])
	}
}

func TestReliabilityValidation(t *testing.T) {
	h := testServer(t).handler()
	cases := []string{
		"/v1/reliability",                         // missing params
		"/v1/reliability?s=0&t=999999",            // t out of range
		"/v1/reliability?s=-1&t=3",                // s negative
		"/v1/reliability?s=0&t=3&k=0",             // k zero
		"/v1/reliability?s=0&t=3&k=100000",        // k above index width
		"/v1/reliability?s=0&t=3&estimator=bogus", // unknown estimator
		"/v1/reliability?s=abc&t=3",               // non-numeric
	}
	for _, url := range cases {
		code, body := get(t, h, url)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d body %v", url, code, body)
		}
		if body["error"] == "" {
			t.Errorf("%s: no error message", url)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	h := testServer(t).handler()
	body := `{"queries":[
		{"s":0,"t":5,"k":200,"estimator":"MC"},
		{"s":0,"t":6,"k":200,"estimator":"BFSSharing"},
		{"s":1,"t":6,"k":200,"estimator":"BFSSharing"},
		{"s":2,"t":7,"k":200}
	]}`
	code, out := post(t, h, "/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, out)
	}
	results := out["results"].([]interface{})
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	if out["failed"].(float64) != 0 {
		t.Fatalf("failures: %v", out)
	}
	for i, raw := range results {
		res := raw.(map[string]interface{})
		r := res["reliability"].(float64)
		if r < 0 || r > 1 {
			t.Errorf("result %d: reliability %v", i, r)
		}
		if res["estimator"].(string) == "" {
			t.Errorf("result %d: no estimator", i)
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	h := testServer(t).handler()
	// Second query: out-of-range target. Third: explicit k:0 must be
	// rejected like the single-query endpoint, not silently defaulted —
	// only an omitted k takes the default.
	code, out := post(t, h, "/v1/batch",
		`{"queries":[{"s":0,"t":5,"k":200,"estimator":"MC"},{"s":0,"t":999999,"k":200},{"s":0,"t":5,"k":0}]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, out)
	}
	if out["failed"].(float64) != 2 {
		t.Fatalf("failed = %v, want 2", out["failed"])
	}
	results := out["results"].([]interface{})
	for _, i := range []int{1, 2} {
		if results[i].(map[string]interface{})["error"].(string) == "" {
			t.Errorf("failed query %d has no error message", i)
		}
	}
}

// TestBatchHugeNodeID: ids beyond int32 must be rejected, not silently
// truncated onto a valid node by the NodeID conversion.
func TestBatchHugeNodeID(t *testing.T) {
	h := testServer(t).handler()
	code, out := post(t, h, "/v1/batch",
		`{"queries":[{"s":4294967296,"t":5,"k":200},{"s":0,"t":-4294967291,"k":200}]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, out)
	}
	if out["failed"].(float64) != 2 {
		t.Fatalf("failed = %v, want 2: %v", out["failed"], out)
	}
	for i, raw := range out["results"].([]interface{}) {
		if raw.(map[string]interface{})["error"].(string) == "" {
			t.Errorf("query %d: huge id accepted", i)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	h := testServer(t).handler()
	if code, _ := post(t, h, "/v1/batch", `{"queries":[]}`); code != http.StatusBadRequest {
		t.Error("empty batch accepted")
	}
	if code, _ := post(t, h, "/v1/batch", `{bogus`); code != http.StatusBadRequest {
		t.Error("malformed JSON accepted")
	}
	code, _ := get(t, h, "/v1/batch")
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch: status %d", code)
	}
}

func TestEngineStatsEndpoint(t *testing.T) {
	h := testServer(t).handler()
	get(t, h, "/v1/reliability?s=0&t=5&k=200&estimator=MC")
	get(t, h, "/v1/reliability?s=0&t=5&k=200&estimator=MC") // cache hit
	code, body := get(t, h, "/v1/engine/stats")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["queries"].(float64) < 2 {
		t.Errorf("queries %v", body["queries"])
	}
	if body["cacheHits"].(float64) < 1 {
		t.Errorf("cacheHits %v", body["cacheHits"])
	}
	ests := body["estimators"].(map[string]interface{})
	if _, ok := ests["MC"]; !ok {
		t.Errorf("no MC stats: %v", ests)
	}
}

func TestBoundsEndpoint(t *testing.T) {
	h := testServer(t).handler()
	code, body := get(t, h, "/v1/bounds?s=0&t=5")
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, body)
	}
	lo := body["lower"].(float64)
	hi := body["upper"].(float64)
	if lo < 0 || hi > 1 || lo > hi {
		t.Errorf("bounds [%v, %v]", lo, hi)
	}
}

// TestBoundsEndpointAdvisesAsRouterDecides: samplingAdvised is false
// exactly for the pairs a routed /v1/query answers from the bounds alone,
// at the default cutoff and at a configured one.
func TestBoundsEndpointAdvisesAsRouterDecides(t *testing.T) {
	g, err := relcomp.Dataset("lastFM", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, cutoff := range []float64{0, 0.3} {
		h := newServerWith(g, relcomp.EngineConfig{Seed: 42, MaxK: 500, CacheSize: 4096, BoundsCutoff: cutoff}).handler()
		_, stats := get(t, h, "/v1/engine/stats")
		resolved := stats["boundsCutoff"].(float64)
		if cutoff > 0 && resolved != cutoff || resolved <= 0 {
			t.Fatalf("configured cutoff %v, stats report %v", cutoff, resolved)
		}
		var advised, pinched, between int
		for s := 0; s < 6; s++ {
			for d := 0; d < g.NumNodes(); d++ {
				if s == d {
					continue
				}
				_, b := get(t, h, fmt.Sprintf("/v1/bounds?s=%d&t=%d", s, d))
				_, q := post(t, h, "/v1/query", fmt.Sprintf(`{"s":%d,"t":%d,"k":100}`, s, d))
				sample := b["samplingAdvised"].(bool)
				if byBounds := q["estimator"] == relcomp.EngineBoundsName; byBounds == sample {
					t.Fatalf("cutoff %v, (%d,%d): bounds [%v, %v] samplingAdvised %v, routed query answered by %v",
						resolved, s, d, b["lower"], b["upper"], sample, q["estimator"])
				}
				if sample {
					advised++
				} else {
					pinched++
				}
				// Widths the endpoint's former fixed 0.05 threshold put on the wrong side.
				if w := b["upper"].(float64) - b["lower"].(float64); (w > 0.05) != (w > resolved) {
					between++
				}
			}
		}
		if advised == 0 || pinched == 0 || cutoff > 0 && between == 0 {
			t.Errorf("cutoff %v: %d pairs advised to sample, %d not, %d between the old threshold and the cutoff", resolved, advised, pinched, between)
		}
		// Every routed pair was new to the memo: one bounds computation each.
		_, stats = get(t, h, "/v1/engine/stats")
		if n := stats["boundsComputed"].(float64); n != float64(advised+pinched) || stats["boundsSeconds"].(float64) <= 0 {
			t.Errorf("cutoff %v: %v bounds computations in %v s for %d routed pairs", resolved, n, stats["boundsSeconds"], advised+pinched)
		}
	}
	_, stats := get(t, testServer(t).handler(), "/v1/engine/stats")
	if stats["boundsComputed"].(float64) != 0 || stats["boundsSeconds"].(float64) != 0 {
		t.Errorf("idle server reports %v bounds computations in %v s", stats["boundsComputed"], stats["boundsSeconds"])
	}
}

func TestTopKEndpoint(t *testing.T) {
	h := testServer(t).handler()
	code, body := get(t, h, "/v1/topk?s=0&n=5&k=200")
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, body)
	}
	targets := body["targets"].([]interface{})
	if len(targets) > 5 {
		t.Errorf("%d targets", len(targets))
	}
	prev := 2.0
	for _, raw := range targets {
		e := raw.(map[string]interface{})
		r := e["reliability"].(float64)
		if r > prev {
			t.Error("targets not sorted")
		}
		prev = r
	}
	if code, _ := get(t, h, "/v1/topk?s=0&n=0"); code != http.StatusBadRequest {
		t.Error("n=0 accepted")
	}
}

// TestConcurrentMatchesSequential is the rewired server's
// sequential-equivalence check (run with -race): concurrent mixed
// single/batch traffic against one server must return exactly the values
// a second, identically configured server returns sequentially. Holds
// because engine results are deterministic per query given the seed.
func TestConcurrentMatchesSequential(t *testing.T) {
	sequential := testServer(t).handler()
	concurrent := testServer(t).handler()

	type stq struct{ s, t, k int }
	var queries []stq
	for s := 0; s < 4; s++ {
		for d := 4; d < 8; d++ {
			queries = append(queries, stq{s, d, 100 + 50*(s%2)})
		}
	}
	ests := []string{"MC", "BFSSharing", "RSS", "LP+"}

	relURL := func(q stq, est string) string {
		return fmt.Sprintf("/v1/reliability?s=%d&t=%d&k=%d&estimator=%s",
			q.s, q.t, q.k, url.QueryEscape(est))
	}
	batchBody := func(est string) string {
		parts := make([]string, len(queries))
		for i, q := range queries {
			parts[i] = fmt.Sprintf(`{"s":%d,"t":%d,"k":%d,"estimator":%q}`, q.s, q.t, q.k, est)
		}
		return `{"queries":[` + strings.Join(parts, ",") + `]}`
	}

	// Sequential ground truth per (query, estimator).
	want := make(map[string]float64)
	for _, est := range ests {
		for _, q := range queries {
			code, body := get(t, sequential, relURL(q, est))
			if code != http.StatusOK {
				t.Fatalf("%v/%s: status %d", q, est, code)
			}
			want[relURL(q, est)] = body["reliability"].(float64)
		}
	}

	var wg sync.WaitGroup
	fail := t.Errorf // goroutine-safe per the testing package
	for round := 0; round < 2; round++ {
		for _, est := range ests {
			// Single-query clients.
			for _, q := range queries {
				wg.Add(1)
				go func(q stq, est string) {
					defer wg.Done()
					req := httptest.NewRequest(http.MethodGet, relURL(q, est), nil)
					rec := httptest.NewRecorder()
					concurrent.ServeHTTP(rec, req)
					var body map[string]interface{}
					if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK {
						fail("%s: status %d err %v", relURL(q, est), rec.Code, err)
						return
					}
					if got := body["reliability"].(float64); got != want[relURL(q, est)] {
						fail("%s: concurrent %v != sequential %v", relURL(q, est), got, want[relURL(q, est)])
					}
				}(q, est)
			}
			// Batch clients.
			wg.Add(1)
			go func(est string) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(batchBody(est)))
				rec := httptest.NewRecorder()
				concurrent.ServeHTTP(rec, req)
				var out map[string]interface{}
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
					fail("batch %s: status %d err %v", est, rec.Code, err)
					return
				}
				for i, raw := range out["results"].([]interface{}) {
					res := raw.(map[string]interface{})
					if got := res["reliability"].(float64); got != want[relURL(queries[i], est)] {
						fail("batch %s query %d: %v != %v", est, i, got, want[relURL(queries[i], est)])
					}
				}
			}(est)
		}
		// Stats and topk readers race along.
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/v1/engine/stats", nil)
			concurrent.ServeHTTP(httptest.NewRecorder(), req)
			req = httptest.NewRequest(http.MethodGet, "/v1/topk?s=0&n=3&k=100", nil)
			rec := httptest.NewRecorder()
			concurrent.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				fail("topk: status %d", rec.Code)
			}
		}()
	}
	wg.Wait()
}

// TestQueryEndpointEveryKind: POST /v1/query accepts every kind and
// returns the kind's own payload field.
func TestQueryEndpointEveryKind(t *testing.T) {
	h := testServer(t).handler()
	cases := []struct {
		body    string
		payload string // response field the kind must populate
	}{
		{`{"kind":"reliability","s":0,"t":5,"k":200,"estimator":"MC"}`, "reliability"},
		{`{"s":0,"t":5,"k":200}`, "reliability"}, // kind defaults to reliability
		{`{"kind":"distance","s":0,"t":5,"d":3,"k":200}`, "reliability"},
		{`{"kind":"topk","s":0,"topk":5,"k":200}`, "targets"},
		{`{"kind":"single_source","s":0,"k":200}`, "reliabilities"},
		{`{"kind":"kterminal","s":0,"targets":[3,4],"k":200}`, "reliability"},
		{`{"kind":"reliability","s":0,"t":5,"k":200,"estimator":"MC","evidence":{"exclude":[0]}}`, "reliability"},
	}
	for _, c := range cases {
		code, body := post(t, h, "/v1/query", c.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d body %v", c.body, code, body)
		}
		if _, ok := body[c.payload]; !ok {
			t.Errorf("%s: response missing %q: %v", c.body, c.payload, body)
		}
		if body["kind"].(string) == "" {
			t.Errorf("%s: response missing kind", c.body)
		}
	}
	// single_source returns one value per node, source = 1.
	_, body := post(t, h, "/v1/query", `{"kind":"single_source","s":0,"k":100}`)
	rs := body["reliabilities"].([]interface{})
	if len(rs) == 0 || rs[0].(float64) != 1 {
		t.Errorf("single_source payload wrong: %d values, R(s,s)=%v", len(rs), rs[0])
	}
}

// TestQueryEndpointRejects: unknown kinds and malformed shape parameters
// are 400s, as are GETs.
func TestQueryEndpointRejects(t *testing.T) {
	h := testServer(t).handler()
	bad := []string{
		`{"kind":"bogus","s":0,"t":5,"k":100}`,                                      // unknown kind
		`{"kind":"distance","s":0,"t":5,"k":100}`,                                   // d missing
		`{"kind":"distance","s":0,"t":5,"d":-3,"k":100}`,                            // negative d
		`{"kind":"reliability","s":0,"t":5,"k":-5}`,                                 // negative k
		`{"kind":"topk","s":0,"k":100}`,                                             // topk missing
		`{"kind":"topk","s":0,"topk":-2,"k":100}`,                                   // negative topk
		`{"kind":"kterminal","s":0,"k":100}`,                                        // no targets
		`{"kind":"kterminal","s":0,"targets":[99999],"k":5}`,                        // target range
		`{"s":0,"t":5,"k":100,"evidence":{"include":[999999]}}`,                     // evidence range
		`{"s":0,"t":5,"k":100,"estimator":"BFSSharing","evidence":{"exclude":[0]}}`, // index-based + evidence
		`{bogus`, // malformed JSON
	}
	for _, body := range bad {
		code, out := post(t, h, "/v1/query", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %v)", body, code, out)
		}
		if out["error"] == "" {
			t.Errorf("%s: no error message", body)
		}
	}
	if code, _ := get(t, h, "/v1/query"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: status %d, want 405", code)
	}
}

// TestTopKAliasMatchesQueryEndpoint: GET /v1/topk is an alias of
// POST /v1/query with kind=topk — identical ranking, identical shape.
func TestTopKAliasMatchesQueryEndpoint(t *testing.T) {
	h := testServer(t).handler()
	_, alias := get(t, h, "/v1/topk?s=0&n=5&k=200")
	_, unified := post(t, h, "/v1/query", `{"kind":"topk","s":0,"topk":5,"k":200}`)
	if !reflect.DeepEqual(alias["targets"], unified["targets"]) {
		t.Errorf("alias ranking %v != unified ranking %v", alias["targets"], unified["targets"])
	}
	if alias["kind"].(string) != "topk" {
		t.Errorf("alias response kind %v", alias["kind"])
	}
	// The alias accepts anytime parameters too.
	code, body := get(t, h, "/v1/topk?s=0&n=5&eps=0.3")
	if code != http.StatusOK {
		t.Fatalf("anytime alias: status %d body %v", code, body)
	}
	if body["stop_reason"].(string) == "" {
		t.Error("anytime alias reported no stop_reason")
	}
}

// TestBatchMixedKinds: one POST /v1/batch may mix every kind; results are
// positionally aligned and carry per-kind payloads.
func TestBatchMixedKinds(t *testing.T) {
	h := testServer(t).handler()
	code, out := post(t, h, "/v1/batch", `{"queries":[
		{"s":0,"t":5,"k":200,"estimator":"MC"},
		{"kind":"topk","s":0,"topk":3,"k":200},
		{"kind":"single_source","s":1,"k":200},
		{"kind":"distance","s":0,"t":5,"d":3,"k":200},
		{"kind":"kterminal","s":0,"targets":[3,4],"k":200},
		{"kind":"topk","s":0,"topk":3,"k":200}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, out)
	}
	if out["failed"].(float64) != 0 {
		t.Fatalf("failures: %v", out)
	}
	results := out["results"].([]interface{})
	if len(results) != 6 {
		t.Fatalf("%d results", len(results))
	}
	kinds := []string{"reliability", "topk", "single_source", "distance", "kterminal", "topk"}
	for i, raw := range results {
		res := raw.(map[string]interface{})
		if res["kind"].(string) != kinds[i] {
			t.Errorf("result %d: kind %v, want %s", i, res["kind"], kinds[i])
		}
	}
	if !reflect.DeepEqual(results[1].(map[string]interface{})["targets"],
		results[5].(map[string]interface{})["targets"]) {
		t.Error("duplicate top-k queries disagree")
	}
	if results[5].(map[string]interface{})["cached"] != true {
		t.Error("duplicate top-k not deduplicated")
	}
	if rs := results[2].(map[string]interface{})["reliabilities"].([]interface{}); len(rs) == 0 {
		t.Error("single_source batch result missing reliabilities")
	}
	// Partial failure: a bad kind fails its own slot only.
	code, out = post(t, h, "/v1/batch", `{"queries":[
		{"s":0,"t":5,"k":100,"estimator":"MC"},
		{"kind":"bogus","s":0,"t":5,"k":100}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("partial batch: status %d", code)
	}
	if out["failed"].(float64) != 1 {
		t.Errorf("failed = %v, want 1", out["failed"])
	}
	// Engine stats expose the kind mix.
	_, stats := get(t, h, "/v1/engine/stats")
	km, ok := stats["kinds"].(map[string]interface{})
	if !ok || km["topk"].(float64) <= 0 {
		t.Errorf("stats missing kind counters: %v", stats["kinds"])
	}
}

// TestAnytimeReliability: eps turns the query anytime — the response
// reports samples_used and a stop_reason, and an easy (high-reliability,
// short-range) pair stops well under the cap.
func TestAnytimeReliability(t *testing.T) {
	h := testServer(t).handler()
	code, body := get(t, h, "/v1/estimate?s=0&t=5&eps=0.3&estimator=MC")
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, body)
	}
	used, ok := body["samples_used"].(float64)
	if !ok || used <= 0 {
		t.Fatalf("samples_used missing or zero: %v", body)
	}
	reason, _ := body["stop_reason"].(string)
	if reason == "" {
		t.Fatalf("stop_reason missing: %v", body)
	}
	// k defaults to the engine cap for anytime requests.
	if k := body["k"].(float64); int(k) != 500 {
		t.Errorf("anytime default cap %v, want engine MaxK 500", k)
	}
	if used > body["k"].(float64) {
		t.Errorf("samples_used %v exceeds cap %v", used, body["k"])
	}

	// A fixed query reports its full budget and no stop reason.
	code, body = get(t, h, "/v1/reliability?s=0&t=5&k=200&estimator=MC")
	if code != http.StatusOK {
		t.Fatalf("fixed: status %d", code)
	}
	if got := body["samples_used"].(float64); got != 200 {
		t.Errorf("fixed query samples_used %v, want 200", got)
	}
	if _, has := body["stop_reason"]; has {
		t.Errorf("fixed query reported stop_reason: %v", body)
	}
}

// TestAnytimeReliabilityDeadline: deadline_ms bounds the query and is
// reported as the stop reason when it fires first.
func TestAnytimeReliabilityDeadline(t *testing.T) {
	h := testServer(t).handler()
	// An effectively-zero deadline: the estimate returns immediately with
	// whatever was drawn, reason "deadline" (or eps if it won the race).
	code, body := get(t, h, "/v1/reliability?s=0&t=5&deadline_ms=1&eps=0.000001&estimator=MC")
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, body)
	}
	if reason, _ := body["stop_reason"].(string); reason == "" {
		t.Errorf("no stop_reason on deadline query: %v", body)
	}
	if _, bad := get(t, h, "/v1/reliability?s=0&t=5&deadline_ms=-4"); bad["error"] == nil {
		t.Error("negative deadline accepted")
	}
	if _, bad := get(t, h, "/v1/reliability?s=0&t=5&eps=1.5"); bad["error"] == nil {
		t.Error("eps >= 1 accepted")
	}
}

// TestAnytimeBatch: per-query and batch-wide eps/deadline_ms fields reach
// the engine, and the responses carry the termination report.
func TestAnytimeBatch(t *testing.T) {
	h := testServer(t).handler()
	code, body := post(t, h, "/v1/batch",
		`{"eps": 0.3, "queries": [
			{"s":0,"t":5,"estimator":"PackMC"},
			{"s":0,"t":6,"estimator":"PackMC"},
			{"s":0,"t":5,"estimator":"MC","eps":0}
		]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, body)
	}
	results := body["results"].([]interface{})
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for i, raw := range results {
		r := raw.(map[string]interface{})
		if r["error"] != nil {
			t.Fatalf("result %d error %v", i, r["error"])
		}
		used := r["samples_used"].(float64)
		if used <= 0 {
			t.Errorf("result %d samples_used %v", i, used)
		}
		_, hasReason := r["stop_reason"]
		if i < 2 && !hasReason {
			t.Errorf("anytime result %d missing stop_reason: %v", i, r)
		}
		if i == 2 {
			// The per-query eps:0 override makes the last query fixed.
			if hasReason {
				t.Errorf("fixed result reported stop_reason: %v", r)
			}
			if used != 500 {
				t.Errorf("fixed result samples_used %v, want full default cap 500", used)
			}
		}
	}
	// Engine stats expose the anytime savings and the bounds memo.
	_, stats := get(t, h, "/v1/engine/stats")
	if stats["anytimeQueries"].(float64) <= 0 {
		t.Errorf("stats missing anytime accounting: %v", stats["anytimeQueries"])
	}
	if _, ok := stats["boundsMemo"].(map[string]interface{}); !ok {
		t.Errorf("stats missing boundsMemo: %v", stats)
	}
}

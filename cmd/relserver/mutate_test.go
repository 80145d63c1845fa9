package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"relcomp"
)

// outEdge picks a live out-edge of s, so mutating it is guaranteed to
// invalidate queries sourced at s.
func outEdge(t *testing.T, g *relcomp.Graph, s int) relcomp.Edge {
	t.Helper()
	ids := g.OutEdgeIDs(relcomp.NodeID(s))
	if len(ids) == 0 {
		t.Fatalf("node %d has no out-edges", s)
	}
	return g.Edge(ids[0])
}

func TestMutateEndpoint(t *testing.T) {
	srv := testServer(t)
	h := srv.handler()
	e := outEdge(t, srv.engine.Graph(), 0)

	q := "/v1/reliability?s=0&t=5&k=200&estimator=MC"
	code, before := get(t, h, q)
	if code != http.StatusOK {
		t.Fatalf("baseline query: status %d", code)
	}
	if before["epoch"].(float64) != 0 {
		t.Fatalf("pre-mutation epoch %v, want 0", before["epoch"])
	}

	newP := 0.5 * e.P
	body := fmt.Sprintf(`{"mutations":[{"op":"update","from":%d,"to":%d,"p":%g}]}`, e.From, e.To, newP)
	code, out := post(t, h, "/v1/mutate", body)
	if code != http.StatusOK {
		t.Fatalf("mutate: status %d body %v", code, out)
	}
	if out["epoch"].(float64) != 1 || out["applied"].(float64) != 1 {
		t.Fatalf("mutate response %v, want epoch 1 applied 1", out)
	}

	// The source was invalidated: the re-query recomputes at epoch 1.
	code, after := get(t, h, q)
	if code != http.StatusOK {
		t.Fatalf("post-mutation query: status %d", code)
	}
	if after["cached"].(bool) {
		t.Error("query sourced at a mutated edge was served from cache")
	}
	if after["epoch"].(float64) != 1 {
		t.Errorf("post-mutation epoch %v, want 1", after["epoch"])
	}

	// Stats surface the new epoch and the batch counter.
	code, stats := get(t, h, "/v1/engine/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	mut, ok := stats["mutations"].(map[string]interface{})
	if !ok {
		t.Fatalf("stats carry no mutations section: %v", stats)
	}
	if mut["epoch"].(float64) != 1 || mut["batches"].(float64) != 1 {
		t.Errorf("mutation stats %v, want epoch 1 / batches 1", mut)
	}
}

func TestMutateValidation(t *testing.T) {
	srv := testServer(t)
	h := srv.handler()
	e := outEdge(t, srv.engine.Graph(), 0)
	n := srv.engine.Graph().NumNodes()

	for name, body := range map[string]string{
		"empty batch":   `{"mutations":[]}`,
		"unknown op":    fmt.Sprintf(`{"mutations":[{"op":"upsert","from":%d,"to":%d,"p":0.5}]}`, e.From, e.To),
		"update no p":   fmt.Sprintf(`{"mutations":[{"op":"update","from":%d,"to":%d}]}`, e.From, e.To),
		"remove with p": fmt.Sprintf(`{"mutations":[{"op":"remove","from":%d,"to":%d,"p":0.5}]}`, e.From, e.To),
		"p out of range": fmt.Sprintf(
			`{"mutations":[{"op":"update","from":%d,"to":%d,"p":1.5}]}`, e.From, e.To),
		"node out of range": fmt.Sprintf(`{"mutations":[{"op":"add","from":0,"to":%d,"p":0.5}]}`, n),
		"absent update":     `{"mutations":[{"op":"update","from":0,"to":0,"p":0.5}]}`,
		"not json":          `mutations=yes`,
	} {
		code, out := post(t, h, "/v1/mutate", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d body %v, want 400", name, code, out)
		}
	}

	// A rejected batch must not have moved the epoch.
	_, stats := get(t, h, "/v1/engine/stats")
	if mut := stats["mutations"].(map[string]interface{}); mut["epoch"].(float64) != 0 {
		t.Errorf("rejected batches moved the epoch: %v", mut["epoch"])
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/mutate", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/mutate: status %d, want 405", rec.Code)
	}
}

// sseEvent is one parsed server-sent event (or keep-alive comment).
type sseEvent struct {
	kind string // "estimate" or "heartbeat"
	data map[string]interface{}
}

// sseReader feeds parsed SSE events into a channel so tests can select
// with timeouts instead of blocking on a read.
func sseReader(t *testing.T, r *bufio.Reader) <-chan sseEvent {
	t.Helper()
	ch := make(chan sseEvent, 16)
	go func() {
		defer close(ch)
		event := ""
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, ": heartbeat"):
				ch <- sseEvent{kind: "heartbeat"}
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				var body map[string]interface{}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &body); err != nil {
					t.Errorf("bad SSE data %q: %v", line, err)
					return
				}
				ch <- sseEvent{kind: event, data: body}
			}
		}
	}()
	return ch
}

// nextEstimate drains heartbeats until an estimate event arrives.
func nextEstimate(t *testing.T, ch <-chan sseEvent) map[string]interface{} {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				t.Fatal("SSE stream closed before an estimate arrived")
			}
			if ev.kind == "estimate" {
				return ev.data
			}
		case <-deadline:
			t.Fatal("no estimate event within 30s")
		}
	}
}

func TestSubscribeSSE(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/subscribe?s=0&t=5&k=200&estimator=MC&heartbeat_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	events := sseReader(t, bufio.NewReader(resp.Body))

	first := nextEstimate(t, events)
	if first["epoch"].(float64) != 0 {
		t.Fatalf("initial estimate at epoch %v, want 0", first["epoch"])
	}

	// An update on an out-edge of the subscribed source triggers exactly
	// one re-estimate at the new epoch.
	e := outEdge(t, srv.engine.Graph(), 0)
	body := fmt.Sprintf(`{"mutations":[{"op":"update","from":%d,"to":%d,"p":%g}]}`, e.From, e.To, 0.5*e.P)
	mresp, err := http.Post(ts.URL+"/v1/mutate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d", mresp.StatusCode)
	}

	second := nextEstimate(t, events)
	if second["epoch"].(float64) != 1 {
		t.Fatalf("re-estimate at epoch %v, want 1", second["epoch"])
	}

	// The 50ms heartbeat keeps the stream warm between batches.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, open := <-events:
			if !open {
				t.Fatal("stream closed before a heartbeat")
			}
			if ev.kind == "heartbeat" {
				return
			}
		case <-deadline:
			t.Fatal("no heartbeat within 10s at heartbeat_ms=50")
		}
	}
}

// TestSubscribeQueryParams: /v1/subscribe reads the query parameters of
// /v1/reliability, deadline_ms included, and rejects what it rejects.
func TestSubscribeQueryParams(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	for _, q := range []string{"s=0", "s=0&t=3&k=0", "s=0&t=3&k=501", "s=0&t=3&eps=1.5", "s=0&t=3&deadline_ms=-4", "s=0&t=3&heartbeat_ms=0"} {
		resp, err := client.Get(ts.URL + "/v1/subscribe?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("subscribe?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	// A deadline makes the estimate anytime, as on /v1/reliability: it
	// reports why sampling stopped.
	resp, err := client.Get(ts.URL + "/v1/subscribe?s=0&t=5&k=200&estimator=MC&deadline_ms=60000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	if first := nextEstimate(t, sseReader(t, bufio.NewReader(resp.Body))); first["stop_reason"] == nil {
		t.Errorf("deadline subscription answered without a stop reason: %v", first)
	}
}

// TestEndpointsSeeCommittedMutations: after a committed batch adds an
// edge, every endpoint serves the mutated graph — its edge count, its
// bounds, and its new edge id as evidence.
func TestEndpointsSeeCommittedMutations(t *testing.T) {
	srv := testServer(t)
	h := srv.handler()
	edges := srv.engine.Graph().NumEdges()
	if code, out := post(t, h, "/v1/mutate", `{"mutations":[{"op":"add","from":0,"to":5,"p":0.9}]}`); code != http.StatusOK {
		t.Fatalf("mutate: status %d body %v", code, out)
	}
	if _, g := get(t, h, "/v1/graph"); int(g["edges"].(float64)) != edges+1 {
		t.Errorf("/v1/graph reports %v edges after adding one to %d", g["edges"], edges)
	}
	_, b := get(t, h, "/v1/bounds?s=0&t=5")
	_, mc := post(t, h, "/v1/query", `{"s":0,"t":5,"k":500,"estimator":"MC"}`)
	if lo, hi, r := b["lower"].(float64), b["upper"].(float64), mc["reliability"].(float64); lo < 0.9 || hi < r {
		t.Errorf("bounds [%v, %v] after adding 0->5 at p=0.9; MC answers %v", lo, hi, r)
	}
	body := fmt.Sprintf(`{"s":0,"t":5,"k":200,"estimator":"MC","evidence":{"include":[%d]}}`, edges)
	if code, out := post(t, h, "/v1/query", body); code != http.StatusOK || out["reliability"] != 1.0 {
		t.Errorf("evidence on the added edge %d: status %d body %v, want reliability 1", edges, code, out)
	}
}

// TestSidecarPersistAndReplay drives the -snapshot durability loop:
// serve from a snapshot, commit batches (which append to the sidecar),
// then "restart" — a fresh engine over the same snapshot plus sidecar
// replay must come back at the same epoch with bit-identical answers.
func TestSidecarPersistAndReplay(t *testing.T) {
	g, err := relcomp.Dataset("lastFM", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := relcomp.EngineConfig{Seed: 42, MaxK: 500}
	path := filepath.Join(t.TempDir(), "g.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := relcomp.WriteEngineSnapshot(f, g, cfg); err != nil {
		t.Fatal(err)
	}
	f.Close()

	boot := func() (*server, func()) {
		snap, err := relcomp.OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := relcomp.NewEngineFromSnapshot(snap, relcomp.EngineConfig{})
		if err != nil {
			snap.Close()
			t.Fatal(err)
		}
		s := newServer(eng)
		if err := attachSidecar(s, path); err != nil {
			snap.Close()
			t.Fatal(err)
		}
		return s, func() { s.sidecar.Close(); snap.Close() }
	}

	srv1, close1 := boot()
	h1 := srv1.handler()
	e := outEdge(t, g, 0)
	for i, body := range []string{
		fmt.Sprintf(`{"mutations":[{"op":"update","from":%d,"to":%d,"p":%g}]}`, e.From, e.To, 0.5*e.P),
		fmt.Sprintf(`{"mutations":[{"op":"remove","from":%d,"to":%d}]}`, e.From, e.To),
	} {
		code, out := post(t, h1, "/v1/mutate", body)
		if code != http.StatusOK || out["epoch"].(float64) != float64(i+1) {
			t.Fatalf("batch %d: status %d body %v", i, code, out)
		}
	}
	q := "/v1/reliability?s=0&t=5&k=200&estimator=MC"
	_, want := get(t, h1, q)
	close1()

	srv2, close2 := boot()
	defer close2()
	if got := srv2.engine.Epoch(); got != 2 {
		t.Fatalf("replayed engine at epoch %d, want 2", got)
	}
	_, got := get(t, srv2.handler(), q)
	if got["reliability"] != want["reliability"] || got["epoch"] != want["epoch"] {
		t.Errorf("replayed answer %v/%v, want %v/%v",
			got["reliability"], got["epoch"], want["reliability"], want["epoch"])
	}
}

// TestSidecarChainMismatch: a sidecar whose first batch does not chain
// from the snapshot's manifest epoch must abort startup.
func TestSidecarChainMismatch(t *testing.T) {
	g, err := relcomp.Dataset("lastFM", 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := relcomp.WriteEngineSnapshot(f, g, relcomp.EngineConfig{Seed: 1, MaxK: 100}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	side, err := os.Create(relcomp.MutationSidecarPath(path))
	if err != nil {
		t.Fatal(err)
	}
	e := outEdge(t, g, 0)
	err = relcomp.WriteMutationSidecar(side, []relcomp.MutationBatch{
		{Epoch: 5, Muts: []relcomp.Mutation{{Op: relcomp.OpRemoveEdge, From: e.From, To: e.To}}},
	})
	side.Close()
	if err != nil {
		t.Fatal(err)
	}

	snap, err := relcomp.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	eng, err := relcomp.NewEngineFromSnapshot(snap, relcomp.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := attachSidecar(newServer(eng), path); err == nil ||
		!strings.Contains(err.Error(), "chain") {
		t.Fatalf("non-chaining sidecar accepted (err=%v)", err)
	}
}

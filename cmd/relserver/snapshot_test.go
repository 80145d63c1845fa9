package main

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"relcomp"
)

// TestServeFromSnapshot drives the -snapshot serving path end to end:
// build a snapshot the way relsnap does, open it, start an engine over
// it, and check that the HTTP answers match a server that built its
// indexes from scratch under the same config.
func TestServeFromSnapshot(t *testing.T) {
	g, err := relcomp.Dataset("lastFM", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := relcomp.EngineConfig{Seed: 42, MaxK: 500}

	path := filepath.Join(t.TempDir(), "lastfm.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := relcomp.WriteEngineSnapshot(f, g, cfg); err != nil {
		t.Fatalf("WriteEngineSnapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := relcomp.OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer snap.Close()
	eng, err := relcomp.NewEngineFromSnapshot(snap, relcomp.EngineConfig{})
	if err != nil {
		t.Fatalf("NewEngineFromSnapshot: %v", err)
	}
	fromSnap := newServer(eng).handler()
	fromScratch := newServerWith(g, cfg).handler()

	for _, q := range []string{
		"/v1/reliability?s=0&t=5&k=200&estimator=BFSSharing",
		"/v1/reliability?s=1&t=7&k=200&estimator=ProbTree",
		"/v1/reliability?s=2&t=9&k=200&estimator=MC",
	} {
		codeA, bodyA := get(t, fromSnap, q)
		codeB, bodyB := get(t, fromScratch, q)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("%s: status %d / %d (%v / %v)", q, codeA, codeB, bodyA, bodyB)
		}
		if bodyA["reliability"] != bodyB["reliability"] {
			t.Errorf("%s: snapshot-served %v != from-scratch %v", q, bodyA["reliability"], bodyB["reliability"])
		}
	}

	// The graph endpoint serves the snapshot's graph.
	code, body := get(t, fromSnap, "/v1/graph")
	if code != http.StatusOK {
		t.Fatalf("graph endpoint status %d", code)
	}
	if int(body["nodes"].(float64)) != g.NumNodes() || int(body["edges"].(float64)) != g.NumEdges() {
		t.Errorf("graph endpoint %v, want n=%d m=%d", body, g.NumNodes(), g.NumEdges())
	}

	// Batch answers agree too.
	batch := `{"queries":[{"s":0,"t":5,"k":150,"estimator":"BFSSharing"},{"s":3,"t":8,"k":150,"estimator":"ProbTree"}]}`
	codeA, bodyA := post(t, fromSnap, "/v1/batch", batch)
	codeB, bodyB := post(t, fromScratch, "/v1/batch", batch)
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("batch status %d / %d", codeA, codeB)
	}
	ra, rb := bodyA["results"].([]interface{}), bodyB["results"].([]interface{})
	if len(ra) != len(rb) {
		t.Fatalf("batch sizes %d / %d", len(ra), len(rb))
	}
	for i := range ra {
		a, b := ra[i].(map[string]interface{}), rb[i].(map[string]interface{})
		if !reflect.DeepEqual(a["reliability"], b["reliability"]) {
			t.Errorf("batch result %d: %v != %v", i, a["reliability"], b["reliability"])
		}
	}
}

// TestSnapshotSeedMismatch mirrors main.go's contract: an explicitly set
// seed that contradicts the snapshot manifest must be rejected.
func TestSnapshotSeedMismatch(t *testing.T) {
	g, err := relcomp.Dataset("lastFM", 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := relcomp.WriteEngineSnapshot(f, g, relcomp.EngineConfig{Seed: 42, MaxK: 100}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	snap, err := relcomp.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, err := relcomp.NewEngineFromSnapshot(snap, relcomp.EngineConfig{Seed: 7}); err == nil {
		t.Error("conflicting seed accepted")
	}
	if _, err := relcomp.NewEngineFromSnapshot(snap, relcomp.EngineConfig{MaxK: 999}); err == nil {
		t.Error("conflicting maxk accepted")
	}
}

// TestSnapshotCorruptFileRejected confirms a truncated snapshot file
// fails loudly at open, with the typed corruption error.
func TestSnapshotCorruptFileRejected(t *testing.T) {
	g, err := relcomp.Dataset("lastFM", 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := relcomp.WriteEngineSnapshot(f, g, relcomp.EngineConfig{Seed: 1, MaxK: 50}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, img[:len(img)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := relcomp.OpenSnapshot(path); !errors.Is(err, relcomp.ErrSnapshotCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want ErrSnapshotCorrupt", err)
	}
}

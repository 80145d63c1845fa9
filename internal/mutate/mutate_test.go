package mutate

import (
	"strings"
	"testing"

	"relcomp/internal/uncertain"
)

func testGraph(t *testing.T) *uncertain.Graph {
	t.Helper()
	b := uncertain.NewBuilder(4)
	for _, e := range []uncertain.Edge{
		{From: 0, To: 1, P: 0.5}, {From: 1, To: 2, P: 0.25},
	} {
		if err := b.AddEdge(e.From, e.To, e.P); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestOpRoundTrip(t *testing.T) {
	for _, op := range []Op{OpUpdate, OpAdd, OpRemove} {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	if _, err := ParseOp("upsert"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestMutationCheck(t *testing.T) {
	g := testGraph(t)
	ok := []Mutation{
		{Op: OpUpdate, From: 0, To: 1, P: 0.9},
		{Op: OpAdd, From: 2, To: 3, P: 1},
		{Op: OpRemove, From: 0, To: 1},
		{Op: OpRemove, From: 2, To: 3}, // absent remove: shape-valid, ApplyDeltas decides
	}
	for _, m := range ok {
		if err := m.Check(g); err != nil {
			t.Errorf("Check(%+v) = %v", m, err)
		}
	}
	bad := []Mutation{
		{Op: OpUpdate, From: 0, To: 1, P: 0},
		{Op: OpUpdate, From: 0, To: 1, P: 1.01},
		{Op: OpAdd, From: 0, To: 9, P: 0.5},
		{Op: OpAdd, From: -1, To: 1, P: 0.5},
		{Op: OpAdd, From: 1, To: 1, P: 0.5},
		{Op: OpUpdate, From: 0, To: 3, P: 0.5}, // absent pair
		{Op: Op(9), From: 0, To: 1},
	}
	for _, m := range bad {
		if err := m.Check(g); err == nil {
			t.Errorf("Check(%+v) accepted", m)
		}
	}
	if d := (Mutation{Op: OpRemove, From: 0, To: 1, P: 0.7}).Delta(); d.P != 0 {
		t.Fatalf("remove delta carries probability %v", d.P)
	}
}

func TestLogChainingAndTrim(t *testing.T) {
	l := NewLog(10, 3)
	if got := l.LatestEpoch(); got != 10 {
		t.Fatalf("empty log latest = %d, want base 10", got)
	}
	if err := l.Append(Batch{Epoch: 12}); err == nil {
		t.Fatal("gap epoch accepted")
	}
	for ep := uint64(11); ep <= 15; ep++ {
		if err := l.Append(Batch{Epoch: ep, Muts: []Mutation{{Op: OpRemove, From: 0, To: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 3 || l.LatestEpoch() != 15 {
		t.Fatalf("after trim: len=%d latest=%d, want 3/15", l.Len(), l.LatestEpoch())
	}

	// Replay from inside the buffer works; from behind it reports !ok.
	if got, ok := l.Since(13); !ok || len(got) != 2 || got[0].Epoch != 14 {
		t.Fatalf("Since(13) = %d batches, ok=%v", len(got), ok)
	}
	if got, ok := l.Since(15); !ok || got != nil {
		t.Fatalf("Since(latest) = %v, ok=%v", got, ok)
	}
	if _, ok := l.Since(11); ok {
		t.Fatal("Since behind the trimmed buffer claimed ok")
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	// 0.1 has no short decimal float64 representation: the 'g'/-1
	// formatting must still round-trip it bit-exactly.
	batches := []Batch{
		{Epoch: 3, Muts: []Mutation{
			{Op: OpUpdate, From: 0, To: 1, P: 0.1},
			{Op: OpRemove, From: 1, To: 2},
		}},
		{Epoch: 4, Muts: []Mutation{{Op: OpAdd, From: 2, To: 3, P: 1e-9}}},
	}
	var sb strings.Builder
	if err := WriteSidecar(&sb, batches); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSidecar(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batches) {
		t.Fatalf("%d batches, want %d", len(got), len(batches))
	}
	for i, b := range batches {
		if got[i].Epoch != b.Epoch || len(got[i].Muts) != len(b.Muts) {
			t.Fatalf("batch %d shape mismatch: %+v", i, got[i])
		}
		for j, m := range b.Muts {
			if got[i].Muts[j] != m {
				t.Fatalf("batch %d mut %d: got %+v, want %+v", i, j, got[i].Muts[j], m)
			}
		}
	}
}

func TestSidecarRejectsCorruption(t *testing.T) {
	for name, text := range map[string]string{
		"bad magic":     "RELMUT9\nbatch 1 0\n",
		"epoch gap":     "RELMUT1\nbatch 1 0\nbatch 3 0\n",
		"truncated":     "RELMUT1\nbatch 1 2\nu 0 1 0.5\n",
		"bad verb":      "RELMUT1\nbatch 1 1\nx 0 1 0.5\n",
		"bad prob":      "RELMUT1\nbatch 1 1\nu 0 1 zero\n",
		"short line":    "RELMUT1\nbatch 1 1\nu 0\n",
		"remove with p": "RELMUT1\nbatch 1 1\nr 0 1 0.5\n",
	} {
		if _, err := ReadSidecar(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Header-only and comment/blank-tolerant files are fine.
	if got, err := ReadSidecar(strings.NewReader("RELMUT1\n\n# trailing comment\n")); err != nil || got != nil {
		t.Fatalf("header-only sidecar: %v, %v", got, err)
	}
}

// TestSidecarHugeCount: a batch header whose count no allocation can hold
// is a truncated batch, not a crash.
func TestSidecarHugeCount(t *testing.T) {
	_, err := ReadSidecar(strings.NewReader("RELMUT1\nbatch 0 9223372036854775807\n"))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("huge count: %v, want a truncation error", err)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"relcomp"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// gives [3.5, 13.5, 31.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestSelfTimesSumToRoundTrip(t *testing.T) {
	msec := int64(time.Millisecond)
	spans := []span{
		{Req: 0, Layer: layerWire, Start: 0, End: 10 * msec},
		{Req: 0, Layer: layerEngine, Start: 10 * msec, End: 18 * msec, Parent: layerWire},
		{Req: 0, Layer: layerBounds, Start: 18 * msec, End: 23 * msec, Parent: layerEngine},
		{Req: 0, Layer: layerCore, Start: 23 * msec, End: 25 * msec, Parent: layerEngine},
		{Req: 1, Layer: layerWire, Start: 30 * msec, End: 34 * msec},
		{Req: 1, Layer: layerEngine, Start: 34 * msec, End: 37 * msec, Parent: layerWire},
		{Req: 2, Layer: layerWire, Start: 40 * msec, End: 49 * msec, Write: true},
	}
	self, roundTrip, n := selfTimes(spans, false)
	want := map[string]float64{layerWire: 1.5, layerEngine: 2, layerBounds: 2.5, layerCore: 1}
	if n != 2 || roundTrip != 7 {
		t.Fatalf("n = %d, round trip = %v, want 2 and 7", n, roundTrip)
	}
	sum := 0.0
	for l, v := range self {
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", l, v, want[l])
		}
		sum += v
	}
	if math.Abs(sum-roundTrip) > 1e-12 {
		t.Errorf("self times sum to %v, round trip is %v", sum, roundTrip)
	}
	if _, rt, n := selfTimes(spans, true); n != 1 || rt != 9 {
		t.Errorf("writes: n = %d, round trip = %v, want 1 and 9", n, rt)
	}
}

func TestRoleNames(t *testing.T) {
	for in, want := range map[string]string{"LP+": "LPplus", "PackMC512": "pack", "PackMC": "pack", "RSS": "RSS"} {
		if got := role(in); got != want {
			t.Errorf("role(%q) = %q, want %q", in, got, want)
		}
	}
}

// smallWorkloads are the four workload shapes on a graph small enough for
// a test: same code paths, lastFM instead of DBLP_0.2 and NetHept.
func smallWorkloads() []workload {
	out := slices.Clone(workloads)
	for i := range out {
		out[i].dataset = "lastFM"
		if out[i].pairs > 0 {
			out[i].pairs = 200
		}
	}
	return out
}

func planBytes(t *testing.T, w *workload, g *relcomp.Graph, seed uint64) []byte {
	t.Helper()
	p, err := buildPlan(w, g, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, list := range [][]step{p.warm, p.steps, p.probes} {
		for _, st := range list {
			buf.WriteString(st.path)
			buf.Write(st.body)
		}
	}
	return buf.Bytes()
}

func TestPlansDependOnSeedAlone(t *testing.T) {
	g, err := relcomp.Dataset("lastFM", 1, graphSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range smallWorkloads() {
		a, b, c := planBytes(t, &w, g, 1), planBytes(t, &w, g, 1), planBytes(t, &w, g, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans from seed 1 differ", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: plans from seeds 1 and 2 are identical", w.name)
		}
	}
}

type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the code %+v", i, got, d)
		}
	}
}

// checkMetrics asserts that got holds exactly the wanted names, once each,
// with the wanted units and finite values.
func checkMetrics(t *testing.T, what string, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		if m.extra {
			continue
		}
		unit, ok := want[m.name]
		switch {
		case !ok:
			t.Errorf("%s: unexpected metric %s", what, m.name)
		case seen[m.name]:
			t.Errorf("%s: metric %s printed twice", what, m.name)
		case unit != m.unit:
			t.Errorf("%s: metric %s has unit %s, want %s", what, m.name, m.unit, unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("%s: metric %s is %v", what, m.name, m.value)
		}
		seen[m.name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: metric %s missing", what, name)
		}
	}
}

// TestSmoke runs all four workload shapes on lastFM with one-second
// windows, untraced and traced, against real relserver children.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs relserver")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/relserver", "./cmd/relsnap")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	h, err := newHarness(bin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	ctx := context.Background()

	b := readBenchmarkJSON(t)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	for _, w := range smallWorkloads() {
		r, err := newRun(h, &w, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.measure(ctx, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, w.name, got, endToEnd)
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, r.failed, r.attempted)
		}

		r, err = newRun(h, &w, 1)
		if err != nil {
			t.Fatal(err)
		}
		spanFile := filepath.Join(t.TempDir(), "spans.jsonl")
		got, err = r.traceLayers(ctx, time.Second, spanFile)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, w.name+" traced", got, perLayer)
		if r.failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed", w.name, r.failed, r.attempted)
		}
		raw, err := os.ReadFile(spanFile)
		if err != nil || len(raw) == 0 {
			t.Fatalf("%s: span file: %v, %d bytes", w.name, err, len(raw))
		}
		var first span
		if err := json.Unmarshal(raw[:bytes.IndexByte(raw, '\n')], &first); err != nil || first.Layer != layerWire {
			t.Errorf("%s: first span is %+v (%v), want a %s span", w.name, first, err, layerWire)
		}
		r.removeSnapshot()
	}
}

// A wrong answer must be counted as a failure by the same check the
// command runs: corrupt one recorded answer by one unit in the last place.
func TestCorruptedAnswerIsCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs relserver")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/relserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	h, err := newHarness(bin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	ctx := context.Background()
	w := smallWorkloads()[2]
	if w.shape != pinned {
		t.Fatalf("workload %s is not the pinned one", w.name)
	}
	r, err := newRun(h, &w, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := r.setup(ctx)
	if err != nil {
		t.Fatal(err)
	}
	win, err := r.drive(c, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	seen := r.checkWindow(win)
	if err := r.checkAnswers(ctx, seen.first); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(seen.first) == 0 {
		t.Fatalf("%d failures and %d checked requests before any corruption", r.failed, len(seen.first))
	}
	a := &seen.first[0][0]
	a.Reliability = math.Nextafter(a.Reliability, 2)
	if err := r.checkAnswers(ctx, seen.first); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Errorf("%d failures after corrupting one answer, want 1", r.failed)
	}
}

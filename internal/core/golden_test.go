package core

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"relcomp/internal/uncertain"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden estimator values in testdata")

// goldenPath holds the exact float64 values TestEstimatorValuesGolden
// pins, one line per estimate.
var goldenPath = filepath.Join("testdata", "estimator_values.golden")

// goldenBudgets straddle the pack and word boundaries (63, 64, 65) and
// reach past one index word group (1000, 2000).
var goldenBudgets = []int{1, 63, 64, 65, 200, 1000, 2000}

// goldenPairs include a trivial s == t query.
var goldenPairs = [][2]uncertain.NodeID{{0, 7}, {3, 42}, {11, 11}, {5, 30}}

// TestEstimatorValuesGolden pins the exact values of Estimate and
// EstimateAll for every core estimator on samplerGraph. Each estimator is
// one instance queried in a fixed order, so the values also pin how
// successive calls walk the random stream. The chunked-session tests only
// compare paths with each other; this test is what catches a change to
// the streams themselves. Run with -update to rewrite the golden file
// after a deliberate stream change.
func TestEstimatorValuesGolden(t *testing.T) {
	got := goldenValues(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden values, want %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d mismatched values in all", bad)
	}
}

// goldenValues computes every pinned value as one line: the estimator,
// the query, and the value in exact hexadecimal float notation.
func goldenValues(tb testing.TB) []string {
	g := samplerGraph(tb)
	const seed = 97
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var lines []string
	st := []struct {
		name string
		est  Estimator
	}{
		{"MC", NewMC(g, seed)},
		{"PackMC", NewPackMC(g, seed)},
		{"PackMC256", NewWidePackMC(g, seed, 256)},
		{"PackMC512", NewWidePackMC(g, seed, 512)},
		{"ParallelPackMC", NewParallelPackMC(g, seed, 3)},
		{"ParallelMC", NewParallelMC(g, seed, 3)},
		{"BFSSharing", NewBFSSharing(g, seed, 2048)},
		{"LP+", NewLazyProp(g, seed)},
		{"LP", NewLazyPropOriginal(g, seed)},
		{"ProbTree", NewProbTree(g, seed)},
		{"RHH", NewRHH(g, seed)},
		{"RSS", NewRSS(g, seed)},
		{"DistanceConstrainedMC", NewDistanceConstrainedMC(g, seed, 3)},
		{"TwoPhasePackMC", NewTwoPhasePackMC(NewPackMC(g, seed))},
	}
	for _, e := range st {
		for _, pr := range goldenPairs {
			for _, k := range goldenBudgets {
				v := e.est.Estimate(pr[0], pr[1], k)
				lines = append(lines, fmt.Sprintf("%s %d %d %d %s", e.name, pr[0], pr[1], k, hex(v)))
			}
		}
	}
	kt, err := NewKTerminal(g, seed, []uncertain.NodeID{7, 30, 42})
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range []uncertain.NodeID{0, 3, 7} {
		for _, k := range goldenBudgets {
			lines = append(lines, fmt.Sprintf("KTerminal %d %d %s", s, k, hex(kt.Estimate(s, k))))
		}
	}
	all := []struct {
		name string
		est  SourceEstimator
	}{
		{"PackMC", NewPackMC(g, seed)},
		{"PackMC256", NewWidePackMC(g, seed, 256)},
		{"PackMC512", NewWidePackMC(g, seed, 512)},
		{"BFSSharing", NewBFSSharing(g, seed, 2048)},
	}
	for _, e := range all {
		for _, s := range []uncertain.NodeID{0, 3} {
			for _, k := range goldenBudgets {
				vs := e.est.EstimateAll(s, k)
				strs := make([]string, len(vs))
				for i, v := range vs {
					strs[i] = hex(v)
				}
				lines = append(lines, fmt.Sprintf("%s all %d %d %s", e.name, s, k, strings.Join(strs, ",")))
			}
		}
	}
	return lines
}

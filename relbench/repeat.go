package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// repeatSuite runs every workload o.repeat times, run i with seed
// o.seed+i, and prints for each end-to-end metric its median, quartiles
// and largest deviation from the median. It then splits the runs into two
// interleaved sets (even and odd i) and compares their medians: the same
// code measured twice must agree within the metric's own bound, or the
// bound is not one a later change can be held to. Returns the exit code.
func repeatSuite(ctx context.Context, h *harness, o options) int {
	if o.repeat < 2 {
		fmt.Fprintln(os.Stderr, "relbench: -repeat needs at least 2 runs to split into two sets")
		return 2
	}
	values := map[string]map[string][]float64{} // workload -> metric -> value per run
	failed := 0
	for i := 0; i < o.repeat; i++ {
		for j := range workloads {
			w := &workloads[j]
			run := o
			run.seed = o.seed + uint64(i)
			res, err := runWorkload(ctx, h, w, run)
			if err != nil {
				fmt.Fprintf(os.Stderr, "relbench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			failed += res.failed
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, m := range res.metrics {
				values[w.name][m.name] = append(values[w.name][m.name], m.value)
			}
		}
	}

	code := 0
	fmt.Printf("# Repeatability: %d runs per workload, %s windows, seeds %d..%d\n\n",
		o.repeat, o.length, o.seed, o.seed+uint64(o.repeat)-1)
	fmt.Printf("Set A is the even-numbered runs, set B the odd-numbered ones. `spread` is (Q3-Q1)/median, ")
	fmt.Printf("`max dev` the largest |value-median|/median, `A vs B` |median A - median B|/median A.\n\n")
	for _, w := range workloads {
		fmt.Printf("## %s\n\n", w.name)
		fmt.Printf("| metric | unit | median | Q1 | Q3 | spread | max dev | A vs B | bound | |\n|---|---|---|---|---|---|---|---|---|---|\n")
		for _, d := range endToEndDefs {
			xs := values[w.name][d.name]
			q1, med, q3 := quartiles(xs)
			dev := 0.0
			var sets [2][]float64
			for i, x := range xs {
				dev = math.Max(dev, math.Abs(x-med)/med)
				sets[i%2] = append(sets[i%2], x)
			}
			a, b := median(sets[0]), median(sets[1])
			diff := math.Abs(a-b) / a
			verdict := "ok"
			if diff > d.bound {
				verdict, code = "**differs**", 1
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.4f | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				d.name, d.unit, med, q1, q3, 100*(q3-q1)/med, 100*dev, 100*diff, 100*d.bound, verdict)
		}
		fmt.Println()
	}
	if failed > 0 {
		fmt.Printf("%d operations failed their checks.\n", failed)
		code = 1
	}
	return code
}

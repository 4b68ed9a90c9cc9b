package main

import (
	"fmt"
	"math"
)

// runRepeat runs the end-to-end set n times, each repetition with its own
// seed as the PR driver does, and prints per workload and metric the
// median, the quartiles, the interquartile spread as a share of the median
// (what the bounds are judged against) and the full range. A spread above
// the bound is a FAIL: the benchmark could not tell a regression of that
// size from its own noise.
func runRepeat(specs []workloadSpec, p plan, n int) error {
	values := make(map[string]map[string][]float64) // workload -> metric -> one per repetition
	var failed int64
	seed := p.seed
	for i := 0; i < n; i++ {
		p.seed = seed + int64(i)
		for _, spec := range specs {
			out, err := measureWorkload(spec, p, nil)
			if err != nil {
				return err
			}
			failed += out.failed
			if values[spec.name] == nil {
				values[spec.name] = make(map[string][]float64)
			}
			for k, v := range out.e2e {
				values[spec.name][k] = append(values[spec.name][k], v)
			}
			fmt.Printf("repeat %d/%d seed %d %s: %.0f ops/s, p99 %.0f us, failed %d of %d%s\n",
				i+1, n, p.seed, spec.name, out.e2e["ops_per_s"], out.e2e["p99_us"], out.failed, out.attempted, out.faults)
		}
	}
	ok := failed == 0
	fmt.Printf("\n%-17s %-24s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "range", "bound")
	for _, spec := range specs {
		for _, d := range endToEnd {
			vs := values[spec.name][d.name]
			q1, q2, q3 := quartiles(vs)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			verdict := "PASS"
			// setup_s is bounded on its median only: the driver does not
			// hold its spread to the bound.
			if spread := relSpread(vs); spread > d.bound && d.name != "setup_s" {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-17s %-24s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %5.0f%% %s\n",
				spec.name, d.name, q1, q2, q3, 100*relSpread(vs), 100*ratio(hi-lo, q2), 100*d.bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("repeatability: a spread exceeds its bound, or operations failed (%d)", failed)
	}
	return nil
}

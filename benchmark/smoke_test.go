package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the harness binary: the
// harness re-executes itself with -serve to get its server child.
func TestMain(m *testing.M) {
	if serveIfChild() {
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload end to end with 1 s windows — untraced,
// open loop, traced, read-back — and wants every operation verified and
// every metric present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes and measures for a few seconds")
	}
	rungs, err := runRungs(2 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	p := plan{seed: 5, setups: 1, warmup: 200 * time.Millisecond, window: time.Second,
		open: 300 * time.Millisecond, traced: 300 * time.Millisecond, outDir: t.TempDir()}
	for _, spec := range workloads {
		out, err := measureWorkload(spec, p, rungs)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || out.attempted < 1000 {
			t.Errorf("%s: %d of %d operations failed%s", spec.name, out.failed, out.attempted, out.faults)
		}
		for _, d := range endToEnd {
			// A second is too short for the SSDs to reach garbage
			// collection on a slow (race-built) run.
			if v, ok := out.e2e[d.name]; !ok || v < 0 || (v == 0 && d.name != "gc_pages_per_user_chunk") {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", spec.name, d.name, v)
			}
		}
		for _, d := range perLayer {
			if _, ok := out.layers[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s was not measured", spec.name, d.name)
			}
		}
		if len(out.layers) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics measured, %d defined", spec.name, len(out.layers), len(perLayer))
		}
		degraded := out.layers["core.degraded_reads_per_read"]
		if spec.degraded != (degraded > 0.05) {
			t.Errorf("%s: %.3f degraded reads per read", spec.name, degraded)
		}
		if _, err := os.Stat(p.outDir + "/trace-" + spec.name + ".jsonl"); err != nil {
			t.Errorf("%s: no trace written: %v", spec.name, err)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps ../BENCHMARK.json, which the PR
// driver reads, in step with what the harness runs and prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if time.Duration(f.RunSeconds)*time.Second != defaultWindow {
		t.Errorf("run_seconds %d, the harness's default window is %v", f.RunSeconds, defaultWindow)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d run", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, the harness has %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, %d printed", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: %+v, the harness has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

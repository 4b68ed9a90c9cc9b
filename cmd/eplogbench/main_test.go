package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestUnknownExperiment(t *testing.T) {
	// Every value main or run dispatches on; "conc" was one until the
	// worker pool it varied was deleted.
	accepted := "all, table1, 1, 2, 3, 4, 5, 6, fig6, recovery, ablations, obs, kernels, scaling, net"
	for _, exp := range []string{"nope", "conc"} {
		err := run(exp, 64, outputs{})
		if err == nil {
			t.Errorf("unknown experiment %q accepted", exp)
		} else if _, list, _ := strings.Cut(err.Error(), "(want "); list != accepted+")" {
			t.Errorf("error for %q lists %q, want every accepted value: %s", exp, list, accepted)
		}
	}
	if err := run("all", 0, outputs{}); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestFastExperiments(t *testing.T) {
	// fig6 and table1 are cheap enough for a unit test; the trace-driven
	// experiments are covered by internal/experiments tests.
	if err := run("fig6", 512, outputs{}); err != nil {
		t.Fatal(err)
	}
	if err := run("table1", 512, outputs{}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperExperimentsGolden is the byte-determinism oracle: Experiments 1,
// 2 and 4 at -scale 256 must reproduce the checked-in JSONL records byte
// for byte (write traffic, GC counts, commit overhead — no host fields).
// An engine change that moves them has changed the reproduction. To
// regenerate after an intended change, from the repo root:
//
//	for e in 1 2 4; do rm -f cmd/eplogbench/testdata/exp$e-scale256.jsonl; go run ./cmd/eplogbench -exp $e -scale 256 -json cmd/eplogbench/testdata/exp$e-scale256.jsonl; done
func TestPaperExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven experiments")
	}
	for _, exp := range []string{"1", "2", "4"} {
		path := t.TempDir() + "/out.jsonl"
		if err := run(exp, 256, outputs{jsonPath: path}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("testdata/exp" + exp + "-scale256.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-exp %s -scale 256 -json differs from testdata/exp%s-scale256.jsonl (%d vs %d bytes)", exp, exp, len(got), len(want))
		}
	}
}

func TestOneTraceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven experiment")
	}
	if err := run("6", 512, outputs{}); err != nil {
		t.Fatal(err)
	}
}

func TestScalingBenchReport(t *testing.T) {
	path := t.TempDir() + "/BENCH_scaling.json"
	// -scale 512 keeps the sweep to a few hundred requests per run.
	if err := runScalingBench(512, 4, path, false); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep scalingReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if !rep.BytesIdentical {
		t.Error("report says byte counts diverged across shard counts")
	}
	if rep.NumCPU < 1 || rep.GOMAXPROCS < 1 {
		t.Errorf("environment metadata missing: %+v", rep)
	}
	if len(rep.Runs) != 4 { // shards {1,2,4,8}; -shards 4 is already among them
		t.Fatalf("report has %d runs, want the four-row shard sweep", len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if r.SSDWriteBytes != rep.Runs[0].SSDWriteBytes || r.LogWriteBytes != rep.Runs[0].LogWriteBytes {
			t.Errorf("row %+v: traffic differs from first row", r)
		}
		if want := 1 << i; r.Shards != want {
			t.Errorf("row %d has shards=%d, want %d", i, r.Shards, want)
		}
	}
	if rep.SpeedupAt4Shards <= 0 || rep.SpeedupAt4Shards != rep.Runs[2].Speedup {
		t.Errorf("headline speedup %v is not the shards=4 row's %v", rep.SpeedupAt4Shards, rep.Runs[2].Speedup)
	}
}

func TestScalingOverwriteGuard(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep scalingReport) string {
		t.Helper()
		path := dir + "/" + name
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// A report from a bigger machine is protected...
	big := write("big.json", scalingReport{NumCPU: 1 << 16, CPUModel: "many-core test host"})
	err := guardScalingOverwrite(big, false)
	if err == nil {
		t.Fatal("guard allowed a 1-CPU run to overwrite a multi-core report")
	}
	if !strings.Contains(err.Error(), "-force") {
		t.Errorf("refusal does not mention -force: %v", err)
	}
	// ...unless forced.
	if err := guardScalingOverwrite(big, true); err != nil {
		t.Errorf("-force did not override the guard: %v", err)
	}

	// A report from an equal or smaller machine is fair game.
	small := write("small.json", scalingReport{NumCPU: 1})
	if err := guardScalingOverwrite(small, false); err != nil {
		t.Errorf("guard blocked overwriting an equal/smaller-host report: %v", err)
	}

	// Missing or unparseable files never block: no provenance to protect.
	if err := guardScalingOverwrite(dir+"/absent.json", false); err != nil {
		t.Errorf("guard blocked a missing file: %v", err)
	}
	garbled := dir + "/garbled.json"
	if err := os.WriteFile(garbled, []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := guardScalingOverwrite(garbled, false); err != nil {
		t.Errorf("guard blocked an unparseable file: %v", err)
	}
}

func TestCSVExport(t *testing.T) {
	path := t.TempDir() + "/out.csv"
	if err := run("fig6", 512, outputs{csvPath: path}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "experiment,workload,scheme,metric,value\n") {
		t.Error("CSV header missing")
	}
	if strings.Count(string(b), "\n") < 10 {
		t.Error("CSV has too few rows")
	}
}

func TestJSONExport(t *testing.T) {
	path := t.TempDir() + "/out.jsonl"
	if err := run("fig6", 512, outputs{jsonPath: path}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 10 {
		t.Fatalf("JSON output has %d lines, want >= 10", len(lines))
	}
	var rec record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("first record does not parse: %v", err)
	}
	if rec.Experiment == "" || rec.Metric == "" {
		t.Errorf("record missing fields: %+v", rec)
	}
}

func TestObsOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven experiment")
	}
	dir := t.TempDir()
	out := outputs{
		metricsPath: dir + "/metrics.json",
		tracePath:   dir + "/trace.jsonl",
		promPath:    dir + "/metrics.prom",
	}
	if err := run("obs", 512, out); err != nil {
		t.Fatal(err)
	}

	mb, err := os.ReadFile(out.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics snapshot does not parse: %v", err)
	}
	if _, ok := snap.Histograms["core.write_latency"]; !ok {
		t.Error("metrics snapshot missing core.write_latency histogram")
	}
	if _, ok := snap.Histograms["dev.main0.write_latency"]; !ok {
		t.Error("metrics snapshot missing per-device write latency")
	}
	if _, ok := snap.Counters["ssd.0.gc_runs"]; !ok {
		t.Error("metrics snapshot missing SSD GC counter")
	}

	tb, err := os.ReadFile(out.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tb), `"kind":"parity-commit"`) {
		t.Error("trace dump has no parity-commit events")
	}

	pb, err := os.ReadFile(out.promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(pb), "# TYPE eplog_core_write_latency histogram") {
		t.Error("prometheus exposition missing write latency histogram")
	}
}

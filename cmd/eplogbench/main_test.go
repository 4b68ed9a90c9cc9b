package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestUnknownExperiment(t *testing.T) {
	// Every value run dispatches on. "conc" was one until the worker pool
	// it varied was deleted; kernels, scaling and net were benchmarks whose
	// numbers the benchmark/ module now records; obs was an instrumented
	// replay whose live telemetry eplogserve -telemetry serves and whose
	// accounting TestObservabilityReconciles checks.
	accepted := "all, table1, 1, 2, 3, 4, 5, 6, fig6, recovery, ablations"
	for _, exp := range []string{"nope", "conc", "kernels", "scaling", "net", "obs"} {
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

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLifecycle drives the full CLI flow against a temp directory:
// create -> write -> read -> scrub -> commit -> rebuild -> read.
func TestLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	steps := [][]string{
		{"-dir", dir, "create", "-n", "5", "-k", "4", "-stripes", "64"},
		{"-dir", dir, "write", "-lba", "11", "-text", "persist me"},
		{"-dir", dir, "read", "-lba", "11"},
		{"-dir", dir, "status"},
		{"-dir", dir, "scrub"},
		{"-dir", dir, "commit"},
		{"-dir", dir, "rebuild", "-dev", "1"},
		{"-dir", dir, "read", "-lba", "11"},
		{"-dir", dir, "scrub"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("eplogctl %v: %v", args, err)
		}
	}
}

// TestMetricsAndDumps exercises the metrics command and the global
// observability dump flags.
func TestMetricsAndDumps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := run([]string{"-dir", dir, "create", "-n", "5", "-k", "4", "-stripes", "32"}); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(t.TempDir(), "metrics.json")
	spath := filepath.Join(t.TempDir(), "spans.jsonl")
	steps := [][]string{
		{"-dir", dir, "-metrics-out", mpath, "-spans-out", spath, "write", "-lba", "3", "-text", "observed"},
		{"-dir", dir, "metrics"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("eplogctl %v: %v", args, err)
		}
	}
	mb, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mb), "core.write_latency") {
		t.Error("metrics dump missing core.write_latency")
	}
	if !strings.Contains(string(mb), "dev.main0.write_ops") {
		t.Error("metrics dump missing per-device counters")
	}
	sb, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sb), `"kind":"write"`) {
		t.Error("span dump missing write root")
	}
}

func TestErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := run([]string{"-dir", dir}); err == nil {
		t.Error("missing command accepted")
	}
	if err := run([]string{"-dir", dir, "frobnicate"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"-dir", dir, "read", "-lba", "0"}); err == nil {
		t.Error("read before create accepted")
	}
	if err := run([]string{"-dir", dir, "create", "-n", "5", "-k", "4", "-stripes", "32"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dir", dir, "create"}); err == nil {
		t.Error("double create accepted")
	}
	if err := run([]string{"-dir", dir, "rebuild", "-dev", "9"}); err == nil {
		t.Error("out-of-range rebuild accepted")
	}
}

func TestLayoutRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := layout{n: 8, k: 6, stripes: 512}
	if err := saveLayout(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("layout round trip: %+v != %+v", got, want)
	}
	// Corrupt layout rejected.
	if err := os.WriteFile(layoutPath(dir), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadLayout(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt layout error = %v", err)
	}
}

package eplog_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/eplog/eplog"
)

// TestArrayObservability covers the public observability surface: an array
// created with TraceEvents > 0 and Spans > 0 exposes per-device metrics and
// span trees, and every export format renders.
func TestArrayObservability(t *testing.T) {
	a, _, _ := newArray(t, eplog.Config{TraceEvents: eplog.DefaultTraceEvents, Spans: eplog.DefaultSpanTrees})
	data := make([]byte, 4*chunk)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	m := a.Metrics()
	if m.Counters["dev.main0.write_ops"] == 0 {
		t.Error("main-device write ops not counted")
	}
	if m.Counters["dev.log0.write_ops"] == 0 {
		t.Error("log-device write ops not counted")
	}
	if m.Histograms["core.commit_latency"].Count == 0 {
		t.Error("commit latency not observed")
	}
	spans := a.Spans()
	if len(spans) == 0 {
		t.Fatal("no span trees recorded")
	}
	if a.SpansDropped() != 0 {
		t.Errorf("SpansDropped = %d, want 0", a.SpansDropped())
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "core.write_latency") {
		t.Error("JSON snapshot missing core.write_latency")
	}
	buf.Reset()
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE eplog_core_write_latency histogram") {
		t.Error("Prometheus exposition missing write latency histogram")
	}
	buf.Reset()
	if err := eplog.WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"write", "commit", "commit-fold"} {
		if !strings.Contains(buf.String(), `"kind":"`+kind+`"`) {
			t.Errorf("span JSONL missing a %s span", kind)
		}
	}
}

// TestSnapshotsAreValueCopies is a regression test for the documented
// contract that Stats() and Metrics() return value copies: retaining a
// snapshot across further array activity must not change it, and mutating
// a retained snapshot must not leak back into the array.
func TestSnapshotsAreValueCopies(t *testing.T) {
	a, _, _ := newArray(t, eplog.Config{TraceEvents: eplog.DefaultTraceEvents, Spans: eplog.DefaultSpanTrees})
	data := make([]byte, 4*chunk)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	s1 := a.Stats()
	m1 := a.Metrics()
	writes1 := s1.DataWriteChunks
	ops1 := m1.Counters["dev.main0.write_ops"]
	lat1 := m1.Histograms["core.write_latency"].Count
	if ops1 == 0 || lat1 == 0 {
		t.Fatal("first snapshot empty; instrumentation broken")
	}

	// More activity after the snapshots were taken.
	for i := 0; i < 4; i++ {
		if err := a.Write(int64(i)*4, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}

	if s1.DataWriteChunks != writes1 {
		t.Errorf("retained Stats changed: Writes %d -> %d", writes1, s1.DataWriteChunks)
	}
	if got := m1.Counters["dev.main0.write_ops"]; got != ops1 {
		t.Errorf("retained Metrics counter changed: %d -> %d", ops1, got)
	}
	if got := m1.Histograms["core.write_latency"].Count; got != lat1 {
		t.Errorf("retained Metrics histogram changed: count %d -> %d", lat1, got)
	}
	s2 := a.Stats()
	m2 := a.Metrics()
	if s2.DataWriteChunks <= writes1 {
		t.Errorf("live Stats did not advance: Writes %d then %d", writes1, s2.DataWriteChunks)
	}
	if m2.Counters["dev.main0.write_ops"] <= ops1 {
		t.Error("live Metrics did not advance")
	}

	// Mutating a retained snapshot must not affect the array's registry.
	m2.Counters["dev.main0.write_ops"] = -1
	delete(m2.Histograms, "core.write_latency")
	m3 := a.Metrics()
	if m3.Counters["dev.main0.write_ops"] <= 0 {
		t.Error("snapshot mutation leaked into the registry")
	}
	if m3.Histograms["core.write_latency"].Count == 0 {
		t.Error("snapshot deletion leaked into the registry")
	}

	// The span trees are likewise copies.
	tr := a.Spans()
	if len(tr) == 0 {
		t.Fatal("no span trees")
	}
	kind := tr[0].Kind
	tr[0].Kind = ""
	if got := a.Spans()[0].Kind; got != kind {
		t.Errorf("span mutation leaked: kind %q -> %q", kind, got)
	}
}

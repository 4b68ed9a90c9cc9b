package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// buildTree records one root with a phase child holding two I/O leaves.
func buildTree(r *SpanRecorder, start float64) *Span {
	root := r.Start(SpanWrite, 0, start, 10, 2)
	ph := root.Child(SpanLogAppend, 0, start, 5, 1)
	ph.IO(true, "main0", 42, start, start+1)
	ph.IO(false, "log0", 7, start+1, start+2)
	ph.Close(start + 2)
	return root
}

func TestSpanRecorderRingEvictionAndPooling(t *testing.T) {
	r := newSpanRecorder(SpanConfig{Trees: 4})
	for i := 0; i < 10; i++ {
		r.Finish(buildTree(r, float64(i)), float64(i)+2)
	}
	if got := r.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot retained %d trees, want 4", len(snap))
	}
	// Oldest first: the surviving roots started at 6, 7, 8, 9.
	for i, s := range snap {
		if want := float64(6 + i); s.T != want {
			t.Errorf("snap[%d].T = %g, want %g", i, s.T, want)
		}
		if s.Kind != "write" || len(s.Children) != 1 {
			t.Errorf("snap[%d] = kind %q with %d children, want write/1", i, s.Kind, len(s.Children))
		}
		ph := s.Children[0]
		if ph.Kind != "log-append" || ph.Parent != s.ID || len(ph.Children) != 2 {
			t.Errorf("snap[%d] phase = %+v, want log-append child of %d with 2 leaves", i, ph, s.ID)
		}
		if ph.Children[0].Kind != "io-write" || ph.Children[0].Dev != "main0" ||
			ph.Children[1].Kind != "io-read" || ph.Children[1].Dev != "log0" {
			t.Errorf("snap[%d] leaves = %+v", i, ph.Children)
		}
	}
	// Eviction recycles every node of the evicted tree (root + phase + 2
	// leaves), so the warmed recorder allocates nothing per recorded tree.
	if len(r.free) == 0 {
		t.Error("eviction did not recycle nodes onto the free list")
	}
	if avg := testing.AllocsPerRun(100, func() {
		r.Finish(buildTree(r, 0), 2)
	}); avg > 0 {
		t.Errorf("steady-state tree recording allocates %.2f objects/op, want 0", avg)
	}
}

func TestSpanRecorderDrop(t *testing.T) {
	r := newSpanRecorder(SpanConfig{Trees: 4})
	s := buildTree(r, 0)
	r.Drop(s)
	if got := r.Total(); got != 0 {
		t.Errorf("Total after Drop = %d, want 0", got)
	}
	if len(r.Snapshot()) != 0 {
		t.Error("dropped tree appeared in the ring")
	}
	if len(r.free) != 4 {
		t.Errorf("Drop recycled %d nodes, want 4", len(r.free))
	}
}

func TestSpanNilSafety(t *testing.T) {
	var r *SpanRecorder
	s := r.Start(SpanWrite, 0, 0, 0, 0)
	if s != nil {
		t.Fatalf("nil recorder returned non-nil span")
	}
	// All of these must be no-ops, not panics.
	c := s.Child(SpanLogAppend, 0, 0, 0, 0)
	if c != nil {
		t.Error("nil span returned a non-nil child")
	}
	s.IO(true, "d", 0, 0, 1)
	s.Close(1)
	s.SetCause("manual")
	r.Finish(s, 1)
	r.Drop(s)
	if r.Total() != 0 || r.Dropped() != 0 || r.Snapshot() != nil {
		t.Error("nil recorder accessors not zero-valued")
	}
}

func TestSpanSnapshotIsStableAcrossEviction(t *testing.T) {
	r := newSpanRecorder(SpanConfig{Trees: 2})
	r.Finish(buildTree(r, 1), 3)
	snap := r.Snapshot()
	// Force the snapshotted tree's nodes to be evicted and reused.
	for i := 0; i < 8; i++ {
		r.Finish(buildTree(r, 100+float64(i)), 200)
	}
	if snap[0].T != 1 || snap[0].Kind != "write" || len(snap[0].Children) != 1 {
		t.Errorf("snapshot mutated by later recording: %+v", snap[0])
	}
}

func TestWriteSpanJSONLRoundTrip(t *testing.T) {
	r := newSpanRecorder(SpanConfig{Trees: 8})
	root := buildTree(r, 2)
	root.SetCause("every")
	r.Finish(root, 4)
	var buf bytes.Buffer
	if err := WriteSpanJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	var got SpanSnapshot
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("line not valid JSON: %v", err)
	}
	if got.Kind != "write" || got.Cause != "every" || got.T != 2 || got.Dur != 2 {
		t.Errorf("round-tripped root = %+v", got)
	}
	if len(got.Children) != 1 || len(got.Children[0].Children) != 2 {
		t.Errorf("round-tripped tree lost children: %+v", got)
	}
}

func TestSortSpans(t *testing.T) {
	spans := []SpanSnapshot{
		{ID: 9, T: 2},
		{ID: 3, T: 1},
		{ID: 2, T: 1},
		{ID: 1, T: 3},
	}
	SortSpans(spans)
	wantIDs := []uint64{2, 3, 9, 1}
	for i, want := range wantIDs {
		if spans[i].ID != want {
			t.Fatalf("order %v, want IDs %v", spans, wantIDs)
		}
	}
}

func TestSinkSpans(t *testing.T) {
	var nilSink *Sink
	if nilSink.SpanRecorder(0) != nil || nilSink.Spans() != nil || nilSink.SpansEnabled() {
		t.Error("nil sink span accessors not zero-valued")
	}
	s := NewSink()
	if s.SpanRecorder(0) != nil {
		t.Error("sink without EnableSpans handed out a recorder")
	}
	s.EnableSpans(SpanConfig{Trees: 4})
	if !s.SpansEnabled() {
		t.Fatal("SpansEnabled = false after EnableSpans")
	}
	// Recorders are lazily created per index; negative indexes are nil.
	if s.SpanRecorder(-1) != nil {
		t.Error("negative recorder index returned non-nil")
	}
	r0, r2 := s.SpanRecorder(0), s.SpanRecorder(2)
	if r0 == nil || r2 == nil || r0 == r2 {
		t.Fatal("per-index recorders not distinct")
	}
	if again := s.SpanRecorder(0); again != r0 {
		t.Error("recorder index 0 not stable across calls")
	}
	// Merged spans are sorted by start time across recorders.
	r2.Finish(r2.Start(SpanRead, 2, 5, 0, 1), 6)
	r0.Finish(r0.Start(SpanWrite, 0, 1, 0, 1), 2)
	r0.Finish(r0.Start(SpanWrite, 0, 9, 0, 1), 10)
	all := s.Spans()
	if len(all) != 3 {
		t.Fatalf("Spans returned %d trees, want 3", len(all))
	}
	if all[0].T != 1 || all[1].T != 5 || all[2].T != 9 {
		t.Errorf("merged spans out of order: %v %v %v", all[0].T, all[1].T, all[2].T)
	}
	if s.SpansDropped() != 0 {
		t.Errorf("SpansDropped = %d, want 0", s.SpansDropped())
	}
}

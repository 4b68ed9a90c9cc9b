package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("ops") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	var s *Sink
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", nil).Observe(1)
	s.Counter("x").Add(2)
	s.Histogram("x").Observe(3)
	s.Gauge("x").Add(1)
	snap := s.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil sink snapshot not empty")
	}
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram not a no-op")
	}
	var g *Gauge
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge not a no-op")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Bounds 1, 10, 100: a value equal to a bound lands in that bound's
	// bucket; above the last bound lands in overflow.
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1.0, 1.0001, 10, 99, 100, 101} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	want := map[float64]int64{1: 2, 10: 2, 100: 2}
	for _, b := range s.Buckets {
		if b.Count != want[b.UpperBound] {
			t.Errorf("bucket le=%g count = %d, want %d", b.UpperBound, b.Count, want[b.UpperBound])
		}
		delete(want, b.UpperBound)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
	if s.Max != 101 {
		t.Errorf("max = %g, want 101 (overflow observation)", s.Max)
	}
	if got := s.Sum; math.Abs(got-312.5001) > 1e-9 {
		t.Errorf("sum = %g, want 312.5001", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	// 100 observations uniform over (0,1] in the single bucket [0,1]:
	// interpolation should put pN near N/100.
	h := NewHistogram([]float64{1})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.50}, {0.95, 0.95}, {0.99, 0.99}, {1.0, 1.0},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("q%.0f = %g, want %g", tc.q*100, got, tc.want)
		}
	}
	if h.Quantile(0) != 0 || h.Quantile(-1) != 0 {
		t.Error("non-positive quantile should be 0")
	}

	// Quantiles never exceed the observed max, even mid-bucket.
	h2 := NewHistogram([]float64{100})
	h2.Observe(3)
	if got := h2.Quantile(0.99); got != 3 {
		t.Errorf("q99 of single obs = %g, want clamped to max 3", got)
	}

	// A rank beyond the last bound resolves to the max.
	h3 := NewHistogram([]float64{1})
	h3.Observe(0.5)
	h3.Observe(50)
	if got := h3.Quantile(0.99); got != 50 {
		t.Errorf("overflow q99 = %g, want 50", got)
	}

	// Empty histogram.
	if NewHistogram(nil).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
}

func TestHistogramSnapshotPrecomputedQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	s := h.Snapshot()
	if s.P50 != h.Quantile(0.50) || s.P95 != h.Quantile(0.95) || s.P99 != h.Quantile(0.99) {
		t.Error("snapshot quantiles disagree with live quantiles")
	}
	if s.P50 >= s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles not ordered: p50=%g p95=%g p99=%g", s.P50, s.P95, s.P99)
	}
	if got := s.Mean(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("mean = %g, want 0.75", got)
	}
}

// TestHistogramConcurrentObserve: Observe takes no lock, so four observers
// at once must lose no count, no part of the sum (powers of two add
// exactly in any order) and not the maximum, while a reader snapshots.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(int(1) << (i % 4))) // 1, 2, 4, 8 (overflow)
				if s := h.Snapshot(); s.Max > 8 || s.Count < int64(i+1) {
					t.Errorf("snapshot mid-run: count %d after %d of this observer's, max %v", s.Count, i+1, s.Max)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 4000 || s.Sum != 1000*(1+2+4+8) || s.Max != 8 {
		t.Errorf("count %d sum %v max %v, want 4000, 15000, 8", s.Count, s.Sum, s.Max)
	}
	for _, b := range s.Buckets {
		if b.Count != 1000 {
			t.Errorf("bucket le=%v holds %d, want 1000", b.UpperBound, b.Count)
		}
	}
}

// TestGaugeConcurrentAdd: a gauge update takes no lock, so four adders at
// once must lose no increment (small integers add exactly in float64),
// and Set/Value must round-trip a value exactly.
func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-0.5)
				_ = g.Value()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 2000 {
		t.Errorf("gauge after 4000 (+1, -0.5) pairs = %v, want 2000", got)
	}
	for _, v := range []float64{0, -3.25, 1e-9, math.MaxFloat64} {
		g.Set(v)
		if got := g.Value(); got != v {
			t.Errorf("Set(%v) then Value = %v", v, got)
		}
	}
}

func TestSnapshotIsValueCopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("writes").Add(7)
	r.Histogram("lat", nil).Observe(0.001)
	snap := r.Snapshot()

	// Updates after the snapshot must not be visible in it.
	r.Counter("writes").Add(100)
	r.Histogram("lat", nil).Observe(5)
	r.Counter("new").Inc()
	if snap.Counters["writes"] != 7 {
		t.Errorf("snapshot counter changed to %d", snap.Counters["writes"])
	}
	if _, ok := snap.Counters["new"]; ok {
		t.Error("snapshot grew a metric created later")
	}
	if snap.Histograms["lat"].Count != 1 {
		t.Errorf("snapshot histogram count changed to %d", snap.Histograms["lat"].Count)
	}

	// Mutating the snapshot must not touch the registry.
	snap.Counters["writes"] = -1
	if r.Counter("writes").Value() != 107 {
		t.Error("snapshot mutation leaked into registry")
	}
}

func TestWriteJSONAndPrometheus(t *testing.T) {
	s := NewSink()
	s.Counter("core.writes").Add(3)
	s.Gauge("pending").Set(1.5)
	s.Histogram("core.write_latency").Observe(0.002)
	s.Histogram("core.write_latency").Observe(0.004)

	var jb bytes.Buffer
	if err := s.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["core.writes"] != 3 || back.Histograms["core.write_latency"].Count != 2 {
		t.Errorf("round-tripped snapshot lost data: %+v", back)
	}

	var pb bytes.Buffer
	if err := s.Snapshot().WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	text := pb.String()
	for _, want := range []string{
		"# TYPE eplog_core_writes counter",
		"eplog_core_writes 3",
		"# TYPE eplog_pending gauge",
		"# TYPE eplog_core_write_latency histogram",
		`eplog_core_write_latency_bucket{le="+Inf"} 2`,
		"eplog_core_write_latency_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

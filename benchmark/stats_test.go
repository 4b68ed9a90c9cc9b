package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// The expected values are statistics.quantiles(vs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{1, 1.5, 2}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.vs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("relSpread = %v, want (4.5-1.5)/3", got)
	}
}

func TestLogHistQuantileWithinBucketError(t *testing.T) {
	for ns := int64(0); ns < 1<<20; ns += 37 {
		i := histIndex(ns)
		if up := histUpper(i); ns > up || (i > 0 && ns <= histUpper(i-1)) {
			t.Fatalf("%d ns landed in bucket %d with bounds (%d, %d]", ns, i, histUpper(i-1), up)
		}
	}
	var h logHist
	before := h.snapshot()
	for ns := int64(1000); ns <= 100_000; ns += 1000 { // 100 samples, p99 = 99 µs
		h.observe(ns)
	}
	got := float64(histQuantile(before, h.snapshot(), 0.99))
	if math.Abs(got-99_000)/99_000 > 0.13 {
		t.Errorf("p99 = %v ns, want 99000 within a bucket", got)
	}
	if got := histQuantile(before, before, 0.99); got != 0 {
		t.Errorf("quantile of an empty window = %d, want 0", got)
	}
}

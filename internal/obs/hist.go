package obs

import (
	"math"
	"sync/atomic"
)

// DefBuckets are the default histogram bounds: a base-4 exponential ladder
// from 1µs to ~268s of virtual time, wide enough to span a flash page
// program (~180µs), an HDD positioning delay (~8ms), and a multi-second
// parity commit in one histogram.
var DefBuckets = defBuckets()

func defBuckets() []float64 {
	bounds := make([]float64, 0, 15)
	for b := 1e-6; b < 300; b *= 4 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Histogram is a fixed-bucket distribution of non-negative observations.
// An observation larger than the last bound lands in an implicit overflow
// bucket that only the count, sum, and max describe. Observe takes no lock
// (one is made per device I/O, from every shard at once): the buckets are
// atomic counters and sum and max are float64 bits advanced by CAS. A
// reader racing an Observe may see its bucket before its sum; the count is
// always the buckets' total.
type Histogram struct {
	bounds []float64      // ascending upper bounds; immutable
	counts []atomic.Int64 // one per bound
	over   atomic.Int64   // observations beyond the last bound
	sum    atomic.Uint64  // float64 bits
	max    atomic.Uint64  // float64 bits
}

// NewHistogram returns a histogram with the given ascending upper bounds;
// nil selects DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(h.bounds) {
		h.over.Add(1)
		return
	}
	h.counts[lo].Add(1)
}

// load copies the bucket counters out and returns them with their total
// (overflow included) and the maximum seen.
func (h *Histogram) load() (counts []int64, count int64, max float64) {
	counts = make([]int64, len(h.counts))
	count = h.over.Load()
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		count += counts[i]
	}
	return counts, count, math.Float64frombits(h.max.Load())
}

// Count returns the number of observations; zero on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	count := h.over.Load()
	for i := range h.counts {
		count += h.counts[i].Load()
	}
	return count
}

// Bucket is one histogram bucket: the count of observations at or below
// UpperBound and above the previous bound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is a value copy of a histogram, with the headline
// quantiles precomputed. Buckets with zero observations are omitted from
// Buckets; Bounds preserves the full bucket grid so exposition formats
// that need every bound (Prometheus) can reconstruct zero-count buckets.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Max     float64   `json:"max"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
	P99     float64   `json:"p99"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []Bucket  `json:"buckets,omitempty"`
}

// Mean returns the mean observation, or zero for an empty snapshot.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot captures the histogram state as a value copy.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	counts, count, max := h.load()
	s := HistogramSnapshot{
		Count:  count,
		Sum:    math.Float64frombits(h.sum.Load()),
		Max:    max,
		Bounds: append([]float64(nil), h.bounds...),
	}
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, Bucket{UpperBound: h.bounds[i], Count: c})
		}
	}
	s.P50 = quantile(0.50, h.bounds, counts, count, max)
	s.P95 = quantile(0.95, h.bounds, counts, count, max)
	s.P99 = quantile(0.99, h.bounds, counts, count, max)
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// within the containing bucket; observations beyond the last bound resolve
// to the maximum seen. Zero on an empty or nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts, count, max := h.load()
	return quantile(q, h.bounds, counts, count, max)
}

// quantile is Quantile over one loaded copy of the counters.
func quantile(q float64, bounds []float64, counts []int64, count int64, max float64) float64 {
	if count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	cum := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) < rank {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		upper := bounds[i]
		// Interpolate between the bucket's bounds by the rank's position
		// within the bucket's own observations.
		frac := (rank - float64(cum-c)) / float64(c)
		v := lower + frac*(upper-lower)
		if v > max {
			v = max
		}
		return v
	}
	// The rank lives in the overflow bucket.
	return max
}

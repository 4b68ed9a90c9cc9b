package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the samples at
// or below it. It returns 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle of vs (mean of the two middle values for an
// even count); vs is not modified.
func median(vs []float64) float64 {
	_, q2, _ := quartiles(vs)
	return q2
}

// quartiles returns the first, second and third quartile of vs by the
// method of Python's statistics.quantiles(vs, n=4) (exclusive), which is
// what the PR driver applies to the ten-seed spread check. Fewer than two
// values give that value three times.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// 1-based position i*(n+1)/4, linearly interpolated, clamped.
		j := i * (n + 1) / 4
		d := i*(n+1) - j*4
		if j < 1 {
			j, d = 1, 0
		} else if j > n-1 {
			j, d = n-1, 4
		}
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile distance as a share of the median, the
// quantity the benchmark's bounds are judged against.
func relSpread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// logHist is a fixed-size log-bucketed histogram of nanosecond durations:
// 8 sub-buckets per power of two, so a quantile read from it is within
// about 6 % of the true value. Buckets are atomic; it is cumulative, and a
// window's histogram is the difference of two snapshots.
type logHist struct {
	b [histBuckets]atomic.Int64
}

const histBuckets = 64 * 8

func histIndex(ns int64) int {
	if ns < 8 {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1 // position of the top bit, >= 3
	return (e-2)*8 + int(ns>>(e-3))&7
}

// histUpper is the largest duration that lands in bucket i.
func histUpper(i int) int64 {
	if i < 8 {
		return int64(i)
	}
	e := i/8 + 2
	return (int64(8+i%8)+1)<<(e-3) - 1
}

func (h *logHist) observe(ns int64) { h.b[histIndex(ns)].Add(1) }

func (h *logHist) snapshot() []int64 {
	out := make([]int64, histBuckets)
	for i := range h.b {
		out[i] = h.b[i].Load()
	}
	return out
}

// histQuantile reads the q-quantile (upper bucket bound) of after-before.
func histQuantile(before, after []int64, q float64) int64 {
	var total int64
	for i := range after {
		total += after[i] - at(before, i)
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	var seen int64
	for i := range after {
		seen += after[i] - at(before, i)
		if seen >= rank {
			return histUpper(i)
		}
	}
	return histUpper(len(after) - 1)
}

func at(s []int64, i int) int64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

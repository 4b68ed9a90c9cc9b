// Package obs is EPLog's dependency-free observability layer: a metrics
// registry (counters, gauges, fixed-bucket latency histograms with
// p50/p95/p99/max) plus per-shard recorders of causal span trees (span.go),
// the one per-operation record.
//
// Everything is built on the standard library and is safe for concurrent
// use. Latencies are virtual seconds, matching the device simulators'
// virtual-time accounting. All handle types (*Counter, *Gauge, *Histogram,
// *Sink, *SpanRecorder, *Span) are nil-safe: methods on a nil receiver are
// no-ops, so instrumented code needs no "is observability enabled?"
// branches. Counters, gauges and histograms take no lock on update.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down: one float64 held as its bits
// in an atomic word, so Set is a store and Add a CAS loop (Histogram's
// idiom); no update takes a lock.
type Gauge struct {
	v atomic.Uint64 // float64 bits
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Add increments the gauge by v. No-op on a nil receiver.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current gauge value; zero on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Registry is a named collection of metrics. Metric handles are created on
// first use and live for the registry's lifetime; Snapshot produces a
// value copy of everything.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. Returns nil on
// a nil registry (the handle stays safely usable).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds if needed (nil bounds selects DefBuckets). The bounds of an
// existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value. The result is a deep
// value copy: retaining it across subsequent metric updates is safe, and
// mutating it does not affect the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time value copy of a registry's metrics.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// WriteJSON writes the snapshot as an indented JSON document.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// promName maps a dotted metric name to Prometheus exposition syntax.
func promName(name string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return "eplog_" + mapped
}

// escapeLabelValue escapes a Prometheus label value per the text
// exposition format: backslash, double quote, and newline become escape
// sequences.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format: HELP and TYPE lines per metric, cumulative histogram buckets
// over the full bucket grid (zero-count buckets included) ending in an
// +Inf bound, and _sum/_count series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s EPLog metric %s\n# TYPE %s counter\n%s %d\n",
			pn, escapeLabelValue(name), pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s EPLog metric %s\n# TYPE %s gauge\n%s %g\n",
			pn, escapeLabelValue(name), pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s EPLog metric %s\n# TYPE %s histogram\n",
			pn, escapeLabelValue(name), pn); err != nil {
			return err
		}
		// Emit the full cumulative grid. Snapshots omit zero-count buckets
		// from Buckets but keep every bound in Bounds; older snapshots
		// (deserialized JSON) may lack Bounds, in which case only the
		// populated buckets are emitted — still cumulative and still
		// capped by +Inf.
		bounds := h.Bounds
		if len(bounds) == 0 {
			bounds = make([]float64, len(h.Buckets))
			for i, b := range h.Buckets {
				bounds[i] = b.UpperBound
			}
		}
		cum, bi := int64(0), 0
		for _, ub := range bounds {
			for bi < len(h.Buckets) && h.Buckets[bi].UpperBound <= ub {
				cum += h.Buckets[bi].Count
				bi++
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
				pn, escapeLabelValue(fmt.Sprintf("%g", ub)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

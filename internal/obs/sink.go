package obs

import "sync"

// Sink bundles a metrics registry and (when enabled) a set of causal span
// recorders, one per engine shard: the single handle instrumented
// components take. A nil *Sink disables observability at zero cost —
// every method is nil-safe and the metric handles it hands out are
// themselves nil-safe no-ops.
type Sink struct {
	reg *Registry

	spanMu   sync.Mutex
	spanCfg  SpanConfig
	spans    bool
	spanRecs []*SpanRecorder // index = engine shard
}

// DefaultRingEvents is accepted and ignored: it sized the retired event
// ring, and benchmark/ still passes it to NewSink.
const DefaultRingEvents = 4096

// NewSink returns a sink with a fresh registry. Any argument is accepted
// and ignored (it sized the retired event ring).
func NewSink(_ ...int) *Sink {
	return &Sink{reg: NewRegistry()}
}

// Counter returns the named counter handle; nil (a no-op handle) on a nil
// sink.
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.Counter(name)
}

// Gauge returns the named gauge handle.
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.Gauge(name)
}

// Histogram returns the named histogram handle with DefBuckets bounds.
func (s *Sink) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.Histogram(name, nil)
}

// Snapshot returns a value copy of the metrics registry.
func (s *Sink) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]HistogramSnapshot{},
		}
	}
	return s.reg.Snapshot()
}

// EnableSpans turns on causal span recording with the given config.
// Recorders are created lazily per shard index by SpanRecorder. No-op on
// a nil sink.
func (s *Sink) EnableSpans(cfg SpanConfig) {
	if s == nil {
		return
	}
	s.spanMu.Lock()
	s.spanCfg = cfg.withDefaults()
	s.spans = true
	s.spanMu.Unlock()
}

// SpansEnabled reports whether EnableSpans has been called.
func (s *Sink) SpansEnabled() bool {
	if s == nil {
		return false
	}
	s.spanMu.Lock()
	defer s.spanMu.Unlock()
	return s.spans
}

// SpanRecorder returns the span recorder for the given shard index,
// creating it on first use. Returns nil — a no-op recorder — when spans
// are disabled, the sink is nil, or idx is negative.
func (s *Sink) SpanRecorder(idx int) *SpanRecorder {
	if s == nil || idx < 0 {
		return nil
	}
	s.spanMu.Lock()
	defer s.spanMu.Unlock()
	if !s.spans {
		return nil
	}
	for len(s.spanRecs) <= idx {
		s.spanRecs = append(s.spanRecs, nil)
	}
	if s.spanRecs[idx] == nil {
		s.spanRecs[idx] = newSpanRecorder(s.spanCfg)
	}
	return s.spanRecs[idx]
}

// Spans returns the retained span trees from every recorder, merged and
// sorted by start time. Safe to call while recorders are in use.
func (s *Sink) Spans() []SpanSnapshot {
	if s == nil {
		return nil
	}
	s.spanMu.Lock()
	recs := append([]*SpanRecorder(nil), s.spanRecs...)
	s.spanMu.Unlock()
	var out []SpanSnapshot
	for _, r := range recs {
		out = append(out, r.Snapshot()...)
	}
	SortSpans(out)
	return out
}

// SpansDropped reports how many completed span trees fell out of the
// bounded per-shard rings, summed across recorders.
func (s *Sink) SpansDropped() uint64 {
	if s == nil {
		return 0
	}
	s.spanMu.Lock()
	recs := append([]*SpanRecorder(nil), s.spanRecs...)
	s.spanMu.Unlock()
	var n uint64
	for _, r := range recs {
		n += r.Dropped()
	}
	return n
}

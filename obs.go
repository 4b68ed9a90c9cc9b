package eplog

import (
	"io"
	"strconv"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// MetricsSnapshot is a point-in-time value copy of an array's metrics:
// counters, gauges, and latency histograms with precomputed p50/p95/p99.
// Snapshots are safe to retain; later array activity does not alter them.
// WriteJSON and WritePrometheus serialize a snapshot.
type MetricsSnapshot = obs.Snapshot

// DefaultTraceEvents is accepted and ignored as a size: it sized the
// retired event ring, and a Config.TraceEvents of it still turns on the
// metrics registry.
const DefaultTraceEvents = obs.DefaultRingEvents

// DefaultSpanTrees is a reasonable Config.Spans value: enough retained
// trees per shard to cover recent history without unbounded memory.
const DefaultSpanTrees = obs.DefaultSpanTrees

// Metrics returns a snapshot of the array's metrics registry. It is empty
// unless Config.TraceEvents or Config.Spans enabled observability. It is
// safe to call while other goroutines use the array: counters, gauges and
// histograms update atomically and the registry's map carries its own
// lock, so a snapshot is a value copy.
func (a *Array) Metrics() MetricsSnapshot { return a.sink.Snapshot() }

// SpanTree is one completed causal span tree from the flight recorder: an
// operation root (write, read, commit, rebuild) with nested phase spans
// and per-device I/O leaves (under folds and rebuilds at one shard only).
// Times are virtual-time
// seconds; Dur is the span's extent. Trees are value copies — safe to
// retain and serialize.
type SpanTree = obs.SpanSnapshot

// WriteSpans writes span trees as JSON Lines, one complete tree per line.
func WriteSpans(w io.Writer, spans []SpanTree) error {
	return obs.WriteSpanJSONL(w, spans)
}

// Spans returns the retained causal span trees across all shards, ordered
// by start time. It is empty unless Config.Spans enabled span tracing.
// Safe to call concurrently with array activity: trees are published to
// the per-shard rings only when complete, and Spans deep-copies them
// under the recorders' locks.
func (a *Array) Spans() []SpanTree { return a.sink.Spans() }

// SpansDropped reports how many recorded span trees have been evicted
// from the flight-recorder rings to make room for newer ones.
func (a *Array) SpansDropped() uint64 { return a.sink.SpansDropped() }

// observer is implemented by the simulated devices (SSD, HDD) that can
// push their internal activity — GC runs, wear leveling, seek/stream
// classification — into a sink.
type observer interface {
	SetObserver(sink *obs.Sink, dev int)
}

// instrument converts a public device slice for the internal packages,
// wrapping each device with per-device op/byte/latency metrics and
// attaching simulator observers. With a nil sink it degrades to a plain
// conversion.
func instrument(sink *obs.Sink, role string, devs []BlockDevice) []device.Dev {
	if sink == nil {
		return toInternal(devs)
	}
	out := make([]device.Dev, len(devs))
	for i, d := range devs {
		out[i] = instrumentOne(sink, role, i, d)
	}
	return out
}

func instrumentOne(sink *obs.Sink, role string, idx int, d BlockDevice) device.Dev {
	if o, ok := d.(observer); ok {
		o.SetObserver(sink, idx)
	}
	return device.NewTraced(d, role+strconv.Itoa(idx), sink)
}

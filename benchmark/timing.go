package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/server"
)

// span is one traced interval at a layer boundary, as written to the
// trace JSONL. Times are Unix nanoseconds, so client and server spans of
// one run share a clock. A device span cannot be tied to the request that
// caused it from outside the program (workers and the background
// committer issue them), so spans name their layer, not a parent.
type span struct {
	Name  string `json:"name"`          // client.request, core.write_batch, device.write, ...
	Start int64  `json:"start_ns"`      // Unix ns
	End   int64  `json:"end_ns"`        // Unix ns
	ID    uint64 `json:"id,omitempty"`  // client.request: wire request ID
	Op    string `json:"op,omitempty"`  // client.request: read | write
	Ops   int    `json:"ops,omitempty"` // core.*: requests in the batch
	Dev   string `json:"dev,omitempty"` // device.*: main3, log0, ...
}

// maxSpans bounds the spans one process keeps: the aggregates cover every
// call, the JSONL file the first maxSpans of them.
const maxSpans = 200_000

// spanLog is a bounded in-memory span list, written out when the run ends.
// It records nothing until enabled, so that set-up traffic does not use up
// the bound before the measured window starts.
type spanLog struct {
	on    atomic.Bool
	seen  atomic.Int64 // spans offered while on
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	if !l.on.Load() || l.seen.Add(1) > maxSpans {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// appendTo appends the spans to path as JSON lines.
func (l *spanLog) appendTo(path string) (n int, dropped int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return len(l.spans), max(l.seen.Load()-maxSpans, 0), f.Close()
}

// layerTotals is the cumulative cost of one kind of call at a boundary.
type layerTotals struct {
	Calls  atomic.Int64
	Ops    atomic.Int64
	BusyNs atomic.Int64
}

func (t *layerTotals) add(ops int, ns int64) {
	t.Calls.Add(1)
	t.Ops.Add(int64(ops))
	t.BusyNs.Add(ns)
}

type totalsSnap struct {
	Calls  int64 `json:"calls"`
	Ops    int64 `json:"ops"`
	BusyNs int64 `json:"busy_ns"`
}

func (t *layerTotals) snap() totalsSnap {
	return totalsSnap{Calls: t.Calls.Load(), Ops: t.Ops.Load(), BusyNs: t.BusyNs.Load()}
}

func (a totalsSnap) sub(b totalsSnap) totalsSnap {
	return totalsSnap{Calls: a.Calls - b.Calls, Ops: a.Ops - b.Ops, BusyNs: a.BusyNs - b.BusyNs}
}

// tracer owns the traced child's harness-side instruments: totals per
// boundary, the SSD write-time histogram, the 1 ms state sampler, and the
// span log.
type tracer struct {
	log spanLog

	ssdIO, logIO          layerTotals // device calls, main array / log devices
	ssdWrite              logHist     // wall time inside one SSD write call
	writeBatch, readBatch layerTotals
	commitCalls           layerTotals // explicit Flush/Commit from the server

	// 1 ms samples of the server's gate and occupancy gauges.
	samples, gateClosed atomic.Int64
	writeInflight       atomic.Int64
	readInflight        atomic.Int64

	quit chan struct{}
	done chan struct{}
}

type traceSnap struct {
	SSD, Log              totalsSnap
	SSDWrite              []int64
	WriteBatch, ReadBatch totalsSnap
	CommitCalls           totalsSnap
	Samples, GateClosed   int64
	WriteInflight         int64
	ReadInflight          int64
}

func newTracer(sink *obs.Sink) *tracer {
	t := &tracer{quit: make(chan struct{}), done: make(chan struct{})}
	go t.sample(sink.Gauge("net.gate_closed"), sink.Gauge("net.write_inflight"), sink.Gauge("net.read_inflight"))
	return t
}

func (t *tracer) sample(gate, wr, rd *obs.Gauge) {
	defer close(t.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.quit:
			return
		case <-tick.C:
			t.samples.Add(1)
			t.gateClosed.Add(int64(gate.Value()))
			t.writeInflight.Add(int64(wr.Value()))
			t.readInflight.Add(int64(rd.Value()))
		}
	}
}

func (t *tracer) stop() {
	close(t.quit)
	<-t.done
}

func (t *tracer) snapshot() *traceSnap {
	return &traceSnap{
		SSD: t.ssdIO.snap(), Log: t.logIO.snap(),
		SSDWrite:   t.ssdWrite.snapshot(),
		WriteBatch: t.writeBatch.snap(), ReadBatch: t.readBatch.snap(),
		CommitCalls: t.commitCalls.snap(),
		Samples:     t.samples.Load(), GateClosed: t.gateClosed.Load(),
		WriteInflight: t.writeInflight.Load(),
		ReadInflight:  t.readInflight.Load(),
	}
}

// timedDev is the harness-owned device wrapper of the traced run. core.New
// puts its device.Locked outermost, so timedDev sits inside that mutex:
// it times the call into the device stack (Traced counters, Faulty,
// simulator), not the wait for the mutex.
type timedDev struct {
	inner device.Dev
	name  string
	t     *tracer
	tot   *layerTotals
	hist  *logHist // write-time histogram; nil for log devices
}

var _ device.Dev = (*timedDev)(nil)

func (t *tracer) wrapDev(inner device.Dev, name string, main bool) *timedDev {
	d := &timedDev{inner: inner, name: name, t: t, tot: &t.logIO}
	if main {
		d.tot, d.hist = &t.ssdIO, &t.ssdWrite
	}
	return d
}

// Name keeps device.DevName resolving through the wrapper.
func (d *timedDev) Name() string { return d.name }

func (d *timedDev) record(kind string, start time.Time, write bool) {
	end := time.Now()
	ns := end.Sub(start).Nanoseconds()
	d.tot.add(1, ns)
	if write && d.hist != nil {
		d.hist.observe(ns)
	}
	d.t.log.add(span{Name: kind, Start: start.UnixNano(), End: end.UnixNano(), Dev: d.name})
}

func (d *timedDev) ReadChunk(idx int64, p []byte) error {
	defer d.record("device.read", time.Now(), false)
	return d.inner.ReadChunk(idx, p)
}

func (d *timedDev) WriteChunk(idx int64, p []byte) error {
	defer d.record("device.write", time.Now(), true)
	return d.inner.WriteChunk(idx, p)
}

func (d *timedDev) ReadChunkAt(start float64, idx int64, p []byte) (float64, error) {
	defer d.record("device.read", time.Now(), false)
	return d.inner.ReadChunkAt(start, idx, p)
}

func (d *timedDev) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	defer d.record("device.write", time.Now(), true)
	return d.inner.WriteChunkAt(start, idx, p)
}

func (d *timedDev) Trim(idx, n int64) error {
	defer d.record("device.trim", time.Now(), false)
	return d.inner.Trim(idx, n)
}

func (d *timedDev) Chunks() int64  { return d.inner.Chunks() }
func (d *timedDev) ChunkSize() int { return d.inner.ChunkSize() }

// timedEngine is the harness-owned server.Engine wrapper of the traced
// run: it times the calls the server makes into the engine. Everything
// that only reads engine state is forwarded by embedding.
type timedEngine struct {
	*core.EPLog
	t *tracer
}

var _ server.Engine = (*timedEngine)(nil)

func (t *tracer) wrapEngine(e *core.EPLog) *timedEngine { return &timedEngine{EPLog: e, t: t} }

func (e *timedEngine) record(kind string, tot *layerTotals, ops int, start time.Time) {
	end := time.Now()
	tot.add(ops, end.Sub(start).Nanoseconds())
	e.t.log.add(span{Name: kind, Start: start.UnixNano(), End: end.UnixNano(), Ops: ops})
}

func (e *timedEngine) WriteBatch(ops []core.BatchOp) {
	defer e.record("core.write_batch", &e.t.writeBatch, len(ops), time.Now())
	e.EPLog.WriteBatch(ops)
}

func (e *timedEngine) ReadBatch(ops []core.ReadOp) {
	defer e.record("core.read_batch", &e.t.readBatch, len(ops), time.Now())
	e.EPLog.ReadBatch(ops)
}

func (e *timedEngine) Flush() error {
	defer e.record("core.flush", &e.t.commitCalls, 0, time.Now())
	return e.EPLog.Flush()
}

func (e *timedEngine) Commit() error {
	defer e.record("core.commit", &e.t.commitCalls, 0, time.Now())
	return e.EPLog.Commit()
}

// Package server is the EPLog network block service: it speaks the wire
// protocol over TCP and drives the sharded engine underneath.
//
// Each connection gets a goroutine pair — a reader decoding frames and a
// writer encoding responses — and requests pipeline freely: many request
// IDs in flight per connection, responses completing out of order. A
// connection's READs run to completion on its reader goroutine, one
// core.ReadBatch per burst the socket delivered, in arrival order; read
// parallelism comes from connections. Writes and flushes from ALL
// connections funnel through one dispatcher that coalesces them into
// engine batches (core.WriteBatch), so unrelated clients share a shard
// lock acquisition and a log stripe; reads overtake queued writes, and a
// FLUSH frame is a batch barrier covering every write the server read
// before it. After Listen the server runs the accept loop and the write
// dispatcher, nothing else; no goroutine is started per request or batch,
// and no object is allocated per request: decoded frames and responses
// cross goroutines by value (DESIGN.md §12.2, §13.3).
//
// Parity commits stay off the write path: after each dispatcher batch the
// server calls core.FoldPressured(HighWater), which hands the shards whose
// own fill has reached the mark to the engine's background group
// committer. The only thing that ever blocks a write is the engine's
// dirty-window cond, for writers of one shard at a full window; readers
// are never parked by write pressure. Memory is bounded by QueueDepth per
// connection: a client that pipelines deeper stops being read and TCP flow
// control pushes back.
//
// Close drains gracefully: stop accepting, kick every reader, finish all
// in-flight requests and flush their responses, then stop the dispatcher
// and (when the server owns the store) Close the engine.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/store"
	"github.com/eplog/eplog/internal/wire"
)

// Engine is the server's view of the array. *core.EPLog satisfies it.
type Engine interface {
	WriteBatch(ops []core.BatchOp)
	ReadBatch(ops []core.ReadOp)
	ReadChunks(start float64, lba int64, p []byte) (float64, error)
	Flush() error
	FoldPressured(threshold float64)
	Chunks() int64
	ChunkSize() int
	Geometry() store.Geometry
	WritePressure() float64
	PendingLogStripes() int
	NumShards() int
	Close() error
}

// Options parameterizes a Server. The zero value selects the defaults.
type Options struct {
	// MaxPayload bounds per-frame payloads (<= 0 selects
	// wire.DefaultMaxPayload). It caps both decode allocation and the
	// largest READ a client may ask for.
	MaxPayload int
	// BatchMax bounds how many frames one engine batch coalesces — the
	// dispatcher's write/flush frames, a connection's READs (<= 0 selects
	// 64).
	BatchMax int
	// QueueDepth bounds in-flight requests per connection; a client
	// pipelining deeper stops being read until responses drain (<= 0
	// selects 128).
	QueueDepth int
	// WriteQueue is the capacity of the write/flush dispatch queue
	// between connection readers and the write dispatcher (<= 0 selects
	// 1024). Soak and bench sweep it to trade arrival buffering against
	// memory.
	WriteQueue int
	// WritevMax bounds how many completed response frames one connection
	// writer coalesces into a single vectored write (net.Buffers/writev);
	// <= 0 selects 64. 1 degenerates to one write per frame.
	WritevMax int
	// BatchAge is the write dispatcher's adaptive flush linger bound: once
	// a batch has its first op and the queue goes empty, the dispatcher
	// keeps collecting up to BatchAge — but only while the occupancy gauge
	// says more writes are in flight than it holds; an idle server flushes
	// immediately. Reads never linger: a burst is what the socket held. 0
	// selects 200µs; negative disables lingering (flush as soon as the
	// queue is empty).
	BatchAge time.Duration
	// HighWater is the shard fill (the per-shard term of
	// core.WritePressure) at which that shard's background parity fold
	// starts; the server checks it after every write batch (<= 0 selects
	// 0.85).
	HighWater float64
	// LowWater is accepted and ignored: it was the reopen mark of the
	// socket-read gate this server no longer has, and stays declared only
	// until benchmark/stack_test.go stops setting it.
	LowWater float64
	// DrainTimeout bounds the graceful drain in Close; connections still
	// alive after it are force-closed (<= 0 selects 5s).
	DrainTimeout time.Duration
	// Sink receives the server's net.* metrics and spans; nil disables.
	Sink *obs.Sink
	// SpanShard is the span-recorder index for the net phase. Use the
	// engine's shard count so net spans get their own recorder ring next
	// to the per-shard engine recorders.
	SpanShard int
	// CloseStore makes Close also Close the engine after the drain.
	CloseStore bool
}

func (o Options) withDefaults() Options {
	if o.MaxPayload <= 0 {
		o.MaxPayload = wire.DefaultMaxPayload
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 64
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 128
	}
	if o.WriteQueue <= 0 {
		o.WriteQueue = 1024
	}
	if o.WritevMax <= 0 {
		o.WritevMax = 64
	}
	if o.BatchAge == 0 {
		o.BatchAge = 200 * time.Microsecond
	}
	if o.HighWater <= 0 {
		o.HighWater = 0.85
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// request is one accepted write or flush frame on its way through the
// dispatcher, still owning its decoded payload; it crosses writeQ by value.
type request struct {
	c *conn
	f wire.Frame
}

// Server is a running block service over one listener.
type Server struct {
	opts   Options
	eng    Engine
	csize  int
	chunks int64

	ln         net.Listener
	quit       chan struct{}
	acceptDone chan struct{}

	// writeQ carries writes and flushes in socket-arrival order to the
	// write dispatcher.
	writeQ       chan request
	dispatchDone chan struct{}

	// Dispatcher-owned scratch for runWrites, cleared after each run.
	writeOps   []core.BatchOp
	writeSpans []*obs.Span

	connMu   sync.Mutex
	conns    map[*conn]struct{}
	draining bool
	connWG   sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	// Flight recorder: net.* metrics and the net span phase.
	rec        *obs.SpanRecorder
	cConns     *obs.Counter
	gConns     *obs.Gauge
	cFramesIn  *obs.Counter
	cFramesOut *obs.Counter
	cBytesIn   *obs.Counter
	cBytesOut  *obs.Counter
	cReads     *obs.Counter
	cWrites    *obs.Counter
	cFlushes   *obs.Counter
	cStats     *obs.Counter
	cBadReq    *obs.Counter
	cErrs      *obs.Counter
	cBatches   *obs.Counter
	hBatchOps  *obs.Histogram
	hConnOps   *obs.Histogram
	// Read-batching and vectored-writer telemetry: read batches entering
	// the engine, their op counts, vectored writes issued, and the two
	// occupancy gauges — writes queued or in the dispatcher (which drives
	// its adaptive flush policy) and reads inside the engine.
	cReadBatches   *obs.Counter
	hReadBatchOps  *obs.Histogram
	cWritev        *obs.Counter
	gWriteInflight *obs.Gauge
	gReadInflight  *obs.Gauge
}

// Listen starts a server on addr (host:port; ":0" picks a free port).
func Listen(addr string, eng Engine, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, eng, opts), nil
}

// Serve starts a server over an existing listener, which it owns from
// here on.
func Serve(ln net.Listener, eng Engine, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:         opts,
		eng:          eng,
		csize:        eng.ChunkSize(),
		chunks:       eng.Chunks(),
		ln:           ln,
		quit:         make(chan struct{}),
		acceptDone:   make(chan struct{}),
		writeQ:       make(chan request, opts.WriteQueue),
		dispatchDone: make(chan struct{}),
		conns:        make(map[*conn]struct{}),
	}
	sink := opts.Sink
	s.rec = sink.SpanRecorder(opts.SpanShard)
	s.cConns = sink.Counter("net.conns_total")
	s.gConns = sink.Gauge("net.conns_active")
	s.cFramesIn = sink.Counter("net.frames_in")
	s.cFramesOut = sink.Counter("net.frames_out")
	s.cBytesIn = sink.Counter("net.bytes_in")
	s.cBytesOut = sink.Counter("net.bytes_out")
	s.cReads = sink.Counter("net.ops.read")
	s.cWrites = sink.Counter("net.ops.write")
	s.cFlushes = sink.Counter("net.ops.flush")
	s.cStats = sink.Counter("net.ops.stat")
	s.cBadReq = sink.Counter("net.bad_requests")
	s.cErrs = sink.Counter("net.op_errors")
	s.cBatches = sink.Counter("net.batches")
	s.hBatchOps = sink.Histogram("net.batch_ops")
	s.hConnOps = sink.Histogram("net.conn_ops")
	s.cReadBatches = sink.Counter("net.read_batches")
	s.hReadBatchOps = sink.Histogram("net.read_batch_ops")
	s.cWritev = sink.Counter("net.writev_calls")
	s.gWriteInflight = sink.Gauge("net.write_inflight")
	s.gReadInflight = sink.Gauge("net.read_inflight")

	go s.dispatch()
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close drains the server: stop accepting, kick every connection's reader,
// finish in-flight requests and flush their responses (bounded by
// DrainTimeout, after which surviving connections are force-closed), stop
// the dispatcher, then Close the engine when CloseStore is set.
// Idempotent; every call returns the same error.
//
//eplog:wallclock the drain deadline and the reader kick are real-time by nature
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.quit)
		s.ln.Close()
		<-s.acceptDone

		// Kick every reader out of its blocking ReadFrame; conns that
		// register after this pick the kick up from s.draining.
		s.connMu.Lock()
		s.draining = true
		for c := range s.conns {
			c.nc.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()

		done := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(done)
		}()
		t := time.NewTimer(s.opts.DrainTimeout)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
			s.connMu.Lock()
			for c := range s.conns {
				c.nc.Close()
			}
			s.connMu.Unlock()
			<-done // the dispatcher still runs, so queued work finishes
		}

		// All producers are gone; draining the queue shuts the dispatcher
		// down.
		close(s.writeQ)
		<-s.dispatchDone
		if s.opts.CloseStore {
			s.closeErr = s.eng.Close()
		}
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.connWG.Add(1)
		go s.serveConn(nc)
	}
}

// dispatch is the single write dispatcher: it drains the cross-connection
// write queue into batches of up to BatchMax frames (blocking only for the
// first, then filling adaptively), splits each batch at FLUSH barriers,
// and runs the write runs through core.WriteBatch — one shard lock
// acquisition per touched shard for the whole run, however many
// connections contributed. After each batch it hands the shards the batch
// left at or above HighWater to the engine's background committer.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	batch := make([]request, 0, s.opts.BatchMax)
	for r := range s.writeQ {
		batch = s.fillAdaptive(append(batch[:0], r))
		s.runBatch(batch)
		clear(batch) // pin no connection and no payload past the run
		s.eng.FoldPressured(s.opts.HighWater)
	}
}

// fillAdaptive grows a batch whose first op the dispatcher already holds,
// implementing its adaptive flush policy. A batch flushes on the first of:
// batch-size (BatchMax reached), first-op age (BatchAge since filling
// began), or idle — the queue is empty and the occupancy gauge says no
// write beyond the batch in hand is in flight, so there is nothing to
// linger for. Whatever is immediately available is always taken without
// waiting; the linger only ever trades bounded latency on a *busy* server
// for larger batches.
//
//eplog:wallclock the first-op age bound is a real-time linger
func (s *Server) fillAdaptive(batch []request) []request {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for len(batch) < s.opts.BatchMax {
		select {
		case r, ok := <-s.writeQ:
			if !ok {
				return batch
			}
			batch = append(batch, r)
			continue
		default:
		}
		// Queue empty: flush when lingering is disabled, the age budget is
		// already ticking down to zero, or the server is idle (the gauge
		// counts admitted-but-unresponded writes, including the batch in
		// hand — nothing beyond it means nothing left to wait for).
		if s.opts.BatchAge <= 0 || int(s.gWriteInflight.Value()) <= len(batch) {
			return batch
		}
		if timer == nil {
			timer = time.NewTimer(s.opts.BatchAge)
		}
		select {
		case r, ok := <-s.writeQ:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// runBatch executes one dispatcher batch: contiguous WRITE runs become one
// engine batch; a FLUSH is a barrier (everything before it in the batch —
// and, by queue order, everything read from any socket before it — has
// entered the engine when Flush runs).
func (s *Server) runBatch(batch []request) {
	s.cBatches.Add(1)
	s.hBatchOps.Observe(float64(len(batch)))
	start := s.now()
	root := s.rec.Start(obs.SpanNetBatch, s.opts.SpanShard, start, 0, int64(len(batch)))
	for i := 0; i < len(batch); {
		if batch[i].f.ReqType() == wire.TFlush {
			r := &batch[i]
			i++
			s.cFlushes.Add(1)
			sp := root.Child(obs.SpanNet, s.opts.SpanShard, s.now(), 0, 0)
			sp.SetCause("flush")
			err := s.eng.Flush()
			sp.Close(s.now())
			if err != nil {
				s.respond(r, s.errFrame(&r.f, wire.StatusErr, err.Error()))
				continue
			}
			s.respond(r, wire.Frame{Type: wire.TFlush | wire.RespFlag, ReqID: r.f.ReqID})
			continue
		}
		j := i
		for j < len(batch) && batch[j].f.ReqType() == wire.TWrite {
			j++
		}
		s.runWrites(batch[i:j], root)
		i = j
	}
	s.rec.Finish(root, s.now())
}

// runWrites pushes one contiguous run of WRITE frames through the engine
// as a single batch and responds per op.
func (s *Server) runWrites(run []request, root *obs.Span) {
	ops, spans := s.writeOps[:0], s.writeSpans[:0]
	for i := range run {
		r := &run[i]
		n := int64(len(r.f.Payload) / s.csize)
		ops = append(ops, core.BatchOp{LBA: r.f.Arg, Data: r.f.Payload})
		sp := root.Child(obs.SpanNet, s.opts.SpanShard, s.now(), r.f.Arg, n)
		sp.SetCause("write")
		spans = append(spans, sp) //eplog:span-handoff closed in the response loop below
	}
	s.eng.WriteBatch(ops)
	end := s.now()
	for i := range run {
		r := &run[i]
		spans[i].Close(end)
		s.cWrites.Add(1)
		if err := ops[i].Err; err != nil {
			wire.PutPayload(&r.f)
			s.respond(r, s.errFrame(&r.f, wire.StatusErr, err.Error()))
			continue
		}
		count := uint32(len(r.f.Payload))
		wire.PutPayload(&r.f) // engine has copied the data out
		s.respond(r, wire.Frame{Type: wire.TWrite | wire.RespFlag, ReqID: r.f.ReqID, Arg: r.f.Arg, Count: count})
	}
	// Keep the grown arrays, but no payload or span past its run.
	clear(ops)
	clear(spans)
	s.writeOps, s.writeSpans = ops, spans
}

// statFrame answers one STAT frame from live engine metadata — lock-free
// snapshots, so a STAT never waits on the engine.
func (s *Server) statFrame(reqID uint64) wire.Frame {
	s.cStats.Add(1)
	geo := s.eng.Geometry()
	st := wire.Stat{
		K:                 uint32(geo.K),
		M:                 uint32(geo.M()),
		Shards:            uint32(s.eng.NumShards()),
		ChunkSize:         uint32(s.csize),
		Stripes:           geo.Stripes,
		Chunks:            s.chunks,
		PendingLogStripes: int64(s.eng.PendingLogStripes()),
		WritePressure:     s.eng.WritePressure(),
	}
	p := wire.AppendStat(nil, &st)
	return wire.Frame{Type: wire.TStat | wire.RespFlag, ReqID: reqID,
		Count: uint32(len(p)), Payload: p}
}

// respond enqueues the dispatcher's response to a write or flush on the
// request's connection. Never blocks indefinitely: the per-conn in-flight
// bound guarantees buffer space.
func (s *Server) respond(r *request, f wire.Frame) {
	s.gWriteInflight.Add(-1)
	r.c.out <- f
	r.c.wg.Done()
}

// errFrame counts and builds the error response to request f, carrying the
// message text.
func (s *Server) errFrame(f *wire.Frame, status uint8, msg string) wire.Frame {
	if status == wire.StatusBadRequest {
		s.cBadReq.Add(1)
	} else {
		s.cErrs.Add(1)
	}
	return wire.Frame{Type: f.Type | wire.RespFlag, Status: status,
		ReqID: f.ReqID, Payload: []byte(msg)}
}

// validate screens a decoded request before it takes a queue slot,
// returning a refusal message ("" accepts). Engine state is never touched
// by an invalid frame.
func (s *Server) validate(f *wire.Frame) string {
	if f.IsResp() || f.Status != wire.StatusOK {
		return "request frame with response flag or nonzero status"
	}
	switch f.ReqType() {
	case wire.TWrite:
		n := len(f.Payload)
		if n == 0 || n%s.csize != 0 {
			return fmt.Sprintf("write payload %d bytes is not a positive chunk multiple (%d)", n, s.csize)
		}
		chunks := int64(n / s.csize)
		if f.Arg < 0 || f.Arg+chunks > s.chunks {
			return fmt.Sprintf("write range [%d,%d) outside [0,%d)", f.Arg, f.Arg+chunks, s.chunks)
		}
	case wire.TRead:
		if f.Count == 0 || int(f.Count)*s.csize > s.opts.MaxPayload {
			return fmt.Sprintf("read of %d chunks outside (0,%d]", f.Count, s.opts.MaxPayload/s.csize)
		}
		if f.Arg < 0 || f.Arg+int64(f.Count) > s.chunks {
			return fmt.Sprintf("read range [%d,%d) outside [0,%d)", f.Arg, f.Arg+int64(f.Count), s.chunks)
		}
		if len(f.Payload) != 0 {
			return "read request with payload"
		}
	case wire.TFlush, wire.TStat:
		if len(f.Payload) != 0 || f.Count != 0 || f.Arg != 0 {
			return "flush/stat request with arguments"
		}
	}
	return ""
}

// now is the net phase's span clock: wall seconds. Net spans time socket
// and batch latency — real time by nature, unlike the engine's virtual
// device clock; the two never mix (net spans parent no engine spans).
//
//eplog:wallclock net spans time real request handling, not simulated devices
func (s *Server) now() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}

package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eplog/eplog/internal/server"
	"github.com/eplog/eplog/internal/wire"
)

// Phases of a closed-loop run, set by the coordinator and read by the
// connections at every completion.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// flight is one request in the air.
type flight struct {
	op    op
	start time.Time // when it was sent (closed loop) or due (open loop)
	lo    uint32    // reads: version acknowledged when the read was sent
	dst   []byte    // reads: destination buffer, one chunk
}

// sample is one completed request: when it completed (Unix ns) and how
// long it took (ns).
type sample struct{ end, lat int64 }

// tally is what one connection saw in one window.
type tally struct {
	attempted, failed int64
	faults            [faultKinds]int64
	reads, writes     []sample
	late              []int64 // open loop: send time minus due time, ns
	backlogMax        int
}

// loadConn drives one connection. The closed loop uses it from one
// goroutine; the open loop's sender and receiver share it under mu.
type loadConn struct {
	c    *server.Client
	gen  *opGen
	pay  *payloads
	done chan *server.Call
	wbuf []byte
	log  *spanLog // traced runs: client.request spans

	mu     sync.Mutex
	mdl    *model
	writes map[int64]*flight // in-flight writes by LBA (never two per LBA)
	reads  map[*byte]*flight // in-flight reads by destination buffer
	free   []*flight
	record bool // completions count into t
	t      tally
}

func dialLoad(addr string, spec workloadSpec, seed int64, conn int, pay *payloads) (*loadConn, error) {
	c, err := server.Dial(addr, 0)
	if err != nil {
		return nil, err
	}
	g := newOpGen(spec, seed, conn)
	return &loadConn{
		c:   c,
		gen: g,
		pay: pay,
		// The receiver must never block on done: it holds every response
		// the server's per-connection queue depth and the socket buffers
		// can have in flight in the open loop.
		done:   make(chan *server.Call, 1<<14),
		wbuf:   make([]byte, arrayK*chunkSize),
		mdl:    newModel(g.lo, g.chunks),
		writes: make(map[int64]*flight),
		reads:  make(map[*byte]*flight),
	}, nil
}

func (lc *loadConn) inflight() int { return len(lc.writes) + len(lc.reads) }

func (lc *loadConn) backlog() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.inflight()
}

// openBacklogCap bounds the open loop's requests in flight per connection
// (and with them the harness's memory); a sender held at the cap is late.
const openBacklogCap = 4096

// send draws the next op and ships it. A write that overlaps a write in
// flight is redrawn: the wire protocol leaves the order of two in-flight
// requests on one LBA open, and the model must stay exact. Reads are sent
// regardless and checked against the version range they may see.
func (lc *loadConn) send(start time.Time) {
	lc.mu.Lock()
	o := lc.gen.next()
	for !o.read && lc.mdl.busy(o.lba, o.chunks) {
		o = lc.gen.next()
	}
	var f *flight
	if n := len(lc.free); n > 0 {
		f, lc.free = lc.free[n-1], lc.free[:n-1]
	} else {
		f = &flight{dst: make([]byte, chunkSize)}
	}
	f.op, f.start = o, start
	if o.read {
		f.lo = lc.mdl.acked[o.lba-lc.mdl.lo]
		lc.reads[&f.dst[0]] = f
	} else {
		for i := 0; i < o.chunks; i++ {
			ver := lc.mdl.beginWrite(o.lba, i)
			lc.pay.fill(lc.wbuf[i*chunkSize:(i+1)*chunkSize], o.lba+int64(i), ver)
		}
		lc.writes[o.lba] = f
	}
	lc.t.backlogMax = max(lc.t.backlogMax, lc.inflight())
	lc.mu.Unlock()
	if o.read {
		lc.c.GoRead(o.lba, 1, f.dst, lc.done)
	} else {
		p := lc.wbuf[:o.chunks*chunkSize]
		lc.c.Go(wire.Frame{Type: wire.TWrite, Arg: o.lba, Count: uint32(len(p)), Payload: p}, lc.done)
	}
}

// complete checks one response against the model and accounts for it.
func (lc *loadConn) complete(call *server.Call) {
	now := time.Now()
	lc.mu.Lock()
	defer lc.mu.Unlock()
	var f *flight
	read := call.Req.Type == wire.TRead
	if read {
		f = lc.reads[&call.Dst[0]]
		delete(lc.reads, &call.Dst[0])
	} else {
		f = lc.writes[call.Req.Arg]
		delete(lc.writes, call.Req.Arg)
	}
	ft := faultNone
	switch {
	case call.Err != nil:
		ft = faultError
	case read:
		ft = lc.pay.check(call.Resp.Payload, f.op.lba, f.lo, lc.mdl.issued[f.op.lba-lc.mdl.lo])
	}
	if !read {
		// An errored write leaves the chunk at either version; the run has
		// failed by then, so the model just moves on.
		lc.mdl.endWrite(f.op.lba, f.op.chunks)
	}
	// Outside a window a failure still fails the run.
	if lc.record || ft != faultNone {
		lc.t.attempted++
	}
	if ft != faultNone {
		lc.t.failed++
		lc.t.faults[ft]++
	}
	if lc.record {
		smp := sample{end: now.UnixNano(), lat: now.Sub(f.start).Nanoseconds()}
		if read {
			lc.t.reads = append(lc.t.reads, smp)
		} else {
			lc.t.writes = append(lc.t.writes, smp)
		}
		if lc.log != nil {
			kind := "write"
			if read {
				kind = "read"
			}
			lc.log.add(span{Name: "client.request", Start: f.start.UnixNano(), End: now.UnixNano(), ID: call.Req.ReqID, Op: kind})
		}
	}
	lc.free = append(lc.free, f)
}

// takeTally returns the window's tally and starts a fresh one.
func (lc *loadConn) takeTally() tally {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	t := lc.t
	lc.t = tally{}
	return t
}

func (lc *loadConn) setRecord(on bool) {
	lc.mu.Lock()
	lc.record = on
	lc.mu.Unlock()
}

// drain waits for every request in flight.
func (lc *loadConn) drain() {
	for lc.backlog() > 0 {
		lc.complete(<-lc.done)
	}
}

// runClosed keeps loadDepth requests in flight until phase says stop.
// Completions count while the phase is phaseMeasure.
func (lc *loadConn) runClosed(phase *atomic.Int32) {
	for i := 0; i < loadDepth; i++ {
		lc.send(time.Now())
	}
	cur := phaseWarm
	for {
		call := <-lc.done
		if p := phase.Load(); p != cur {
			cur = p
			lc.setRecord(p == phaseMeasure)
		}
		lc.complete(call)
		if cur == phaseStop {
			break
		}
		lc.send(time.Now())
	}
	lc.drain()
}

// runOpen sends at a fixed rate for d, each request timed from the moment
// it was due. A receiver goroutine takes completions, so the sender never
// waits on them; it only ever waits for the clock (or, when the server
// stops reading, for the socket — which shows as lateness).
func (lc *loadConn) runOpen(rate float64, d time.Duration) {
	lc.setRecord(true)
	stop := make(chan struct{})
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			select {
			case call := <-lc.done:
				lc.complete(call)
			case <-stop:
				return
			}
		}
	}()
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	var late []int64
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if due.Sub(t0) >= d {
			break
		}
		// Sleep only: on a two-core host a sender that spins up to its
		// due time takes a core from the server. The sleep's overshoot is
		// measured (late) and is inside every latency, timed from due.
		time.Sleep(time.Until(due))
		for lc.backlog() >= openBacklogCap {
			time.Sleep(100 * time.Microsecond)
		}
		late = append(late, time.Since(due).Nanoseconds())
		lc.send(due)
	}
	close(stop)
	<-recvDone
	lc.drain()
	lc.mu.Lock()
	lc.t.late = late
	lc.mu.Unlock()
	lc.setRecord(false)
}

// pipelined runs n requests at loadDepth: issue(i) sends request i, and
// each completion is handed to check with its index.
func (lc *loadConn) pipelined(n int, issue func(i int) *server.Call, check func(i int, call *server.Call) error) error {
	idx := make(map[*server.Call]int, loadDepth)
	var first error
	finish := func() {
		call := <-lc.done
		if err := check(idx[call], call); err != nil && first == nil {
			first = err
		}
		delete(idx, call)
	}
	for i := 0; i < n; i++ {
		if len(idx) == loadDepth {
			finish()
		}
		idx[issue(i)] = i
	}
	for len(idx) > 0 {
		finish()
	}
	return first
}

// precondition writes every stripe of the connection's range once with a
// full-stripe WRITE — the paper's "new full stripe" case — so that every
// later write is an update of written data.
func (lc *loadConn) precondition() error {
	stripes := int(lc.gen.chunks / arrayK)
	return lc.pipelined(stripes,
		func(s int) *server.Call {
			lba := lc.gen.lo + int64(s)*arrayK
			p := lc.wbuf // free again once Go returns
			for i := 0; i < arrayK; i++ {
				lc.pay.fill(p[i*chunkSize:(i+1)*chunkSize], lba+int64(i), lc.mdl.beginWrite(lba, i))
			}
			return lc.c.Go(wire.Frame{Type: wire.TWrite, Arg: lba, Count: uint32(len(p)), Payload: p}, lc.done)
		},
		func(s int, call *server.Call) error {
			lc.mdl.endWrite(lc.gen.lo+int64(s)*arrayK, arrayK)
			return call.Err
		})
}

// readBack reads the whole range stripe by stripe and compares every chunk
// with the model in full. It returns the chunks read and the mismatches.
func (lc *loadConn) readBack() (chunks, mismatches int64, err error) {
	stripes := int(lc.gen.chunks / arrayK)
	bufs := make([][]byte, loadDepth) // free stack; a buffer returns after its check
	for i := range bufs {
		bufs[i] = make([]byte, arrayK*chunkSize)
	}
	err = lc.pipelined(stripes,
		func(s int) *server.Call {
			b := bufs[len(bufs)-1]
			bufs = bufs[:len(bufs)-1]
			return lc.c.GoRead(lc.gen.lo+int64(s)*arrayK, arrayK, b, lc.done)
		},
		func(s int, call *server.Call) error {
			defer func() { bufs = append(bufs, call.Dst) }()
			chunks += arrayK
			if call.Err != nil {
				mismatches += arrayK
				return call.Err
			}
			lba := lc.gen.lo + int64(s)*arrayK
			for i := 0; i < arrayK; i++ {
				want := lc.mdl.issued[lba-lc.mdl.lo+int64(i)]
				if lc.pay.check(call.Resp.Payload[i*chunkSize:(i+1)*chunkSize], lba+int64(i), want, want) != faultNone {
					mismatches++
				}
			}
			return nil
		})
	return chunks, mismatches, err
}

// merge folds the connections' tallies into one.
func merge(ts []tally) tally {
	var out tally
	for _, t := range ts {
		out.attempted += t.attempted
		out.failed += t.failed
		for i, n := range t.faults {
			out.faults[i] += n
		}
		out.reads = append(out.reads, t.reads...)
		out.writes = append(out.writes, t.writes...)
		out.late = append(out.late, t.late...)
		out.backlogMax += t.backlogMax
	}
	slices.Sort(out.late)
	return out
}

// latencies returns the sorted latencies of the sample lists.
func latencies(lists ...[]sample) []int64 {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]int64, 0, n)
	for _, l := range lists {
		for _, s := range l {
			out = append(out, s.lat)
		}
	}
	slices.Sort(out)
	return out
}

// all returns the sorted read and write latencies together.
func (t *tally) all() []int64 { return latencies(t.reads, t.writes) }

// perSecond cuts the window that started at start into whole seconds and
// returns, for each, the requests completed and their 99th-percentile
// latency. A window shorter than two seconds is one slice.
func (t *tally) perSecond(start time.Time, window time.Duration) (rates, p99s []float64) {
	n, width := int(window/time.Second), time.Second
	if n < 2 {
		n, width = 1, window
	}
	lats := make([][]int64, n)
	for _, l := range [][]sample{t.reads, t.writes} {
		for _, s := range l {
			if i := int((s.end - start.UnixNano()) / int64(width)); i >= 0 && i < n {
				lats[i] = append(lats[i], s.lat)
			}
		}
	}
	for _, l := range lats {
		slices.Sort(l)
		rates = append(rates, float64(len(l))/width.Seconds())
		p99s = append(p99s, us(percentile(l, 0.99)))
	}
	return rates, p99s
}

func (t *tally) faultSummary() string {
	s := ""
	for k := faultNone + 1; k < faultKinds; k++ {
		if t.faults[k] > 0 {
			s += fmt.Sprintf(" %s=%d", k, t.faults[k])
		}
	}
	return s
}

package server

import (
	"bufio"
	"net"
	"sync"
	"time"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/wire"
)

// conn is one client connection: a reader goroutine decoding requests —
// and executing the READs among them — and a writer goroutine encoding
// responses, joined by the out channel.
//
// Flow-control invariant: the reader takes a sem slot before a request
// enters the server and the writer frees it only after dequeuing the
// response, so at most QueueDepth responses can ever be queued on out —
// out has QueueDepth capacity, so response enqueues never block, and
// neither the reader nor the dispatcher can deadlock against a slow client.
// A client that pipelines deeper than QueueDepth just stops being read.
type conn struct {
	s   *Server
	nc  net.Conn
	out chan wire.Frame
	sem chan struct{}
	// wg tracks the writes and flushes handed to the dispatcher until their
	// responses are enqueued; the closer goroutine closes out once the
	// reader is done and wg drains.
	wg  sync.WaitGroup
	ops int64

	// Reader-owned: the READs of the burst being decoded, the engine-op and
	// span scratch their execution reuses, and the burst's frame and byte
	// counts — all settled by flush.
	reads         []wire.Frame
	rops          []core.ReadOp
	spans         []*obs.Span
	frames, bytes int64
}

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{
		s:   s,
		nc:  nc,
		out: make(chan wire.Frame, s.opts.QueueDepth),
		sem: make(chan struct{}, s.opts.QueueDepth),

		reads: make([]wire.Frame, 0, s.opts.BatchMax),
	}
	s.cConns.Add(1)
	s.gConns.Add(1)
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	kicked := s.draining
	s.connMu.Unlock()
	if kicked {
		// Close won the race past the accept loop; make sure this reader
		// observes the kick too.
		c.kick()
	}

	go func() {
		c.reader()
		// The reader has answered its own READs; once the dispatcher has
		// answered the writes out closes, and the writer drains it and exits.
		c.wg.Wait()
		close(c.out)
	}()
	c.writer()

	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.gConns.Add(-1)
	s.hConnOps.Observe(float64(c.ops))
	s.connWG.Done()
}

// kick unblocks the connection's reader out of a pending ReadFrame; the
// decoder latches the deadline error and the reader exits.
//
//eplog:wallclock an already-passed deadline is the portable read-interrupt
func (c *conn) kick() {
	c.nc.SetReadDeadline(time.Now())
}

// reader decodes frames off the socket and serves them: READs collect into
// the burst and run on this goroutine (flush), a STAT is answered on the
// spot, writes and flushes go to the dispatcher queue, protocol violations
// straight back as StatusBadRequest. Before anything that can block it — a
// frame the socket has not delivered whole, its own connection's QueueDepth
// (the sem slot), a full dispatcher queue — it flushes, so it never parks
// holding answers; BatchMax bounds the burst. It exits on any decode error
// (the decoder latches, including the kicked deadline at shutdown), the
// frames already buffered decoded and answered first.
func (c *conn) reader() {
	s := c.s
	br := bufio.NewReaderSize(c.nc, 64<<10)
	dec := wire.NewDecoder(br, s.opts.MaxPayload)
	var f wire.Frame // escapes through the decoder: one per connection, not per frame
	for {
		if !wire.FrameBuffered(br) {
			c.flush()
		}
		if err := dec.ReadFrame(&f); err != nil {
			c.flush()
			return
		}
		c.frames++
		c.bytes += int64(wire.HeaderSize + len(f.Payload))
		select {
		case c.sem <- struct{}{}:
		default:
			c.flush() // the free slot may be one this burst's responses give back
			c.sem <- struct{}{}
		}
		if msg := s.validate(&f); msg != "" {
			wire.PutPayload(&f)
			c.out <- s.errFrame(&f, wire.StatusBadRequest, msg)
			continue
		}
		switch f.ReqType() {
		case wire.TRead:
			if c.reads = append(c.reads, f); len(c.reads) == s.opts.BatchMax {
				c.flush()
			}
		case wire.TStat:
			c.out <- s.statFrame(f.ReqID)
		default: // TWrite, TFlush
			c.wg.Add(1)
			// The occupancy gauge drives the dispatcher's batch linger; every
			// queued request ticks it up here and down in server.respond.
			s.gWriteInflight.Add(1)
			r := request{c: c, f: f}
			select {
			case s.writeQ <- r:
			default:
				c.flush()
				s.writeQ <- r
			}
		}
	}
}

// flush settles the burst decoded so far: it publishes the frame and byte
// counts and pushes the READs through the engine as a single core.ReadBatch
// on this goroutine, responding per op. Response payloads come from the
// arena here and are released by the writer once the vectored write lands
// (or recycled immediately on a per-op error).
func (c *conn) flush() {
	s := c.s
	if c.frames > 0 {
		s.cFramesIn.Add(c.frames)
		s.cBytesIn.Add(c.bytes)
		c.ops += c.frames
		c.frames, c.bytes = 0, 0
	}
	batch := c.reads
	if len(batch) == 0 {
		return
	}
	n := int64(len(batch))
	s.gReadInflight.Add(float64(n))
	s.cReads.Add(n)
	s.cReadBatches.Add(1)
	s.hReadBatchOps.Observe(float64(n))
	ops, spans := c.rops[:0], c.spans[:0]
	root := s.rec.Start(obs.SpanNetReadBatch, s.opts.SpanShard, s.now(), 0, n)
	for i := range batch {
		f := &batch[i]
		ops = append(ops, core.ReadOp{LBA: f.Arg, Buf: bufpool.Default.Get(int(f.Count) * s.csize)})
		sp := root.Child(obs.SpanNet, s.opts.SpanShard, s.now(), f.Arg, int64(f.Count))
		sp.SetCause("read")
		spans = append(spans, sp) //eplog:span-handoff closed in the response loop below
	}
	s.eng.ReadBatch(ops)
	end := s.now()
	for i := range batch {
		f := &batch[i]
		spans[i].Close(end)
		if err := ops[i].Err; err != nil {
			bufpool.Default.Put(ops[i].Buf)
			c.out <- s.errFrame(f, wire.StatusErr, err.Error())
			continue
		}
		c.out <- wire.Frame{Type: wire.TRead | wire.RespFlag, ReqID: f.ReqID,
			Arg: f.Arg, Count: uint32(len(ops[i].Buf)), Payload: ops[i].Buf}
	}
	s.rec.Finish(root, end)
	s.gReadInflight.Add(-float64(n))
	// Keep the grown arrays, but no payload or span past its batch.
	clear(ops)
	clear(spans)
	c.reads, c.rops, c.spans = batch[:0], ops, spans
}

// writer ships responses in completion order with vectored zero-copy
// writes: completed frames are drained off the queue up to WritevMax,
// their headers appended into one preallocated header arena, and headers
// plus payloads handed to the kernel as a single net.Buffers writev —
// payload bytes are never copied into an intermediate buffer, and one
// syscall carries many frames. Payloads are recycled only after the
// write lands, so the kernel never reads from a reused pool buffer. On a
// write error it keeps draining out — recycling frames and freeing sem
// slots — so neither the reader nor the dispatcher blocks on a dead
// connection.
func (c *conn) writer() {
	max := c.s.opts.WritevMax
	frames := make([]wire.Frame, 0, max)
	// hdrs is sized so appending max headers never reallocates: the iov
	// entries alias into it, and a mid-batch reallocation would orphan the
	// segments already queued.
	hdrs := make([]byte, 0, max*wire.HeaderSize)
	iov := make(net.Buffers, 0, 2*max)
	var bufs net.Buffers // WriteTo's receiver escapes: one per connection, not per write
	var werr error
	for f := range c.out {
		frames = append(frames[:0], f)
	drain:
		for len(frames) < max {
			select {
			case f2, ok := <-c.out:
				if !ok {
					break drain
				}
				frames = append(frames, f2)
			default:
				break drain
			}
		}
		if werr == nil {
			hdrs = hdrs[:0]
			iov = iov[:0]
			for i := range frames {
				fr := &frames[i]
				off := len(hdrs)
				hdrs, werr = wire.AppendFrameHeader(hdrs, fr)
				if werr != nil {
					break
				}
				iov = append(iov, hdrs[off:])
				if len(fr.Payload) > 0 {
					iov = append(iov, fr.Payload)
				}
			}
			if werr == nil {
				// WriteTo consumes the slice it is given; hand it a copy of
				// the header so iov's backing array (and capacity) survive
				// for the next batch.
				bufs = iov
				var nb int64
				nb, werr = (&bufs).WriteTo(c.nc)
				c.s.cBytesOut.Add(nb)
				c.s.cWritev.Add(1)
				if werr == nil {
					c.s.cFramesOut.Add(int64(len(frames)))
				}
			}
			for i := range iov {
				iov[i] = nil // don't pin payloads past their release below
			}
		}
		// The batch is on the wire (or the connection is dead): only now do
		// payloads go back to the pool and sem slots free up.
		for i := range frames {
			wire.PutPayload(&frames[i])
			<-c.sem
		}
	}
	c.nc.Close()
}

package server

import (
	"bufio"
	"net"
	"sync"
	"time"

	"github.com/eplog/eplog/internal/wire"
)

// conn is one client connection: a reader goroutine decoding requests and
// a writer goroutine encoding responses, joined by the out channel.
//
// Flow-control invariant: the reader takes a sem slot before a request
// enters the server and the writer frees it only after dequeuing the
// response, so at most QueueDepth responses can ever be queued on out —
// out has QueueDepth capacity, so response enqueues (server.respond)
// never block, and executors can't deadlock against a slow client. A
// client that pipelines deeper than QueueDepth just stops being read.
type conn struct {
	s   *Server
	nc  net.Conn
	out chan *wire.Frame
	sem chan struct{}
	// wg tracks accepted requests until their responses are enqueued; the
	// closer goroutine closes out once the reader is done and wg drains.
	wg  sync.WaitGroup
	ops int64
}

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{
		s:   s,
		nc:  nc,
		out: make(chan *wire.Frame, s.opts.QueueDepth),
		sem: make(chan struct{}, s.opts.QueueDepth),
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
		// All accepted requests respond before out closes; the writer then
		// drains out and exits.
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

// reader decodes frames off the socket and routes them: writes and
// flushes to the dispatcher queue, reads and stats to the worker pool,
// protocol violations straight back as StatusBadRequest. It blocks only on
// its own connection's QueueDepth (the sem slot) and exits on any decode
// error (the decoder latches, including the kicked deadline at shutdown).
func (c *conn) reader() {
	dec := wire.NewDecoder(bufio.NewReaderSize(c.nc, 64<<10), c.s.opts.MaxPayload)
	for {
		var f wire.Frame
		if err := dec.ReadFrame(&f); err != nil {
			return
		}
		c.s.cFramesIn.Add(1)
		c.s.cBytesIn.Add(int64(wire.HeaderSize + len(f.Payload)))
		c.ops++
		c.sem <- struct{}{}
		c.wg.Add(1)
		// Occupancy gauges drive the adaptive batch linger; every admitted
		// request ticks one up here and down in server.respond.
		if t := f.ReqType(); t == wire.TWrite || t == wire.TFlush {
			c.s.gWriteInflight.Add(1)
		} else {
			c.s.gReadInflight.Add(1)
		}
		r := &request{c: c, f: f}
		if msg := c.s.validate(&r.f); msg != "" {
			wire.PutPayload(&r.f)
			c.s.respondErr(r, wire.StatusBadRequest, msg)
			continue
		}
		switch r.f.ReqType() {
		case wire.TWrite, wire.TFlush:
			c.s.writeQ <- r
		default:
			c.s.readQ <- r
		}
	}
}

// writer ships responses in completion order with vectored zero-copy
// writes: completed frames are drained off the queue up to WritevMax,
// their headers appended into one preallocated header arena, and headers
// plus payloads handed to the kernel as a single net.Buffers writev —
// payload bytes are never copied into an intermediate buffer, and one
// syscall carries many frames. Payloads are recycled only after the
// write lands, so the kernel never reads from a reused pool buffer. On a
// write error it keeps draining out — recycling frames and freeing sem
// slots — so in-flight executors never block on a dead connection.
func (c *conn) writer() {
	max := c.s.opts.WritevMax
	frames := make([]*wire.Frame, 0, max)
	// hdrs is sized so appending max headers never reallocates: the iov
	// entries alias into it, and a mid-batch reallocation would orphan the
	// segments already queued.
	hdrs := make([]byte, 0, max*wire.HeaderSize)
	iov := make(net.Buffers, 0, 2*max)
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
			for _, fr := range frames {
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
				bufs := iov
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
		for i, fr := range frames {
			wire.PutPayload(fr)
			frames[i] = nil
			<-c.sem
		}
	}
	c.nc.Close()
}

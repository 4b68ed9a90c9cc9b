package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"github.com/eplog/eplog/internal/wire"
)

// ErrClientClosed latches on a client after Close or a transport failure.
var ErrClientClosed = errors.New("server client: connection closed")

// Call is one in-flight request on a Client. When the response (or a
// transport failure) arrives, Err and Resp are filled and the call is
// delivered on Done.
type Call struct {
	Req  wire.Frame
	Resp wire.Frame
	Err  error
	Done chan *Call
	// Dst, when non-nil on a READ call, receives the response payload
	// directly: the decoder lands the bytes in Dst instead of a fresh pool
	// buffer, Resp.Payload aliases Dst, and the caller must NOT
	// wire.PutPayload the response — ownership of the memory never left the
	// caller. Dst must be at least Count chunks long; a short Dst falls
	// back to pool allocation (and then PutPayload applies as usual).
	Dst []byte
}

// Client is a pipelined wire-protocol client: Go issues a request without
// waiting, many calls ride the connection concurrently, and a receiver
// goroutine matches responses to calls by request ID — in whatever order
// the server completes them. Safe for concurrent use.
//
// Sends coalesce the way the server's writer coalesces responses: a call
// that finds others pending only encodes its frame into the send buffer,
// and the flusher goroutine pushes everything buffered with one socket
// write when it next runs. A call that is alone in the pipeline has nothing
// to share a segment with and flushes inline, so a synchronous caller pays
// no goroutine hop. Nothing waits on a clock.
type Client struct {
	sock sockWriter // the connection, counting the writes bw issues to it

	// sendMu orders frames on the wire and guards bw, enc and wake.
	sendMu sync.Mutex
	bw     *bufio.Writer
	enc    *wire.Encoder
	// wake is set while a token sits in flushC or the flusher, having taken
	// it, has not yet locked sendMu: the frames buffered meanwhile ride that
	// flush, and the next token is sent only after wake clears, so start's
	// send on the cap-1 flushC never blocks.
	wake   bool
	flushC chan struct{}

	nextID atomic.Uint64
	frames atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*Call
	err     error

	recvDone  chan struct{}
	flushDone chan struct{}
}

// sockWriter counts socket writes.
type sockWriter struct {
	net.Conn
	writes atomic.Uint64
}

func (w *sockWriter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// Dial connects a client. maxPayload bounds response payloads (<= 0
// selects the wire default); it must be at least the server's largest
// read response.
func Dial(addr string, maxPayload int) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(nc, maxPayload), nil
}

// newClient starts a client over an established connection, which it owns
// from here on.
func newClient(nc net.Conn, maxPayload int) *Client {
	c := &Client{
		sock:      sockWriter{Conn: nc},
		flushC:    make(chan struct{}, 1),
		pending:   make(map[uint64]*Call),
		recvDone:  make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	c.bw = bufio.NewWriterSize(&c.sock, 64<<10)
	c.enc = wire.NewEncoder(c.bw)
	go c.receive(maxPayload)
	go c.flusher()
	return c
}

// SendStats returns how many request frames the client has encoded and how
// many socket writes carried them; frames/writes is the send-side
// coalescing ratio (the mirror of the server's net.frames_out /
// net.writev_calls).
func (c *Client) SendStats() (frames, writes uint64) {
	return c.frames.Load(), c.sock.writes.Load()
}

// Go issues req without waiting for its response. The request ID is
// assigned here; req.Payload may be reused by the caller as soon as Go
// returns (the frame has been copied into the send buffer or written to the
// socket before it does). done may be nil for a fresh channel; it must be
// buffered deep enough for the caller's pipeline.
func (c *Client) Go(req wire.Frame, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	return c.start(&Call{Req: req, Done: done})
}

// start assigns the request ID, registers the call, and ships its frame:
// straight to the socket when the call is the only one pending, otherwise
// into the send buffer for the flusher.
func (c *Client) start(call *Call) *Call {
	call.Req.ReqID = c.nextID.Add(1)

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		call.Err = err
		call.Done <- call
		return call
	}
	c.pending[call.Req.ReqID] = call
	solo := len(c.pending) == 1
	c.mu.Unlock()

	c.sendMu.Lock()
	err := c.enc.WriteFrame(&call.Req)
	if err == nil {
		c.frames.Add(1)
		if solo {
			err = c.bw.Flush()
		} else if !c.wake {
			c.wake = true
			c.flushC <- struct{}{}
		}
	}
	c.sendMu.Unlock()
	if err != nil {
		c.fail(err)
	}
	return call
}

// flusher pushes the send buffer to the socket once per wake-up, carrying
// every frame the senders buffered by the time it takes sendMu. It exits
// with the receiver — at Close or a dead transport, when the client has
// failed and nothing more will be sent — or on the first failed flush
// (bufio latches the error, so every later send fails in start).
func (c *Client) flusher() {
	defer close(c.flushDone)
	for {
		select {
		case <-c.flushC:
		case <-c.recvDone:
			return
		}
		c.sendMu.Lock()
		c.wake = false
		err := c.bw.Flush()
		c.sendMu.Unlock()
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// claim takes the call registered under id out of the pending table (nil
// for a stray ID).
func (c *Client) claim(id uint64) *Call {
	c.mu.Lock()
	call := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return call
}

// receive matches responses to pending calls until the transport fails
// (including EOF at close).
func (c *Client) receive(maxPayload int) {
	defer close(c.recvDone)
	dec := wire.NewDecoder(bufio.NewReaderSize(&c.sock, 64<<10), maxPayload)
	// Successful READ responses land straight in the caller's Dst buffer
	// when one was supplied (GoRead/ReadInto) — no per-read pool traffic,
	// no copy. Anything else keeps the pool-backed default. The hook has to
	// find the call to find Dst, so it claims it there and then: claimed is
	// the call of the frame being decoded, and the loop below does not look
	// it up a second time.
	var claimed *Call
	dec.SetPayloadAlloc(func(f *wire.Frame, n int) []byte {
		if f.Type != wire.TRead|wire.RespFlag || f.Status != wire.StatusOK {
			return nil
		}
		claimed = c.claim(f.ReqID)
		if claimed == nil || len(claimed.Dst) < n {
			return nil
		}
		return claimed.Dst[:n]
	})
	for {
		var f wire.Frame
		claimed = nil
		if err := dec.ReadFrame(&f); err != nil {
			// A call claimed before its payload failed to arrive is no
			// longer in the table fail walks.
			if claimed != nil {
				claimed.Err = err
				claimed.Done <- claimed
			}
			c.fail(err)
			return
		}
		call := claimed
		if call == nil {
			call = c.claim(f.ReqID)
		}
		if call == nil {
			wire.PutPayload(&f) // stray ID: recycle and move on
			continue
		}
		if f.Status != wire.StatusOK {
			call.Err = fmt.Errorf("server: %s (status %d)", f.Payload, f.Status)
			wire.PutPayload(&f)
		}
		call.Resp = f
		call.Done <- call
	}
}

// fail latches err and completes every pending call with it.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	calls := c.pending
	c.pending = make(map[uint64]*Call)
	c.mu.Unlock()
	for _, call := range calls {
		call.Err = err
		call.Done <- call
	}
}

// Close tears the connection down, fails outstanding calls, and returns
// once the receiver and the flusher have exited.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	err := c.sock.Close()
	<-c.recvDone
	<-c.flushDone
	return err
}

// Write writes p (a chunk multiple) at lba and waits.
func (c *Client) Write(lba int64, p []byte) error {
	call := <-c.Go(wire.Frame{Type: wire.TWrite, Arg: lba, Count: uint32(len(p)), Payload: p}, nil).Done
	return call.Err
}

// Read reads count chunks at lba and waits. The returned payload is
// pool-backed: recycle it with wire.PutPayload(&resp) when done.
func (c *Client) Read(lba int64, count uint32) (wire.Frame, error) {
	call := <-c.Go(wire.Frame{Type: wire.TRead, Arg: lba, Count: count}, nil).Done
	return call.Resp, call.Err
}

// GoRead issues a READ whose response payload lands directly in dst (which
// must hold at least count chunks). On success Resp.Payload aliases dst —
// do not PutPayload it; the memory is the caller's. See Call.Dst.
func (c *Client) GoRead(lba int64, count uint32, dst []byte, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	call := &Call{Req: wire.Frame{Type: wire.TRead, Arg: lba, Count: count}, Done: done, Dst: dst}
	return c.start(call)
}

// ReadInto reads count chunks at lba into dst and waits. The payload is
// written in place; nothing to recycle.
func (c *Client) ReadInto(lba int64, count uint32, dst []byte) error {
	call := <-c.GoRead(lba, count, dst, nil).Done
	return call.Err
}

// Flush issues a flush barrier and waits.
func (c *Client) Flush() error {
	call := <-c.Go(wire.Frame{Type: wire.TFlush}, nil).Done
	return call.Err
}

// Stat fetches the array's geometry and pressure snapshot.
func (c *Client) Stat() (wire.Stat, error) {
	call := <-c.Go(wire.Frame{Type: wire.TStat}, nil).Done
	if call.Err != nil {
		return wire.Stat{}, call.Err
	}
	st, err := wire.ParseStat(call.Resp.Payload)
	wire.PutPayload(&call.Resp)
	return st, err
}

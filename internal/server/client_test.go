package server

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/eplog/eplog/internal/wire"
)

// countConn is a loopback connection that counts the socket writes issued
// through it, tells the flusher goroutine's apart from the callers', keeps
// the bytes in wire order, and can be made to refuse writes.
type countConn struct {
	net.Conn
	fail atomic.Bool

	mu            sync.Mutex
	writes        int
	flusherWrites int
	stream        bytes.Buffer
}

var errInjected = errors.New("injected socket write failure")

func (c *countConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errInjected
	}
	c.mu.Lock()
	c.writes++
	if onFlusher() {
		c.flusherWrites++
	}
	c.stream.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countConn) counts() (writes, flusherWrites int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.flusherWrites
}

// onFlusher reports whether the calling goroutine is a Client's flusher.
func onFlusher() bool { return calledFrom(".(*Client).flusher") }

// calledFrom reports whether a function whose name ends in suffix is on the
// calling goroutine's stack.
func calledFrom(suffix string) bool {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, suffix) {
			return true
		}
		if !more {
			return false
		}
	}
}

func dialCounted(t testing.TB, addr string) (*Client, *countConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countConn{Conn: nc}
	return newClient(cc, 0), cc
}

// TestClientBurstCoalesces: 64 4 KiB writes issued back to back share
// socket writes — at most 16 for the burst — and still arrive whole, in
// issue order, and acknowledged one for one. How many frames a flush
// carries is the scheduler's choice, so the count is taken where that
// choice is fixed: on one P the flusher cannot run before the sender parks,
// and the engine holds the acknowledgements back until the burst is out
// (one that overtakes the sender empties the pipeline, and the next call is
// then rightly alone and flushes inline). What remains is the first call's
// inline write, bufio's overflow writes and one flush.
func TestClientBurstCoalesces(t *testing.T) {
	const burst, size = 64, 4096
	s, _, release, _ := stalledServer(t)
	c, cc := dialCounted(t, s.Addr().String())
	defer c.Close()
	procs := runtime.GOMAXPROCS(1)

	done := make(chan *Call, burst)
	pattern := make([]byte, burst+size)
	for j := range pattern {
		pattern[j] = byte(j)
	}
	p := make([]byte, size)
	for i := 0; i < burst; i++ {
		// One buffer for every call: Go has copied the frame out (or
		// written it) by the time it returns.
		copy(p, pattern[i:])
		c.Go(wire.Frame{Type: wire.TWrite, Arg: int64(i * size / testChunk), Count: size, Payload: p}, done)
	}
	runtime.GOMAXPROCS(procs)
	release()
	seen := make(map[*Call]bool, burst)
	for i := 0; i < burst; i++ {
		call := await(t, "a write acknowledgement", done)
		if call.Err != nil {
			t.Fatal(call.Err)
		}
		if seen[call] {
			t.Fatalf("call %d delivered twice", call.Req.ReqID)
		}
		seen[call] = true
	}

	writes, _ := cc.counts()
	if writes > burst/4 {
		t.Errorf("%d socket writes for a %d-call burst, want <= %d", writes, burst, burst/4)
	}
	if frames, w := c.SendStats(); frames != burst || w != uint64(writes) {
		t.Errorf("SendStats = %d frames / %d writes, want %d / %d", frames, w, burst, writes)
	}

	cc.mu.Lock()
	stream := bytes.Clone(cc.stream.Bytes())
	cc.mu.Unlock()
	dec := wire.NewDecoder(bytes.NewReader(stream), 0)
	for i := 0; i < burst; i++ {
		var f wire.Frame
		if err := dec.ReadFrame(&f); err != nil {
			t.Fatalf("frame %d on the wire: %v", i, err)
		}
		if f.Type != wire.TWrite || f.ReqID != uint64(i+1) || f.Arg != int64(i*size/testChunk) || len(f.Payload) != size {
			t.Fatalf("frame %d on the wire is type %#x id %d lba %d with %d bytes", i, f.Type, f.ReqID, f.Arg, len(f.Payload))
		}
		for j, b := range f.Payload {
			if b != byte(i+j) {
				t.Fatalf("frame %d byte %d corrupted on the wire", i, j)
			}
		}
		wire.PutPayload(&f)
	}
	if dec.ReadFrame(new(wire.Frame)) == nil {
		t.Fatal("more than the burst's frames on the wire")
	}
}

// TestClientSoloFlushesInline: a call with nothing else pending is written
// by its caller before Go returns, never by the flusher — one socket write
// per synchronous request.
func TestClientSoloFlushesInline(t *testing.T) {
	s, _ := startServer(t, 1, 16, Options{})
	c, cc := dialCounted(t, s.Addr().String())
	defer c.Close()

	for i := 1; i <= 200; i++ {
		call := c.Go(wire.Frame{Type: wire.TStat}, nil)
		if writes, _ := cc.counts(); writes != i {
			t.Fatalf("%d socket writes when Go returned from call %d", writes, i)
		}
		if await(t, "a STAT response", call.Done); call.Err != nil {
			t.Fatal(call.Err)
		}
		wire.PutPayload(&call.Resp)
	}
	if _, err := c.Stat(); err != nil {
		t.Fatal(err)
	}
	if writes, fw := cc.counts(); writes != 201 || fw != 0 {
		t.Fatalf("%d socket writes (%d by the flusher) for 201 serial calls, want 201 (0)", writes, fw)
	}
}

// stalledServer serves a stub engine that parks every WriteBatch until
// release, so writes stay pending for as long as the test wants. base is
// the goroutine count to come back to once its clients are gone.
func stalledServer(t *testing.T) (s *Server, eng *stubEngine, release func(), base int) {
	t.Helper()
	eng = &stubEngine{writeEntry: make(chan struct{}, 64), writeStall: make(chan struct{})}
	s, err := Listen("127.0.0.1:0", eng, Options{CloseStore: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	release = sync.OnceFunc(func() { close(eng.writeStall) })
	t.Cleanup(release)
	return s, eng, release, runtime.NumGoroutine()
}

// TestClientConnLostUnderPipeline: the transport dying under a full
// pipeline completes every pending call exactly once with the error, later
// calls fail at once, and Close leaves no goroutine behind.
func TestClientConnLostUnderPipeline(t *testing.T) {
	const depth = 16
	s, eng, release, base := stalledServer(t)
	c, cc := dialCounted(t, s.Addr().String())

	done := make(chan *Call, 2*depth+1)
	for i := 0; i < depth; i++ {
		c.Go(wire.Frame{Type: wire.TWrite, Arg: int64(i), Count: testChunk, Payload: make([]byte, testChunk)}, done)
	}
	await(t, "the first write batch to park in the engine", eng.writeEntry)
	cc.Conn.Close()

	seen := make(map[*Call]bool, depth)
	for i := 0; i < depth; i++ {
		call := await(t, "a failed call", done)
		if call.Err == nil {
			t.Fatalf("call %d completed without error on a dead connection", call.Req.ReqID)
		}
		if seen[call] {
			t.Fatalf("call %d delivered twice", call.Req.ReqID)
		}
		seen[call] = true
	}
	if call := await(t, "a call on the failed client", c.Go(wire.Frame{Type: wire.TStat}, done).Done); call.Err == nil {
		t.Fatal("Go on a failed client succeeded")
	}
	c.Close()
	if n := len(done); n != 0 {
		t.Fatalf("%d deliveries beyond one per call", n)
	}
	release()
	waitFor(t, "client and connection goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestClientFlushErrorLatches: a socket write that fails in the flusher
// fails the client exactly as one that fails on the caller's goroutine.
func TestClientFlushErrorLatches(t *testing.T) {
	s, eng, release, base := stalledServer(t)
	c, cc := dialCounted(t, s.Addr().String())

	done := make(chan *Call, 4)
	c.Go(wire.Frame{Type: wire.TWrite, Arg: 0, Count: testChunk, Payload: make([]byte, testChunk)}, done)
	await(t, "the solo write to park in the engine", eng.writeEntry)
	cc.fail.Store(true)
	// Not alone in the pipeline: this frame is the flusher's to write.
	c.Go(wire.Frame{Type: wire.TWrite, Arg: 1, Count: testChunk, Payload: make([]byte, testChunk)}, done)
	for i := 0; i < 2; i++ {
		if call := await(t, "a failed call", done); !errors.Is(call.Err, errInjected) {
			t.Fatalf("call %d: err = %v, want the flush error", call.Req.ReqID, call.Err)
		}
	}
	if call := await(t, "a call on the failed client", c.Go(wire.Frame{Type: wire.TStat}, done).Done); !errors.Is(call.Err, errInjected) {
		t.Fatalf("Go after a failed flush: err = %v, want the flush error", call.Err)
	}
	c.Close()
	if n := len(done); n != 0 {
		t.Fatalf("%d deliveries beyond one per call", n)
	}
	release()
	waitFor(t, "client and connection goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestClientSharedByGoroutines: eight goroutines pipeline over one client,
// each on its own LBA range, and every byte reads back.
func TestClientSharedByGoroutines(t *testing.T) {
	const workers, rounds, depth = 8, 24, 4
	s, _ := startServer(t, 2, 256, Options{})
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := int64(w * rounds * depth)
			done := make(chan *Call, depth)
			bufs := make([][]byte, depth)
			for i := range bufs {
				bufs[i] = make([]byte, testChunk)
			}
			for r := 0; r < rounds; r++ {
				for i := 0; i < depth; i++ {
					p := bytes.Repeat([]byte{byte(w*31 + r*7 + i)}, testChunk)
					c.Go(wire.Frame{Type: wire.TWrite, Arg: lo + int64(r*depth+i), Count: testChunk, Payload: p}, done)
				}
				for i := 0; i < depth; i++ {
					if call := <-done; call.Err != nil {
						t.Error(call.Err)
						return
					}
				}
				for i := 0; i < depth; i++ {
					c.GoRead(lo+int64(r*depth+i), 1, bufs[i], done)
				}
				for i := 0; i < depth; i++ {
					call := <-done
					if call.Err != nil {
						t.Error(call.Err)
						return
					}
					want := byte(w*31 + r*7 + int(call.Req.Arg-lo) - r*depth)
					if !bytes.Equal(call.Dst, bytes.Repeat([]byte{want}, testChunk)) {
						t.Errorf("worker %d round %d lba %d: read back the wrong bytes", w, r, call.Req.Arg)
						return
					}
				}
				if err := c.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if frames, writes := c.SendStats(); writes == 0 || writes > frames {
		t.Fatalf("SendStats = %d frames in %d socket writes", frames, writes)
	}
}

// BenchmarkClientPipelinedWrite4K is a depth-16 closed loop of 4 KiB
// one-chunk writes from one goroutine; writes/op is socket writes per
// request.
func BenchmarkClientPipelinedWrite4K(b *testing.B) {
	const depth, size, stripes = 16, 4096, 512
	s := serveEngine(b, testEngineChunk(b, 4, stripes, size), Options{})
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	done := make(chan *Call, depth)
	p := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	_, w0 := c.SendStats()
	inflight := 0
	for i := 0; i < b.N; i++ {
		if inflight == depth {
			if call := <-done; call.Err != nil {
				b.Fatal(call.Err)
			}
			inflight--
		}
		c.Go(wire.Frame{Type: wire.TWrite, Arg: int64(i % (4 * stripes)), Count: size, Payload: p}, done)
		inflight++
	}
	for ; inflight > 0; inflight-- {
		if call := <-done; call.Err != nil {
			b.Fatal(call.Err)
		}
	}
	b.StopTimer()
	_, w1 := c.SendStats()
	b.ReportMetric(float64(w1-w0)/float64(b.N), "writes/op")
}

// BenchmarkClientStatRTT is the depth-1 round trip: every request is alone
// in the pipeline and costs exactly one socket write.
func BenchmarkClientStatRTT(b *testing.B) {
	s, _ := startServer(b, 1, 16, Options{})
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	_, w0 := c.SendStats()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stat(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, w1 := c.SendStats()
	b.ReportMetric(float64(w1-w0)/float64(b.N), "writes/op")
}

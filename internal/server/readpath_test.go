package server

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/eplog/eplog/internal/wire"
)

// rawConn is a bare socket to the server: the test decides which bytes
// reach it in which write, and decodes the responses itself.
type rawConn struct {
	t   *testing.T
	nc  net.Conn
	dec *wire.Decoder
}

// serveRaw serves eng and dials it bare; the test's end closes both.
func serveRaw(t *testing.T, eng *stubEngine, opts Options) (*Server, *rawConn) {
	t.Helper()
	s, err := Listen("127.0.0.1:0", eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return s, &rawConn{t: t, nc: nc, dec: wire.NewDecoder(nc, 0)}
}

// readBurst appends n 1-chunk READ frames with request IDs from firstID.
func readBurst(b []byte, firstID uint64, n int) []byte {
	for i := 0; i < n; i++ {
		b, _ = wire.AppendFrameHeader(b, &wire.Frame{Type: wire.TRead, ReqID: firstID + uint64(i), Arg: int64(i), Count: 1})
	}
	return b
}

func (r *rawConn) write(b []byte) {
	r.t.Helper()
	if _, err := r.nc.Write(b); err != nil {
		r.t.Fatal(err)
	}
}

// responses decodes n successful responses and returns how many carried each
// request ID.
func (r *rawConn) responses(what string, n int) map[uint64]int {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	seen := make(map[uint64]int, n)
	var f wire.Frame
	for i := 0; i < n; i++ {
		if err := r.dec.ReadFrame(&f); err != nil {
			r.t.Fatalf("%s: response %d of %d: %v", what, i+1, n, err)
		}
		if f.Status != wire.StatusOK {
			r.t.Fatalf("%s: request %d refused: %s", what, f.ReqID, f.Payload)
		}
		seen[f.ReqID]++
		wire.PutPayload(&f)
	}
	return seen
}

func wantEachOnce(t *testing.T, seen map[uint64]int, firstID uint64, n int) {
	t.Helper()
	for id := firstID; id < firstID+uint64(n); id++ {
		if seen[id] != 1 {
			t.Fatalf("request %d answered %d times, want once", id, seen[id])
		}
	}
}

// TestConnectionBurstIsOneReadBatch: the READs one socket write delivers
// enter the engine as one batch (two if the kernel split the delivery), on
// the connection's reader goroutine.
func TestConnectionBurstIsOneReadBatch(t *testing.T) {
	eng := &stubEngine{}
	_, rc := serveRaw(t, eng, Options{})

	const burst = 16
	rc.write(readBurst(nil, 1, burst))
	wantEachOnce(t, rc.responses("the burst", burst), 1, burst)
	if ops, calls := eng.readOps.Load(), eng.readCalls.Load(); ops != burst || calls > 2 {
		t.Fatalf("engine saw %d ops in %d batches, want %d in at most 2", ops, calls, burst)
	}
	if n := eng.offReader.Load(); n != 0 {
		t.Fatalf("%d read batches ran off the connection's reader goroutine", n)
	}
}

// TestReadsAnsweredBeforePartialFrame: READs followed by the first bytes of
// a WRITE — cut inside its header, or with the header whole and the payload
// short — are answered without the rest of that frame: the reader does not
// park on the socket holding a decoded burst. Nor does it drop the burst
// when what follows is garbage that ends the connection.
func TestReadsAnsweredBeforePartialFrame(t *testing.T) {
	const reads = 4
	payload := make([]byte, testChunk)
	wr, _ := wire.AppendFrameHeader(nil, &wire.Frame{Type: wire.TWrite, ReqID: 99, Count: testChunk, Payload: payload})
	wr = append(wr, payload...)
	for name, cut := range map[string]int{"mid-header": 10, "mid-payload": wire.HeaderSize + 10} {
		t.Run(name, func(t *testing.T) {
			_, rc := serveRaw(t, &stubEngine{}, Options{})
			rc.write(append(readBurst(nil, 1, reads), wr[:cut]...))
			wantEachOnce(t, rc.responses("READs ahead of a partial WRITE", reads), 1, reads)
			rc.write(wr[cut:])
			wantEachOnce(t, rc.responses("the completed WRITE", 1), 99, 1)
		})
	}
	t.Run("bad-magic", func(t *testing.T) {
		_, rc := serveRaw(t, &stubEngine{}, Options{})
		frames := readBurst(nil, 1, reads+1)
		frames[reads*wire.HeaderSize+4] ^= 0xff // the last frame is whole, and garbage
		rc.write(frames)
		wantEachOnce(t, rc.responses("READs ahead of a frame with a bad magic", reads), 1, reads)
		var f wire.Frame
		if err := rc.dec.ReadFrame(&f); err == nil {
			t.Fatalf("the connection survived a bad magic and answered request %d", f.ReqID)
		}
	})
}

// TestReaderNeverWaitsOnItsOwnBatch: a burst longer than QueueDepth cannot
// wedge the reader on a slot only its own undelivered responses would free.
func TestReaderNeverWaitsOnItsOwnBatch(t *testing.T) {
	s, err := Listen("127.0.0.1:0", &stubEngine{}, Options{QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const burst = 16
	done := make(chan *Call, burst)
	for i := 0; i < burst; i++ {
		c.Go(wire.Frame{Type: wire.TRead, Arg: int64(i), Count: 1}, done)
	}
	for i := 0; i < burst; i++ {
		call := await(t, "a READ of a burst eight times QueueDepth", done)
		if call.Err != nil {
			t.Fatal(call.Err)
		}
		wire.PutPayload(&call.Resp)
	}
}

// TestDrainAnswersPendingBurst: Close kicks a reader that is parked in the
// engine with the rest of a burst decoded or buffered behind it. Every READ
// the server took off the socket is answered before the socket closes, the
// serving goroutines are the accept loop, the write dispatcher and the
// connection's pair while it runs, and none is left afterwards.
func TestDrainAnswersPendingBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := &stubEngine{readStall: make(chan struct{}), stallEntry: make(chan struct{})}
	s, rc := serveRaw(t, eng, Options{BatchMax: 4})

	// One socket write: the first BatchMax READs park in the engine, the
	// other 13 sit in the reader's buffer.
	const burst = 17
	rc.write(readBurst(nil, 1, burst))
	await(t, "the first read batch to park in the engine", eng.stallEntry)
	if n := runtime.NumGoroutine(); n > base+4 {
		t.Errorf("%d goroutines serve one connection, want accept loop + write dispatcher + reader + writer", n-base)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	await(t, "Close to begin", s.quit)
	close(eng.readStall)

	wantEachOnce(t, rc.responses("the burst behind a kicked reader", burst), 1, burst)
	var f wire.Frame
	if err := rc.dec.ReadFrame(&f); err == nil {
		t.Fatalf("response %d beyond the burst", f.ReqID)
	}
	if err := await(t, "Close", closed); err != nil {
		t.Fatal(err)
	}
	if n := eng.offReader.Load(); n != 0 {
		t.Fatalf("%d read batches ran off the connection's reader goroutine", n)
	}
	waitFor(t, "every serving goroutine to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// writeBurst appends n one-chunk WRITE frames with request IDs from firstID.
func writeBurst(b []byte, firstID uint64, n int) []byte {
	payload := make([]byte, testChunk)
	for i := 0; i < n; i++ {
		b, _ = wire.AppendFrameHeader(b, &wire.Frame{Type: wire.TWrite, ReqID: firstID + uint64(i), Arg: int64(i), Count: testChunk, Payload: payload})
		b = append(b, payload...)
	}
	return b
}

// burstSlack is what a 64-frame burst may allocate: the test's own result
// map and deadline and the stub engine's bookkeeping, nothing per frame.
const burstSlack = 16

// burstAllocs returns the allocations per round trip of one socket write
// of frames and its burst responses, once warm: the lowest of a few
// measurements, because the scheduler decides how the pair's queues fill.
func burstAllocs(rc *rawConn, frames []byte, burst int) float64 {
	step := func() {
		rc.write(frames)
		rc.responses("the burst", burst)
	}
	for i := 0; i < 8; i++ {
		step()
	}
	best := testing.AllocsPerRun(32, step)
	for i := 0; i < 4 && best > burstSlack; i++ {
		best = min(best, testing.AllocsPerRun(32, step))
	}
	return best
}

// TestReadBurstAllocatesNoRequest pins the served read path's per-frame
// allocations on the stub engine: a 64-READ burst costs no request object,
// no response frame (they cross to the writer goroutine by value), no batch
// slice and no goroutine.
func TestReadBurstAllocatesNoRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race runs")
	}
	_, rc := serveRaw(t, &stubEngine{}, Options{})

	const burst = 64
	best := burstAllocs(rc, readBurst(nil, 1, burst), burst)
	t.Logf("%.1f allocations per %d-READ burst", best, burst)
	if best > burstSlack {
		t.Errorf("a %d-READ burst allocates %.1f objects, want a handful for the test's decoding and none per frame", burst, best)
	}
}

// TestWriteBurstAllocatesNothing is the same pin on the write path: 64
// one-chunk WRITEs in one socket write cross writeQ, the dispatcher's batch
// and the connection's out queue by value, so the burst costs no request
// and no response frame.
func TestWriteBurstAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race runs")
	}
	eng := &stubEngine{}
	_, rc := serveRaw(t, eng, Options{})

	const burst = 64
	best := burstAllocs(rc, writeBurst(nil, 1, burst), burst)
	t.Logf("%.1f allocations per %d-WRITE burst", best, burst)
	if best > burstSlack {
		t.Errorf("a %d-WRITE burst allocates %.1f objects, want a handful for the test's decoding and none per frame", burst, best)
	}
	if eng.writes.Load() == 0 {
		t.Fatal("no write reached the engine")
	}
}

package server

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/store"
	"github.com/eplog/eplog/internal/wire"
	"github.com/eplog/eplog/internal/workload"
)

const testChunk = 128

// testEngine builds a sharded in-memory engine wide enough for soak runs.
func testEngine(t testing.TB, shards int, stripes int64) *core.EPLog {
	return testEngineChunk(t, shards, stripes, testChunk)
}

func testEngineChunk(t testing.TB, shards int, stripes int64, chunk int) *core.EPLog {
	t.Helper()
	const k, n = 4, 6
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(stripes*4, chunk)
	}
	logs := make([]device.Dev, n-k)
	for i := range logs {
		logs[i] = device.NewMem(stripes*8, chunk)
	}
	e, err := core.New(devs, logs, core.Config{K: k, Stripes: stripes, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// startServer serves a fresh engine on a loopback port and returns both
// plus the address. The server owns and closes the engine.
func startServer(t testing.TB, shards int, stripes int64, opts Options) (*Server, *core.EPLog) {
	t.Helper()
	e := testEngine(t, shards, stripes)
	return serveEngine(t, e, opts), e
}

func serveEngine(t testing.TB, e *core.EPLog, opts Options) *Server {
	t.Helper()
	opts.CloseStore = true
	s, err := Listen("127.0.0.1:0", e, opts)
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	s, e := startServer(t, 2, 64, Options{})
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := make([]byte, 3*testChunk)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := c.Write(17, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := c.Read(17, 3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(resp.Payload, payload) {
		t.Fatal("read returned different bytes than written")
	}
	wire.PutPayload(&resp)
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	st, err := c.Stat()
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	geo := e.Geometry()
	want := wire.Stat{
		K: uint32(geo.K), M: uint32(geo.M()), Shards: uint32(e.NumShards()),
		ChunkSize: testChunk, Stripes: geo.Stripes, Chunks: e.Chunks(),
	}
	// Pressure and pending stripes are moving targets; compare the rest.
	st.PendingLogStripes, st.WritePressure = 0, 0
	if st != want {
		t.Fatalf("stat = %+v, want %+v", st, want)
	}
}

// TestOutOfOrderCompletion checks reads overtake queued writes: responses
// genuinely complete out of issue order under pipelining.
func TestOutOfOrderCompletion(t *testing.T) {
	s, _ := startServer(t, 2, 64, Options{})
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := make([]byte, testChunk)
	done := make(chan *Call, 64)
	var calls []*Call
	for i := 0; i < 32; i++ {
		workload.Fill(buf, uint64(i+1))
		calls = append(calls, c.Go(wire.Frame{Type: wire.TWrite, Arg: int64(i), Count: uint32(len(buf)), Payload: buf}, done))
		calls = append(calls, c.Go(wire.Frame{Type: wire.TStat}, done))
	}
	for range calls {
		if call := <-done; call.Err != nil {
			t.Fatalf("req %d: %v", call.Req.ReqID, call.Err)
		} else {
			wire.PutPayload(&call.Resp)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := startServer(t, 1, 64, Options{})
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := []wire.Frame{
		{Type: wire.TWrite, Arg: 0, Count: testChunk - 1, Payload: make([]byte, testChunk-1)}, // not a chunk multiple
		{Type: wire.TWrite, Arg: 64 * 4, Count: testChunk, Payload: make([]byte, testChunk)},  // out of range
		{Type: wire.TRead, Arg: 0, Count: 0},                                                  // zero-chunk read
		{Type: wire.TRead, Arg: -1, Count: 1},                                                 // negative LBA
		{Type: wire.TFlush, Arg: 5},                                                           // flush with arguments
		{Type: wire.TStat, Count: 1},                                                          // stat with arguments
	}
	for i, f := range bad {
		call := <-c.Go(f, nil).Done
		if call.Err == nil {
			t.Errorf("bad frame %d accepted", i)
		}
	}
	// The connection survives protocol refusals: a valid op still works.
	if err := c.Write(0, make([]byte, testChunk)); err != nil {
		t.Fatalf("valid write after refusals: %v", err)
	}
}

// TestSoakReconciliation is the in-process acceptance soak: concurrent
// pipelined connections, then an exact serial-replay reconciliation.
func TestSoakReconciliation(t *testing.T) {
	opsPer := 400
	conns := 32
	if testing.Short() {
		opsPer, conns = 120, 8
	}
	s, _ := startServer(t, 4, 256, Options{})
	rep, err := RunSoak(SoakOptions{
		Addr:       s.Addr().String(),
		Conns:      conns,
		OpsPerConn: opsPer,
		Depth:      16,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each connection logs its preconditioning full-stripe writes (one per
	// owned stripe) ahead of its workload ops.
	wantOps := int64(conns*opsPer) + 256/int64(conns)*int64(conns)
	if rep.Ops != wantOps {
		t.Fatalf("logged %d ops, want %d", rep.Ops, wantOps)
	}
	if rep.BytesWritten == 0 || rep.BytesRead == 0 || rep.Flushes == 0 {
		t.Fatalf("degenerate soak: %+v", rep)
	}
	// Every op and flush barrier, plus each connection's closing FLUSH, is
	// one request frame; no socket write is empty.
	if want := uint64(rep.Ops + rep.Flushes + int64(conns)); rep.FramesSent != want || rep.SocketWrites == 0 || rep.SocketWrites > rep.FramesSent {
		t.Fatalf("%d frames in %d socket writes, want %d frames", rep.FramesSent, rep.SocketWrites, want)
	}
	if err := rep.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrain closes the server while writes are in flight and
// checks every acknowledged write is durable in the engine — acks are
// never dropped by shutdown. Close starts at an ack barrier: once the
// clients have seen barrier acknowledgements, with most of the stream still
// unsent or in flight.
func TestGracefulDrain(t *testing.T) {
	const nConns, perConn, barrier = 4, 1500, 64
	e := testEngine(t, 2, nConns*perConn/4)
	defer e.Close()
	s, err := Listen("127.0.0.1:0", e, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var oks []int64 // acknowledged LBAs; LBA l carries workload.Fill seed l+1
	reached := make(chan struct{})

	var wg sync.WaitGroup
	for ci := 0; ci < nConns; ci++ {
		c, err := Dial(s.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		done := make(chan *Call, perConn)
		wg.Add(2)
		go func() { // sender: disjoint LBAs, so no ordering hazards
			defer wg.Done()
			buf := make([]byte, testChunk)
			for i := 0; i < perConn; i++ {
				lba := int64(ci*perConn + i)
				workload.Fill(buf, uint64(lba)+1)
				c.Go(wire.Frame{Type: wire.TWrite, Arg: lba, Count: uint32(len(buf)), Payload: buf}, done)
			}
		}()
		go func() { // receiver: counts acks as they arrive
			defer wg.Done()
			for range perConn {
				call := <-done
				if call.Err != nil {
					continue
				}
				mu.Lock()
				oks = append(oks, call.Req.Arg)
				if len(oks) == barrier {
					close(reached)
				}
				mu.Unlock()
			}
		}()
	}

	await(t, "the ack barrier", reached)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()

	want := make([]byte, testChunk)
	got := make([]byte, testChunk)
	for _, lba := range oks {
		workload.Fill(want, uint64(lba)+1)
		if _, err := e.ReadChunks(0, lba, got); err != nil {
			t.Fatalf("acked write at %d unreadable: %v", lba, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acked write at %d not durable", lba)
		}
	}
	t.Logf("%d of %d writes acknowledged before the drain finished", len(oks), nConns*perConn)
	if len(oks) == 0 {
		t.Fatal("no writes acked before drain — test proved nothing")
	}
}

// stubEngine counts what the server asks of the engine — write batches,
// FoldPressured calls and their thresholds, read batches and their sizes —
// and can park its first ReadBatch or every WriteBatch. The server can
// reach nothing else: Engine has no Commit.
type stubEngine struct {
	writes     atomic.Int64
	readOps    atomic.Int64
	readCalls  atomic.Int64
	offReader  atomic.Int64  // ReadBatch calls made off a connection's reader goroutine
	readStall  chan struct{} // non-nil: ReadBatch blocks until closed
	stallOnce  sync.Once
	stallEntry chan struct{} // signaled when the first ReadBatch parks

	writeEntry chan struct{} // non-nil: receives once per WriteBatch entered
	writeStall chan struct{} // non-nil: WriteBatch blocks until closed
	inWrite    atomic.Int32
	closedInOp atomic.Bool // Close arrived while a WriteBatch was running

	mu         sync.Mutex
	thresholds []float64 // one per FoldPressured call
}

func (s *stubEngine) WriteBatch(ops []core.BatchOp) {
	s.inWrite.Add(1)
	defer s.inWrite.Add(-1)
	s.writes.Add(int64(len(ops)))
	if s.writeEntry != nil {
		s.writeEntry <- struct{}{}
	}
	if s.writeStall != nil {
		<-s.writeStall
	}
}
func (s *stubEngine) ReadBatch(ops []core.ReadOp) {
	s.readCalls.Add(1)
	s.readOps.Add(int64(len(ops)))
	if !calledFrom(".(*conn).reader") {
		s.offReader.Add(1)
	}
	if s.readStall != nil {
		s.stallOnce.Do(func() { close(s.stallEntry) })
		<-s.readStall
	}
}
func (s *stubEngine) ReadChunks(start float64, lba int64, p []byte) (float64, error) {
	return start, nil
}
func (s *stubEngine) Flush() error { return nil }
func (s *stubEngine) FoldPressured(threshold float64) {
	s.mu.Lock()
	s.thresholds = append(s.thresholds, threshold)
	s.mu.Unlock()
}
func (s *stubEngine) foldCalls() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.thresholds...)
}
func (s *stubEngine) Chunks() int64            { return 1 << 20 }
func (s *stubEngine) ChunkSize() int           { return testChunk }
func (s *stubEngine) Geometry() store.Geometry { return store.Geometry{K: 4, N: 6, Stripes: 1 << 18} }
func (s *stubEngine) WritePressure() float64   { return 1 } // never parks anyone
func (s *stubEngine) PendingLogStripes() int   { return 0 }
func (s *stubEngine) NumShards() int           { return 1 }
func (s *stubEngine) Close() error {
	s.closedInOp.Store(s.inWrite.Load() != 0)
	return nil
}

func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	var zero T
	return zero
}

// TestCloseIdempotent checks double-Close and close-with-idle-conns.
func TestCloseIdempotent(t *testing.T) {
	s, _ := startServer(t, 1, 16, Options{})
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(0, make([]byte, testChunk)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

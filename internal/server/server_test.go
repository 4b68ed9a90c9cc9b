package server

import (
	"bytes"
	"math"
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
	t.Helper()
	const k, n = 4, 6
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(stripes*4, testChunk)
	}
	logs := make([]device.Dev, n-k)
	for i := range logs {
		logs[i] = device.NewMem(stripes*8, testChunk)
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
	opts.CloseStore = true
	s, err := Listen("127.0.0.1:0", e, opts)
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, e
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
	if err := rep.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrain closes the server while writes are in flight and
// checks every acknowledged write is durable in the engine — acks are
// never dropped by shutdown.
func TestGracefulDrain(t *testing.T) {
	e := testEngine(t, 2, 256)
	defer e.Close()
	s, err := Listen("127.0.0.1:0", e, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const nConns, perConn = 4, 200
	type acked struct {
		lba  int64
		seed uint64
	}
	var mu sync.Mutex
	var oks []acked

	var wg sync.WaitGroup
	wg.Add(nConns)
	for ci := 0; ci < nConns; ci++ {
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(s.Addr().String(), 0)
			if err != nil {
				return
			}
			defer c.Close()
			done := make(chan *Call, perConn)
			buf := make([]byte, testChunk)
			pending := make(map[*Call]acked)
			for i := 0; i < perConn; i++ {
				seed := uint64(ci*perConn + i + 1)
				lba := int64(ci*perConn + i) // disjoint LBAs: no ordering hazards
				workload.Fill(buf, seed)
				call := c.Go(wire.Frame{Type: wire.TWrite, Arg: lba, Count: uint32(len(buf)), Payload: buf}, done)
				pending[call] = acked{lba, seed}
			}
			for range perConn {
				call := <-done
				if call.Err == nil {
					mu.Lock()
					oks = append(oks, pending[call])
					mu.Unlock()
				}
			}
		}(ci)
	}

	time.Sleep(5 * time.Millisecond) // let some writes take flight mid-stream
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()

	want := make([]byte, testChunk)
	got := make([]byte, testChunk)
	for _, a := range oks {
		workload.Fill(want, a.seed)
		if _, err := e.ReadChunks(0, a.lba, got); err != nil {
			t.Fatalf("acked write at %d unreadable: %v", a.lba, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acked write at %d not durable", a.lba)
		}
	}
	if len(oks) == 0 {
		t.Fatal("no writes acked before drain — test proved nothing")
	}
}

// stubEngine gives the gate tests a controllable pressure signal, a hook
// into forced folds and counts of both calls, and the batching tests
// visibility into how reads arrive (batch count + sizes).
type stubEngine struct {
	pressure   atomic.Uint64 // float64 bits
	writes     atomic.Int64
	readOps    atomic.Int64
	readCalls  atomic.Int64
	readStall  chan struct{} // non-nil: ReadBatch blocks until closed
	stallOnce  sync.Once
	stallEntry chan struct{} // signaled when the first ReadBatch parks

	pressureCalls atomic.Int64
	commitCalls   atomic.Int64
	onCommit      func(call int64) error // nil: Commit succeeds; set before serving
	inCommit      atomic.Int32
	closedInFold  atomic.Bool // Close arrived while a Commit was running
}

func (s *stubEngine) setPressure(p float64) { s.pressure.Store(math.Float64bits(p)) }

func (s *stubEngine) WriteBatch(ops []core.BatchOp) { s.writes.Add(int64(len(ops))) }
func (s *stubEngine) ReadBatch(ops []core.ReadOp) {
	s.readCalls.Add(1)
	s.readOps.Add(int64(len(ops)))
	if s.readStall != nil {
		s.stallOnce.Do(func() { close(s.stallEntry) })
		<-s.readStall
	}
}
func (s *stubEngine) ReadChunks(start float64, lba int64, p []byte) (float64, error) {
	return start, nil
}
func (s *stubEngine) Flush() error { return nil }
func (s *stubEngine) Commit() error {
	s.inCommit.Add(1)
	defer s.inCommit.Add(-1)
	n := s.commitCalls.Add(1)
	if s.onCommit == nil {
		return nil
	}
	return s.onCommit(n)
}
func (s *stubEngine) Chunks() int64            { return 1 << 20 }
func (s *stubEngine) ChunkSize() int           { return testChunk }
func (s *stubEngine) Geometry() store.Geometry { return store.Geometry{K: 4, N: 6, Stripes: 1 << 18} }
func (s *stubEngine) WritePressure() float64 {
	s.pressureCalls.Add(1)
	return math.Float64frombits(s.pressure.Load())
}
func (s *stubEngine) PendingLogStripes() int { return 0 }
func (s *stubEngine) NumShards() int         { return 1 }
func (s *stubEngine) Close() error {
	s.closedInFold.Store(s.inCommit.Load() != 0)
	return nil
}

// TestBackpressureGate drives pressure over the high-water mark and checks
// the server stops reading new frames, then resumes once pressure decays
// below the low-water mark.
func TestBackpressureGate(t *testing.T) {
	eng := &stubEngine{}
	s, err := Listen("127.0.0.1:0", eng, Options{HighWater: 0.8, LowWater: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// First write: processed normally, then updateGate sees high pressure
	// and closes the gate.
	eng.setPressure(1.0)
	if err := c.Write(0, make([]byte, testChunk)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gate to close", func() bool {
		s.gate.mu.Lock()
		defer s.gate.mu.Unlock()
		return s.gate.closed
	})

	// The next frame must park at the gate: the engine sees no new writes.
	done := make(chan *Call, 1)
	c.Go(wire.Frame{Type: wire.TWrite, Arg: 4, Count: testChunk, Payload: make([]byte, testChunk)}, done)
	time.Sleep(30 * time.Millisecond)
	if n := eng.writes.Load(); n != 1 {
		t.Fatalf("engine saw %d writes while gated, want 1", n)
	}

	// Pressure decays (as background folds would make it); the refresher
	// reopens the gate and the parked write completes.
	eng.setPressure(0.1)
	select {
	case call := <-done:
		if call.Err != nil {
			t.Fatalf("post-gate write: %v", call.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write never completed after pressure decayed")
	}
	if n := eng.writes.Load(); n != 2 {
		t.Fatalf("engine saw %d writes after reopen, want 2", n)
	}
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

package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/wire"
)

// gateFixture serves a stub engine whose pressure one write pushes over the
// high-water mark, with a sink so the net.* fold metrics can be read back.
type gateFixture struct {
	eng  *stubEngine
	sink *obs.Sink
	s    *Server
	c    *Client
}

func newGateFixture(t *testing.T, eng *stubEngine) *gateFixture {
	t.Helper()
	f := &gateFixture{eng: eng, sink: obs.NewSink(64)}
	s, err := Listen("127.0.0.1:0", f.eng, Options{HighWater: 0.8, LowWater: 0.5, Sink: f.sink, CloseStore: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	f.s, f.c = s, c
	return f
}

// crossHighWater acknowledges one write under full pressure: the batch that
// carried it closes the gate and starts the folder.
func (f *gateFixture) crossHighWater(t *testing.T) {
	t.Helper()
	f.eng.setPressure(1.0)
	if err := f.c.Write(0, make([]byte, testChunk)); err != nil {
		t.Fatal(err)
	}
}

// parkWrite sends a second write and returns once its reader is parked at
// the closed gate.
func (f *gateFixture) parkWrite(t *testing.T) chan *Call {
	t.Helper()
	done := make(chan *Call, 1)
	f.c.Go(wire.Frame{Type: wire.TWrite, Arg: 4, Count: testChunk, Payload: make([]byte, testChunk)}, done)
	waitFor(t, "the second write to park at the gate", func() bool {
		return f.sink.Counter("net.gate_waits").Value() == 1
	})
	if n := f.eng.writes.Load(); n != 1 {
		t.Fatalf("engine saw %d writes while gated, want 1", n)
	}
	return done
}

func (f *gateFixture) awaitWrite(t *testing.T, done chan *Call) {
	t.Helper()
	if call := await(t, "the parked write", done); call.Err != nil {
		t.Fatalf("parked write: %v", call.Err)
	}
}

func (f *gateFixture) awaitFolderExit(t *testing.T) {
	t.Helper()
	waitFor(t, "the folder to exit", func() bool { return !f.s.refreshing.Load() })
	f.s.folderWG.Wait()
}

// foldLatch is what a stub Commit blocks on. open is safe to call twice, so
// a test registers it as a cleanup too: a failed test must not leave the
// fixture's Close waiting for a fold nobody releases. (Cleanups run last
// registered first, so register it after the fixture.)
func foldLatch() (wait <-chan struct{}, open func()) {
	ch := make(chan struct{})
	return ch, sync.OnceFunc(func() { close(ch) })
}

func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	var zero T
	return zero
}

// TestGateFoldsAtOnce: the batch that crosses the high-water mark leads
// straight to one forced fold — no poll of the pressure comes first — and
// the gate reopens the moment that fold has cleared it.
func TestGateFoldsAtOnce(t *testing.T) {
	eng := &stubEngine{}
	polls := make(chan int64, 1)
	release, open := foldLatch()
	eng.onCommit = func(int64) error {
		polls <- eng.pressureCalls.Load()
		<-release
		eng.setPressure(0.1)
		return nil
	}
	f := newGateFixture(t, eng)
	t.Cleanup(open)
	f.crossHighWater(t)
	// updateGate's own reading, and at most one more: a refresher that
	// waited on its ticker would have polled five times by now.
	if n := await(t, "the forced fold", polls); n > 2 {
		t.Fatalf("engine saw %d WritePressure calls before the fold, want at most 2", n)
	}
	done := f.parkWrite(t)
	open()
	f.awaitWrite(t, done)
	f.awaitFolderExit(t)

	if n := f.eng.commitCalls.Load(); n != 1 {
		t.Fatalf("engine saw %d Commit calls, want 1", n)
	}
	if n := f.sink.Counter("net.forced_folds").Value(); n != 1 {
		t.Fatalf("net.forced_folds = %d, want 1", n)
	}
	if n := f.sink.Counter("net.fold_errors").Value(); n != 0 {
		t.Fatalf("net.fold_errors = %d, want 0", n)
	}
	for _, name := range []string{"net.gate_closed_seconds", "net.fold_seconds"} {
		if h := f.sink.Histogram(name).Snapshot(); h.Count != 1 || h.Sum <= 0 {
			t.Fatalf("%s = %d observations summing to %g s, want one positive", name, h.Count, h.Sum)
		}
	}
	if v := f.sink.Gauge("net.gate_closed").Value(); v != 0 {
		t.Fatalf("net.gate_closed = %g after the reopen", v)
	}
}

// TestGateFallbackTicker: pressure a fold does not clear is polled on the
// ticker, five polls to a re-fold, and the gate reopens once it is lowered.
func TestGateFallbackTicker(t *testing.T) {
	type fold struct {
		polls int64
		at    time.Time
	}
	eng := &stubEngine{}
	folds := make(chan fold, 2) // the test reads the first two; later ones are dropped
	eng.onCommit = func(int64) error {
		select {
		case folds <- fold{eng.pressureCalls.Load(), time.Now()}:
		default:
		}
		return nil
	}
	f := newGateFixture(t, eng)
	f.crossHighWater(t)
	first := await(t, "the forced fold", folds)
	done := f.parkWrite(t)
	second := await(t, "the fallback re-fold", folds)
	if n := second.polls - first.polls; n != 5 {
		t.Fatalf("%d WritePressure polls between two folds, want 5", n)
	}
	// A lower bound only: four whole tick periods separate the folds at the
	// least, and a loaded host makes it longer, never shorter.
	if d := second.at.Sub(first.at); d < 5*time.Millisecond {
		t.Fatalf("re-fold %v after the first: the fallback is spinning, not ticking", d)
	}
	f.eng.setPressure(0.1)
	f.awaitWrite(t, done)
	f.awaitFolderExit(t)
	if folds, forced := f.eng.commitCalls.Load(), f.sink.Counter("net.forced_folds").Value(); folds != forced {
		t.Fatalf("engine saw %d Commit calls, net.forced_folds = %d", folds, forced)
	}
}

// TestGateFoldError: a fold that fails must not leave the clients parked
// behind a gate nothing will open. It is counted, the gate reopens with the
// pressure still high, and the folder exits.
func TestGateFoldError(t *testing.T) {
	eng := &stubEngine{}
	entered := make(chan struct{}, 1)
	release, open := foldLatch()
	eng.onCommit = func(call int64) error {
		if call == 1 {
			entered <- struct{}{}
			<-release
			return errors.New("fold failed")
		}
		eng.setPressure(0.1) // the batch of the admitted write folds again
		return nil
	}
	f := newGateFixture(t, eng)
	t.Cleanup(open)
	f.crossHighWater(t)
	await(t, "the forced fold", entered)
	done := f.parkWrite(t)
	open()
	f.awaitWrite(t, done)
	waitFor(t, "the second fold to clear the pressure", func() bool { return f.eng.commitCalls.Load() == 2 })
	f.awaitFolderExit(t)
	if n := f.sink.Counter("net.fold_errors").Value(); n != 1 {
		t.Fatalf("net.fold_errors = %d, want 1", n)
	}
	if n := f.sink.Histogram("net.gate_closed_seconds").Snapshot().Count; n != 2 {
		t.Fatalf("net.gate_closed_seconds has %d observations, want 2 (the failed fold's closure and the next)", n)
	}
}

// TestGateCloseWaitsForFold: Close outlives a fold in flight — it does not
// reach the engine's Close until Commit has returned — and leaves no folder
// behind.
func TestGateCloseWaitsForFold(t *testing.T) {
	entered := make(chan struct{}, 1)
	release, open := foldLatch()
	f := newGateFixture(t, &stubEngine{onCommit: func(int64) error {
		entered <- struct{}{}
		<-release
		return nil
	}})
	t.Cleanup(open)
	f.crossHighWater(t)
	await(t, "the forced fold", entered)

	closed := make(chan error, 1)
	go func() { closed <- f.s.Close() }()
	// The dispatcher is gone: all that Close still waits for is the folder.
	await(t, "the dispatcher to stop", f.s.dispatchDone)
	select {
	case <-closed:
		t.Fatal("Close returned while a fold was in flight")
	default:
	}
	open()
	if err := await(t, "Close", closed); err != nil {
		t.Fatal(err)
	}
	if f.eng.closedInFold.Load() {
		t.Fatal("the engine was closed under a running Commit")
	}
	if f.s.refreshing.Load() {
		t.Fatal("refreshing still set after Close")
	}
}

package core

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// errInjected is a non-ErrFailed device error: tolerantWrite swallows
// ErrFailed (a failed device is rebuilt later), so background-commit
// failure injection must use an error the engine cannot shrug off.
var errInjected = errors.New("injected device read failure")

// brokenReadDev passes everything through until armed, then fails every
// read with errInjected — or, failed, every read and write with
// device.ErrFailed, a device.Faulty that a test can fail while other
// goroutines use the array. The flags are atomic so tests can arm them while
// the background committer is running. An ioHold stored in hold parks the
// next read, one stored in wHold the next write (one shot, before the flag
// checks), so a test can keep a fold open in its lock-free read phase or,
// under its shard lock, in its parity writes, and knows when it got there.
type brokenReadDev struct {
	device.Dev
	broken, failed atomic.Bool
	hold, wHold    atomic.Pointer[ioHold]
	reads          atomic.Int64 // reads that reached the device
}

type ioHold struct{ entered, release chan struct{} }

func newIOHold() *ioHold {
	return &ioHold{entered: make(chan struct{}), release: make(chan struct{})}
}

func park(hold *atomic.Pointer[ioHold]) {
	if h := hold.Swap(nil); h != nil {
		close(h.entered)
		<-h.release
	}
}

func (d *brokenReadDev) ReadChunk(idx int64, p []byte) error {
	_, err := d.ReadChunkAt(0, idx, p)
	return err
}

func (d *brokenReadDev) ReadChunkAt(start float64, idx int64, p []byte) (float64, error) {
	park(&d.hold)
	switch {
	case d.failed.Load():
		return start, device.ErrFailed
	case d.broken.Load():
		return start, errInjected
	}
	d.reads.Add(1)
	return d.Dev.ReadChunkAt(start, idx, p)
}

func (d *brokenReadDev) WriteChunk(idx int64, p []byte) error {
	_, err := d.WriteChunkAt(0, idx, p)
	return err
}

func (d *brokenReadDev) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	park(&d.wHold)
	if d.failed.Load() {
		return start, device.ErrFailed
	}
	return d.Dev.WriteChunkAt(start, idx, p)
}

// newBrokenArray builds a write-behind engine whose main devices can be
// switched to failing reads, and primes every stripe so updates take the
// elastic-logging path.
func newShutdownArray(t *testing.T, cfg Config) (*EPLog, []*brokenReadDev) {
	t.Helper()
	e, broken, _ := newHoldArray(t, cfg)
	return e, broken
}

// newHoldArray is newShutdownArray with the log devices wrapped too.
func newHoldArray(t *testing.T, cfg Config) (e *EPLog, main, logs []*brokenReadDev) {
	t.Helper()
	const n, k = 6, 4
	cfg.K = k
	if cfg.Stripes == 0 {
		cfg.Stripes = testStripes
	}
	wrap := func(n int, chunks int64) ([]device.Dev, []*brokenReadDev) {
		devs, broken := make([]device.Dev, n), make([]*brokenReadDev, n)
		for i := range devs {
			broken[i] = &brokenReadDev{Dev: device.NewMem(chunks, testChunk)}
			devs[i] = broken[i]
		}
		return devs, broken
	}
	devs, main := wrap(n, testDevChunks)
	logDevs, logs := wrap(n-k, testLogChunks)
	e, err := New(devs, logDevs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, main, logs
}

// primeAndDirty fills every stripe (write path only — elastic logging
// never reads on write) and then updates one chunk per stripe, leaving
// pending log stripes and a dirty set for a later parity fold.
func primeAndDirty(t *testing.T, e *EPLog) {
	t.Helper()
	full := chunkData(1, e.geo.K)
	for s := int64(0); s < e.geo.Stripes; s++ {
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
			t.Fatal(err)
		}
	}
	for s := int64(0); s < e.geo.Stripes; s++ {
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), chunkData(int(40+s), 1)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseDrainsQueuedShard pins the shutdown half of the write-behind
// contract: a shard marked queued for a background fold whose wake signal
// never reached the scheduler (the lost-wake shutdown race) must still be
// committed by Close, not abandoned with its log stripes pending. Against
// the pre-fix Close — which only stopped the scheduler — PendingLogStripes
// stays nonzero and this test fails.
func TestCloseDrainsQueuedShard(t *testing.T) {
	e, _ := newShutdownArray(t, Config{WriteBehind: true})
	primeAndDirty(t, e)
	if e.PendingLogStripes() == 0 {
		t.Fatal("setup: no pending log stripes")
	}
	commitsBefore := e.Stats().Commits
	// Simulate an enqueue whose wake the scheduler never saw.
	e.shards[0].queued.Store(true)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := e.PendingLogStripes(); got != 0 {
		t.Errorf("Close left %d log stripes pending; queued shard was not drained", got)
	}
	if got := e.Stats().Commits; got != commitsBefore+1 {
		t.Errorf("Commits = %d after Close, want %d", got, commitsBefore+1)
	}
}

// TestCloseSurfacesAsyncErr: a background fold failure the engine promised
// to surface "on the next write" must not vanish when no write ever comes
// — Close is the last chance to report it. The pre-fix Close returned nil
// unconditionally.
func TestCloseSurfacesAsyncErr(t *testing.T) {
	e, _ := newShutdownArray(t, Config{WriteBehind: true})
	sh := e.shards[0]
	sh.mu.Lock()
	sh.asyncErr = errInjected
	sh.mu.Unlock()
	if err := e.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want pending asyncErr", err)
	}
	// Idempotent: every call reports the same outcome.
	if err := e.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("second Close = %v, want the same error", err)
	}
}

// TestFlushSurfacesAsyncErr: a durability barrier must not report success
// while a scheduled parity fold has already failed. The pre-fix Flush
// never consulted asyncErr.
func TestFlushSurfacesAsyncErr(t *testing.T) {
	e, _ := newShutdownArray(t, Config{WriteBehind: true})
	defer e.Close()
	sh := e.shards[0]
	sh.mu.Lock()
	sh.asyncErr = errInjected
	sh.mu.Unlock()
	if err := e.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush = %v, want pending asyncErr", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want nil (error already reported)", err)
	}
}

// TestCloseSurfacesFailedDrainCommit drives the failure end to end through
// a real device: the drain commit Close runs for a still-queued shard hits
// failing reads in its fold phase, and the error comes back from Close.
func TestCloseSurfacesFailedDrainCommit(t *testing.T) {
	e, broken := newShutdownArray(t, Config{WriteBehind: true})
	primeAndDirty(t, e)
	for _, b := range broken {
		b.broken.Store(true)
	}
	e.shards[0].queued.Store(true)
	if err := e.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want injected fold failure", err)
	}
}

// TestBackgroundCommitErrorSurfacesOnWrite exercises the asynchronous
// error contract end to end: a CommitEvery-triggered background fold hits
// failing device reads, and the failure surfaces on a subsequent write to
// the shard (writes themselves keep succeeding — the elastic write path
// never reads).
func TestBackgroundCommitErrorSurfacesOnWrite(t *testing.T) {
	e, broken := newShutdownArray(t, Config{WriteBehind: true, CommitEvery: 2})
	defer e.Close()
	full := chunkData(1, e.geo.K)
	for s := int64(0); s < e.geo.Stripes; s++ {
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range broken {
		b.broken.Store(true)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		_, err := e.WriteChunks(0, int64(i)%e.geo.Chunks(), chunkData(7+i, 1))
		if errors.Is(err, errInjected) {
			return
		}
		if err != nil {
			t.Fatalf("write failed with %v, want errInjected", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("background fold failure never surfaced on a write")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitterDrainsOnStop pins the scheduler's own shutdown race:
// an enqueue whose wake signal the run loop's select dropped in favor of
// stop must still be folded before done closes. Pre-fix, run returned
// immediately on stop and the queued shard kept its pending log stripes
// (Close now also drains, so this drives the scheduler directly to
// isolate the run-loop fix).
func TestGroupCommitterDrainsOnStop(t *testing.T) {
	e, _ := newShutdownArray(t, Config{WriteBehind: true})
	primeAndDirty(t, e)
	// queued set without a wake: the only chance to fold it is the
	// post-stop sweep inside run.
	e.shards[0].queued.Store(true)
	e.gc.shutdown()
	if e.shards[0].queued.Load() {
		t.Error("shard still queued after scheduler shutdown")
	}
	if got := e.PendingLogStripes(); got != 0 {
		t.Errorf("scheduler shutdown left %d log stripes pending", got)
	}
}

// TestDirtyWindowBackpressure checks the bounded write-behind window:
// with DirtyWindowStripes = w, a shard never accumulates more than w
// pending log stripes plus the one the in-flight write appends, and the
// writer always makes progress (the window wait must wake when the
// background fold drains the shard).
func TestDirtyWindowBackpressure(t *testing.T) {
	const w = 2
	sink := obs.NewSink()
	e, _ := newShutdownArray(t, Config{WriteBehind: true, DirtyWindowStripes: w, Obs: sink})
	defer e.Close()
	full := chunkData(1, e.geo.K)
	for s := int64(0); s < e.geo.Stripes; s++ {
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if _, err := e.WriteChunks(0, int64(i)%e.geo.Chunks(), chunkData(50+i, 1)); err != nil {
			t.Fatal(err)
		}
		if got := e.PendingLogStripes(); got > w+1 {
			t.Fatalf("write %d: %d log stripes pending, window is %d", i, got, w)
		}
	}
	if e.Stats().Commits == 0 {
		t.Error("no background fold ran; the window never drained")
	}
	// Each fold frees the whole window, so roughly every w+1-th write parks.
	if h := sink.Histogram("core.window_wait_seconds").Snapshot(); h.Count == 0 || h.Count >= 64 || h.Sum <= 0 {
		t.Errorf("core.window_wait_seconds: %d waits summing to %g s over 64 writes, want some but not all", h.Count, h.Sum)
	}
}

// TestWriteBehindReadBack: data acknowledged at log-append with folds
// running fully asynchronously must still read back correctly, before and
// after Close.
func TestWriteBehindReadBack(t *testing.T) {
	e, _ := newShutdownArray(t, Config{WriteBehind: true, CommitEvery: 4, DirtyWindowStripes: 8})
	want := chunkData(3, int(e.geo.Chunks()))
	if _, err := e.WriteChunks(0, 0, want); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		for lba := int64(0); lba < e.geo.Chunks(); lba += 5 {
			upd := chunkData(100+v+int(lba), 1)
			if _, err := e.WriteChunks(0, lba, upd); err != nil {
				t.Fatal(err)
			}
			copy(want[lba*testChunk:], upd)
		}
	}
	got := make([]byte, len(want))
	if _, err := e.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read-back mismatch with write-behind folds in flight")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := e.PendingLogStripes(); got != 0 {
		t.Errorf("%d log stripes pending after Close", got)
	}
	clear(got)
	if _, err := e.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read-back mismatch after Close")
	}
}

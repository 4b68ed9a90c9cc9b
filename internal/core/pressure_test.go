package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/eplog/eplog/internal/obs"
)

const (
	pressureWindow = 16
	pressureMark   = 0.75 // 12 of 16 log stripes
	hotShard       = 1
)

// pressureArray is a primed write-behind engine with the shard owning
// hotStripes — hotShard of four, or the only one — filled to pressureMark of
// its dirty window and every other shard holding one pending log stripe.
type pressureArray struct {
	e          *EPLog
	devs, logs []*brokenReadDev
	sink       *obs.Sink
	wrote      map[int64][]byte // latest payload per updated LBA
	hot        int              // the index of the shard owning hotStripes
	hotLBA     int64            // the first LBA of hotStripes[0]
}

func newPressureArray(t *testing.T, shards int) *pressureArray {
	t.Helper()
	pa := primePressureArray(t, shards)
	pa.fillHot(t)
	return pa
}

// primePressureArray is newPressureArray with the hot shard left clean, for
// tests that dirty it their own way.
func primePressureArray(t *testing.T, shards int) *pressureArray {
	t.Helper()
	pa := &pressureArray{sink: obs.NewSink(), wrote: make(map[int64][]byte), hot: hotShard % shards}
	pa.e, pa.devs, pa.logs = newHoldArray(t, Config{Shards: shards, WriteBehind: true, DirtyWindowStripes: pressureWindow, Obs: pa.sink})
	t.Cleanup(func() { pa.e.Close() })
	e := pa.e
	full := chunkData(1, e.geo.K)
	for s := int64(0); s < e.geo.Stripes; s++ {
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
			t.Fatal(err)
		}
	}
	for sh := 0; sh < e.nShards; sh++ {
		if sh != pa.hot {
			pa.update(t, e.geo.LBA(int64(sh), 0))
		}
	}
	pa.hotLBA = e.geo.LBA(hotStripes[0], 0)
	return pa
}

func (pa *pressureArray) update(t *testing.T, lba int64) {
	t.Helper()
	data := chunkData(100+len(pa.wrote), 1)
	if _, err := pa.e.WriteChunks(0, lba, data); err != nil {
		t.Fatal(err)
	}
	pa.wrote[lba] = data
}

// hotStripes are the stripes fillHot dirties, ascending — the order a fold
// takes them in; lateStripe is hotShard's fourth and last, left clean.
var hotStripes = [3]int64{hotShard, hotShard + 4, hotShard + 8}

const lateStripe = hotShard + 12

// fillHot spreads single-chunk updates over hotStripes (and so over the
// SSDs) until the hot shard's window fill reaches pressureMark: every chunk
// of the three stripes once.
func (pa *pressureArray) fillHot(t *testing.T) {
	t.Helper()
	e := pa.e
	for i := 0; e.shards[pa.hot].fill() < pressureMark; i++ {
		pa.update(t, e.geo.LBA(hotStripes[i%3], i/3%e.geo.K))
	}
}

// holdRead makes the committer's prefold of the hot shard park at its
// second device read — hotLBA's location recorded and read, no lock held —
// and returns the hold and the SSD it parks on (under that device's own
// mutex: nothing else gets through to it meanwhile).
func (pa *pressureArray) holdRead() (*ioHold, int) {
	h := newIOHold()
	dev := pa.e.loadLatest(pa.e.geo.LBA(hotStripes[0], 1)).Dev
	pa.devs[dev].hold.Store(h)
	return h, dev
}

// holdWrite makes the fold of the hot shard park at its first parity write
// — its first stripe's, with the shard lock held and the prefold over — and
// returns the hold and the SSD it parks on.
func (pa *pressureArray) holdWrite() (*ioHold, int) {
	h := newIOHold()
	dev := pa.e.geo.ParityDev(hotStripes[0], 0)
	pa.devs[dev].wHold.Store(h)
	return h, dev
}

// lbaOff returns an LBA of stripe whose latest version is not on dev.
func (pa *pressureArray) lbaOff(t *testing.T, stripe int64, dev int) int64 {
	t.Helper()
	for j := 0; j < pa.e.geo.K; j++ {
		if lba := pa.e.geo.LBA(stripe, j); pa.e.loadLatest(lba).Dev != dev {
			return lba
		}
	}
	t.Fatalf("setup: every chunk of stripe %d sits on SSD %d", stripe, dev)
	return -1
}

// checkClean reads every updated LBA back and scrubs the array.
func (pa *pressureArray) checkClean(t *testing.T) {
	t.Helper()
	got := make([]byte, testChunk)
	for lba, want := range pa.wrote {
		if _, err := pa.e.ReadChunks(0, lba, got); err != nil || !bytes.Equal(got, want) {
			t.Errorf("LBA %d: err %v, match %v", lba, err, bytes.Equal(got, want))
		}
	}
	if rep, err := pa.e.Verify(); err != nil || !rep.OK() {
		t.Errorf("scrub: %+v, %v", rep, err)
	}
}

func (pa *pressureArray) counter(name string) int64 { return pa.sink.Counter(name).Value() }

func (pa *pressureArray) commits(shard int) int64 {
	sh := pa.e.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.stats.Commits
}

func (pa *pressureArray) trigger(shard int, cause string) int64 {
	return pa.sink.Counter(fmt.Sprintf("core.shard%d.commit_trigger.%s", shard, cause)).Value()
}

// within fails the test unless f returns in time: what it guards must not
// queue behind the held fold.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return while a fold was held open", what)
	}
}

// TestFoldPressuredFoldsOnlyThePressuredShard: the one shard at the mark is
// folded, in the background, attributed to pressure, its parity published
// from the prefold's table; the other shards' log stripes stay; and while
// that fold holds its shard lock, the lock-free pressure accessors and a
// read of another shard complete.
func TestFoldPressuredFoldsOnlyThePressuredShard(t *testing.T) {
	pa := newPressureArray(t, 4)
	e := pa.e
	before := e.Stats()
	h, heldDev := pa.holdWrite()
	e.FoldPressured(pressureMark)
	within(t, "the committer reaching the fold", func() { <-h.entered })

	within(t, "WritePressure, PendingLogStripes, PendingLogChunks and FoldPressured", func() {
		if p := e.WritePressure(); p < pressureMark {
			t.Errorf("WritePressure = %g during the fold, want the unfolded shard's %g", p, pressureMark)
		}
		if n := e.PendingLogStripes(); n < pressureWindow*pressureMark {
			t.Errorf("PendingLogStripes = %d during the fold", n)
		}
		e.PendingLogChunks()
		e.FoldPressured(pressureMark) // sees the shard still full; covered by the fold in flight
	})
	var coldLBA int64 = -1
	for lba := range pa.wrote {
		if e.shardOfLBA(lba).idx != hotShard && e.loadLatest(lba).Dev != heldDev {
			coldLBA = lba
		}
	}
	if coldLBA < 0 {
		t.Fatal("setup: every cold update sits on the held SSD")
	}
	within(t, "a read of another shard", func() {
		got := make([]byte, testChunk)
		if _, err := e.ReadChunks(0, coldLBA, got); err != nil {
			t.Errorf("read of LBA %d: %v", coldLBA, err)
		} else if !bytes.Equal(got, pa.wrote[coldLBA]) {
			t.Errorf("read of LBA %d returned stale data", coldLBA)
		}
	})

	close(h.release)
	if err := e.Flush(); err != nil { // takes every shard lock: returns after the fold
		t.Fatal(err)
	}
	for sh := 0; sh < e.nShards; sh++ {
		wantCommits, wantPending := int64(0), int64(1)
		if sh == hotShard {
			wantCommits, wantPending = 1, 0
		}
		if got := pa.commits(sh); got != wantCommits {
			t.Errorf("shard %d: %d commits, want %d", sh, got, wantCommits)
		}
		if got := e.shards[sh].pendingStripes.Load(); got != wantPending {
			t.Errorf("shard %d: %d log stripes pending, want %d", sh, got, wantPending)
		}
		if got := pa.trigger(sh, "pressure"); got != wantCommits {
			t.Errorf("shard %d: commit_trigger.pressure = %d, want %d", sh, got, wantCommits)
		}
		if got := pa.trigger(sh, "manual"); got != 0 {
			t.Errorf("shard %d: commit_trigger.manual = %d, want 0", sh, got)
		}
	}
	if n := pa.sink.Histogram("core.window_wait_seconds").Snapshot().Count; n != 0 {
		t.Errorf("core.window_wait_seconds has %d observations; no writer met a full window", n)
	}
	// Nothing wrote to the shard during the fold: every stripe is read once,
	// by the prefold, and published from the table.
	hot := int64(len(hotStripes))
	if hit, stale := pa.counter("core.prefold_stripes"), pa.counter("core.prefold_stale"); hit != hot || stale != 0 {
		t.Errorf("core.prefold_stripes = %d, core.prefold_stale = %d, want %d and 0", hit, stale, hot)
	}
	if d := e.Stats().CommitReadChunks - before.CommitReadChunks; d != hot*int64(e.geo.K) {
		t.Errorf("the fold read %d chunks, want %d (k per dirty stripe)", d, hot*int64(e.geo.K))
	}
	pa.checkClean(t)
}

// TestFoldPressuredErrorSurfaces: a background fold that fails reaches the
// shard's next write, and Flush when no write comes first.
func TestFoldPressuredErrorSurfaces(t *testing.T) {
	failFold := func(t *testing.T) *pressureArray {
		pa := newPressureArray(t, 4)
		rd, held := pa.holdRead()
		pa.e.FoldPressured(pressureMark)
		within(t, "the committer reaching the prefold", func() { <-rd.entered })
		// A stripe dirtied after the snapshot is not in the table: the fold
		// reads it under the lock, after the table's stripes have published.
		pa.update(t, pa.lbaOff(t, lateStripe, held))
		h, _ := pa.holdWrite()
		close(rd.release)
		within(t, "the committer reaching the publish", func() { <-h.entered })
		for _, d := range pa.devs {
			d.broken.Store(true)
		}
		t.Cleanup(func() { // let Close's final fold succeed
			for _, d := range pa.devs {
				d.broken.Store(false)
			}
		})
		// The committer holds the shard lock from before it parked until it
		// has latched the error, so whoever takes the lock next sees it.
		close(h.release)
		return pa
	}
	t.Run("next write", func(t *testing.T) {
		pa := failFold(t)
		if _, err := pa.e.WriteChunks(0, pa.hotLBA, chunkData(7, 1)); !errors.Is(err, errInjected) {
			t.Fatalf("write after a failed fold = %v, want the fold's error", err)
		}
		if _, err := pa.e.WriteChunks(0, pa.e.geo.LBA(0, 0), chunkData(8, 1)); err != nil {
			t.Fatalf("write to another shard: %v", err)
		}
	})
	t.Run("flush", func(t *testing.T) {
		pa := failFold(t)
		if err := pa.e.Flush(); !errors.Is(err, errInjected) {
			t.Fatalf("Flush after a failed fold = %v, want the fold's error", err)
		}
	})
}

// TestFoldPressuredAfterClose: with the committer stopped there is nobody to
// hand a shard to, so the call does nothing.
func TestFoldPressuredAfterClose(t *testing.T) {
	pa := newPressureArray(t, 4)
	if err := pa.e.Close(); err != nil {
		t.Fatal(err)
	}
	pa.fillHot(t) // Close folded everything; fill the shard again
	before := pa.commits(hotShard)
	pa.e.FoldPressured(pressureMark)
	if pa.e.shards[hotShard].queued.Load() {
		t.Error("FoldPressured enqueued a shard after Close")
	}
	if got := pa.commits(hotShard); got != before {
		t.Errorf("commits moved %d → %d after Close", before, got)
	}
}

package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/metadata"
	"github.com/eplog/eplog/internal/obs"
)

// crashDev errors every write after a fuse burns down, simulating a power
// cut mid-operation. A shared powerCut, if set, records the first device
// whose fuse burned.
type crashDev struct {
	device.Dev
	fuse    int
	crashed bool
	cut     *powerCut
}

// powerCut is closed when the first of a set of crashDevs crashes.
type powerCut struct {
	once sync.Once
	done chan struct{}
}

func newPowerCut() *powerCut { return &powerCut{done: make(chan struct{})} }

var errCrash = errors.New("simulated power cut")

func (d *crashDev) WriteChunk(idx int64, p []byte) error {
	if d.burn() {
		return errCrash
	}
	return d.Dev.WriteChunk(idx, p)
}

func (d *crashDev) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	if d.burn() {
		return start, errCrash
	}
	return d.Dev.WriteChunkAt(start, idx, p)
}

func (d *crashDev) burn() bool {
	if d.crashed {
		return true
	}
	d.fuse--
	if d.fuse <= 0 {
		d.crashed = true
		if d.cut != nil {
			d.cut.once.Do(func() { close(d.cut.done) })
		}
	}
	return d.crashed
}

// TestCrashDuringCommitRepairableByRecommit reproduces the subtle
// crash-consistency case of parity commit: a crash midway leaves some
// stripes with new parity while the (checkpointed) metadata still
// describes the pre-commit state, so decoding committed chunks against the
// half-written parity would be wrong. The documented recovery — reopen
// from the checkpoint and fold again from the latest data — must restore
// full consistency: inline, by running Commit again; with write-behind, by
// the next background fold, whose prefold must re-encode the torn stripes
// rather than apply a delta to their parity (DESIGN.md §5 invariant 7).
func TestCrashDuringCommitRepairableByRecommit(t *testing.T) {
	t.Run("inline", crashInlineCommit)
	t.Run("write-behind", crashBackgroundFold)
}

// crashInlineCommit tears a Commit and repairs it with another.
func crashInlineCommit(t *testing.T) {
	n, k := 5, 4
	inner := make([]*device.Mem, n)
	devs := make([]device.Dev, n)
	crash := make([]*crashDev, n)
	for i := range devs {
		inner[i] = device.NewMem(testDevChunks, testChunk)
		crash[i] = &crashDev{Dev: inner[i], fuse: 1 << 30}
		devs[i] = crash[i]
	}
	logs := []device.Dev{device.NewMem(testLogChunks, testChunk)}
	e, err := New(devs, logs, Config{K: k, Stripes: testStripes})
	if err != nil {
		t.Fatal(err)
	}

	data := chunkData(1, int(e.Chunks()))
	if _, err := e.WriteChunks(0, 0, data); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		nC := 1 + r.Intn(2)
		lba := int64(r.Intn(int(e.Chunks()) - nC))
		upd := chunkData(10+i, nC)
		if _, err := e.WriteChunks(0, lba, upd); err != nil {
			t.Fatal(err)
		}
		copy(data[lba*testChunk:], upd)
	}

	// Persist metadata, then crash partway through the commit: only a
	// few parity writes land.
	vol, err := metadata.Format(device.NewMem(1024, 256), 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.WriteFull(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := range crash {
		crash[i].fuse = 3
	}
	if err := e.Commit(); !errors.Is(err, errCrash) {
		t.Fatalf("commit error = %v, want simulated crash", err)
	}

	// "Reboot": fresh instance over the raw (non-crashing) devices,
	// restored from the checkpoint.
	devs2 := make([]device.Dev, n)
	for i := range devs2 {
		devs2[i] = inner[i]
	}
	snap, err := vol.Load()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(devs2, logs, Config{K: k, Stripes: testStripes}, snap)
	if err != nil {
		t.Fatal(err)
	}

	// Contents are intact (latest versions were never touched by the
	// crash) ...
	got := make([]byte, len(data))
	if _, err := e2.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("contents diverged after crash")
	}
	// ... but the scrub must notice the torn parity ...
	rep, err := e2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("scrub missed the torn commit (test not exercising the hazard)")
	}
	// ... and re-running the commit repairs it.
	if err := e2.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err = e2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub still failing after repair: %+v", rep)
	}
	if _, err := e2.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("contents diverged after repair")
	}
	// Full fault tolerance is back.
	f := device.NewFaulty(inner[1])
	devs2[1] = f
	e3, err := Restore(devs2, logs, Config{K: k, Stripes: testStripes}, e2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	f.Fail()
	if _, err := e3.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read after repair diverged")
	}
}

// crashBackgroundFold tears a background fold partway through its parity
// writes. Every stripe has one chunk changed since its last fold, so a fold
// that trusted the restored parity would take the delta rule (m+2c = k) and
// carry the torn parity forward; after the restore, updates to the same
// chunks keep c at one and a FoldPressured fold — prefolded — must repair
// every stripe.
func crashBackgroundFold(t *testing.T) {
	n, k := 6, 4
	inner := make([]device.Dev, n)
	devs := make([]device.Dev, n)
	crash := make([]*crashDev, n)
	for i := range devs {
		inner[i] = device.NewMem(testDevChunks, testChunk)
		crash[i] = &crashDev{Dev: inner[i], fuse: 1 << 30}
		devs[i] = crash[i]
	}
	logs := []device.Dev{device.NewMem(testLogChunks, testChunk), device.NewMem(testLogChunks, testChunk)}
	cfg := Config{K: k, Stripes: testStripes, WriteBehind: true}
	e, err := New(devs, logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := chunkData(1, int(e.Chunks()))
	if _, err := e.WriteChunks(0, 0, data); err != nil { // direct stripe writes: all trusted
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	slot := make([]int64, testStripes) // the one chunk of each stripe that changes
	update := func(e *EPLog, seed int) {
		t.Helper()
		for s := range slot {
			lba := int64(s*k) + slot[s]
			upd := chunkData(seed+s, 1)
			if _, err := e.WriteChunks(0, lba, upd); err != nil {
				t.Fatal(err)
			}
			copy(data[lba*testChunk:], upd)
		}
	}
	for s := range slot {
		slot[s] = int64(r.Intn(k))
	}
	update(e, 100)

	vol, err := metadata.Format(device.NewMem(1024, 256), 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.WriteFull(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Each SSD takes two more writes: the fold's first stripes publish, in
	// part or whole, and the rest do not.
	cut := newPowerCut()
	for i := range crash {
		crash[i].fuse, crash[i].cut = 3, cut
	}
	e.FoldPressured(0)
	within(t, "the background fold's parity writes", func() { <-cut.done })
	// The committer holds the shard lock from its parity writes until it has
	// latched the error, so Flush sees it, and the committer is idle after:
	// power stays off for whatever the dying engine does.
	if err := e.Flush(); !errors.Is(err, errCrash) {
		t.Fatalf("Flush after the background fold = %v, want the simulated crash", err)
	}
	for i := range crash {
		crash[i].crashed = true
	}
	e.Close()

	snap, err := vol.Load()
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	cfg.Obs = sink
	e2, err := Restore(inner, logs, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := e2.Verify(); err != nil || rep.OK() {
		t.Fatalf("scrub after the restore: %+v, %v; want the torn stripes (test not exercising the hazard)", rep, err)
	}
	update(e2, 200)
	e2.FoldPressured(0)
	if err := e2.Close(); err != nil { // runs the committer's last sweep
		t.Fatal(err)
	}
	if got := sink.Counter("core.prefold_stripes").Value(); got != testStripes {
		t.Fatalf("core.prefold_stripes = %d, want all %d stripes folded from the prefold", got, testStripes)
	}
	if rep, err := e2.Verify(); err != nil || !rep.OK() {
		t.Fatalf("scrub after the background fold: %+v, %v", rep, err)
	}
	snap2 := e2.Snapshot()
	got := make([]byte, len(data))
	for d := range inner {
		f := device.NewFaulty(inner[d])
		f.Fail()
		degraded := slices.Clone(inner)
		degraded[d] = f
		e3, err := Restore(degraded, logs, Config{K: k, Stripes: testStripes}, snap2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e3.ReadChunks(0, 0, got); err != nil {
			t.Fatalf("SSD %d failed: %v", d, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("SSD %d failed: a chunk reads back wrong", d)
		}
	}
}

// TestPrefoldDeltaAfterFailedCommit: a commit that fails partway through
// its parity writes is not counted by stats.Commits, so rule (a) of the
// prefold's validation does not see it; it cleared the trust bit of every
// stripe it began writing, and a delta entry of such a stripe must be
// folded again under the lock rather than published (DESIGN.md §9, rule d).
func TestPrefoldDeltaAfterFailedCommit(t *testing.T) {
	n, k := 6, 4
	devs := make([]device.Dev, n)
	crash := make([]*crashDev, n)
	for i := range devs {
		crash[i] = &crashDev{Dev: device.NewMem(testDevChunks, testChunk), fuse: 1 << 30}
		devs[i] = crash[i]
	}
	logs := []device.Dev{device.NewMem(testLogChunks, testChunk), device.NewMem(testLogChunks, testChunk)}
	sink := obs.NewSink()
	e, err := New(devs, logs, Config{K: k, Stripes: testStripes, WriteBehind: true, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := e.WriteChunks(0, 0, chunkData(1, int(e.Chunks()))); err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < 2; s++ { // one changed chunk each: the delta rule's
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 1), chunkData(10+int(s), 1)); err != nil {
			t.Fatal(err)
		}
	}
	sh, pre := e.shards[0], e.gc.pre // the committer is idle: nothing is queued
	pre.run(sh)
	if got := sink.Counter("core.prefold_delta_stripes").Value(); pre.n != 2 || got != 2 {
		t.Fatalf("setup: the prefold folded %d stripes, %d by delta; want 2 and 2", pre.n, got)
	}

	// An inline commit writes stripe 0's parity and fails at stripe 1's.
	stripe0 := 0
	for p := 0; p < e.geo.M(); p++ {
		if e.geo.ParityDev(0, p) == e.geo.ParityDev(1, 0) {
			stripe0++
		}
	}
	crash[e.geo.ParityDev(1, 0)].fuse = stripe0 + 1
	commit := func(pre *prefold) error {
		sh.mu.Lock()
		sh.lockAcquired(time.Time{})
		sh.pre = pre
		defer func() {
			sh.pre = nil
			sh.lockReleasing()
			sh.mu.Unlock()
		}()
		return sh.commit()
	}
	if err := commit(nil); !errors.Is(err, errCrash) {
		t.Fatalf("inline commit = %v, want the simulated crash", err)
	}
	for _, d := range crash {
		d.fuse, d.crashed = 1<<30, false
	}

	if err := commit(pre); err != nil {
		t.Fatal(err)
	}
	if hit, stale := sink.Counter("core.prefold_stripes").Value(), sink.Counter("core.prefold_stale").Value(); hit != 0 || stale != 2 {
		t.Errorf("core.prefold_stripes = %d, core.prefold_stale = %d, want 0 and 2", hit, stale)
	}
	if rep, err := e.Verify(); err != nil || !rep.OK() {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
}

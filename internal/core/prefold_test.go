package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// The group committer's prefold (commit.go): what it may publish, what it
// must fold again under the lock, and that it holds no lock while it reads.
// Every test parks the committer at a known device I/O (holdRead: inside the
// prefold; holdWrite: the publish's first parity write) instead of sleeping.

// foldDone releases a fold parked in its publish and returns once it is
// over: Flush needs the shard lock the parked committer holds.
func (pa *pressureArray) foldDone(t *testing.T, wr *ioHold) {
	t.Helper()
	close(wr.release)
	if err := pa.e.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefoldHoldsNoLock is the converse of the lock shape the FoldPressured
// tests pin: while the fold's read phase is parked, a write to the *same*
// shard, a Flush and a lock-free read of it all return — on the served
// shape and on a one-shard write-behind engine alike. The write moves a
// chunk the prefold had already read, so at publish that one stripe is
// stale — read again and folded under the lock — and the other two are
// published from the table; the parity is right either way.
func TestPrefoldHoldsNoLock(t *testing.T) {
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pa := newPressureArray(t, shards)
			e := pa.e
			k := int64(e.geo.K)
			before := e.Stats()
			rd, _ := pa.holdRead()
			e.FoldPressured(pressureMark)
			within(t, "the committer reaching the prefold", func() { <-rd.entered })

			locked := e.ReadLockAcquisitions()
			within(t, "a write to the folding shard, a Flush and a read of it", func() {
				data := chunkData(900, 1)
				if _, err := e.WriteChunks(0, pa.hotLBA, data); err != nil {
					t.Errorf("write to the folding shard: %v", err)
					return
				}
				pa.wrote[pa.hotLBA] = data
				if err := e.Flush(); err != nil {
					t.Errorf("Flush: %v", err)
				}
				got := make([]byte, testChunk)
				if _, err := e.ReadChunks(0, pa.hotLBA, got); err != nil || !bytes.Equal(got, data) {
					t.Errorf("read of the folding shard: err %v, match %v", err, bytes.Equal(got, data))
				}
			})
			if d := e.ReadLockAcquisitions() - locked; d != 0 {
				t.Errorf("the read took %d shard locks, want the lock-free pass", d)
			}
			if got := pa.commits(pa.hot); got != 0 {
				t.Fatalf("%d commits of the shard with its fold parked in the prefold", got)
			}

			wr, _ := pa.holdWrite()
			close(rd.release)
			within(t, "the committer reaching the publish", func() { <-wr.entered })
			pa.foldDone(t, wr)
			if got := pa.commits(pa.hot); got != 1 {
				t.Errorf("%d commits of the shard, want 1", got)
			}
			hot := int64(len(hotStripes))
			if hit, stale := pa.counter("core.prefold_stripes"), pa.counter("core.prefold_stale"); hit != hot-1 || stale != 1 {
				t.Errorf("core.prefold_stripes = %d, core.prefold_stale = %d, want %d and 1", hit, stale, hot-1)
			}
			// The prefold's reads count whether used or wasted; the stale
			// stripe's k chunks were read twice.
			if d := e.Stats().CommitReadChunks - before.CommitReadChunks; d != (hot+1)*k {
				t.Errorf("the fold read %d chunks, want %d (k per stripe and k again for the stale one)", d, (hot+1)*k)
			}
			pa.checkClean(t)
		})
	}
}

// TestPrefoldDiscardedByCommit: a commit of the shard between the snapshot
// and the publish — here the inline commit a writer runs for space or the
// guard band, under the lock the committer is waiting for — releases chunks
// the prefold may have read, so the whole table is discarded, whatever the
// locations say.
func TestPrefoldDiscardedByCommit(t *testing.T) {
	pa := newPressureArray(t, 4)
	e := pa.e
	sh := e.shards[hotShard]
	rd, _ := pa.holdRead()
	e.FoldPressured(pressureMark)
	within(t, "the committer reaching the prefold", func() { <-rd.entered })

	sh.mu.Lock()
	sh.lockAcquired(time.Time{})
	close(rd.release) // the prefold finishes against a shard that is committing
	err := sh.commit()
	sh.lockReleasing()
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	pa.update(t, pa.hotLBA) // dirty again, at a location the table may have seen released
	// Close waits for the committer's sweep, whichever of the two got the
	// lock first.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if hit, stale := pa.counter("core.prefold_stripes"), pa.counter("core.prefold_stale"); hit != 0 || stale != int64(len(hotStripes)) {
		t.Errorf("core.prefold_stripes = %d, core.prefold_stale = %d, want 0 and %d", hit, stale, len(hotStripes))
	}
	if got := e.PendingLogStripes(); got != 0 {
		t.Errorf("%d log stripes pending after Close", got)
	}
	pa.checkClean(t)
}

// TestPrefoldDiscardedByRebuild: the prefold reads through the device table
// it loaded with the snapshot; Rebuild publishing a new one in between means
// later writes went to a device the prefold never saw, so the parity table
// is discarded, whatever the locations say. (The committer is idle —
// nothing is queued — so the test can run its prefold and publish by hand.)
func TestPrefoldDiscardedByRebuild(t *testing.T) {
	pa := newPressureArray(t, 4)
	e := pa.e
	sh, pre := e.shards[hotShard], e.gc.pre
	pre.run(sh)
	if pre.n != len(hotStripes) {
		t.Fatalf("setup: the prefold encoded %d stripes, want %d", pre.n, len(hotStripes))
	}
	if err := e.Rebuild(0, &brokenReadDev{Dev: device.NewMem(testDevChunks, testChunk)}); err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	sh.lockAcquired(time.Time{})
	sh.pre = pre
	err := sh.commit()
	sh.pre = nil
	sh.lockReleasing()
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if hit, stale := pa.counter("core.prefold_stripes"), pa.counter("core.prefold_stale"); hit != 0 || stale != int64(len(hotStripes)) {
		t.Errorf("core.prefold_stripes = %d, core.prefold_stale = %d, want 0 and %d", hit, stale, len(hotStripes))
	}
	pa.checkClean(t)
}

// TestPrefoldStopsAtFailedSSD: the first ErrFailed ends the prefold — it
// does not reconstruct — and the fold completes degraded under the lock,
// which is the only place the log devices are read (DESIGN §5 invariant 3).
func TestPrefoldStopsAtFailedSSD(t *testing.T) {
	pa := newPressureArray(t, 4)
	e := pa.e
	k := int64(e.geo.K)
	// An SSD with no data of the first hot stripe but data of a later one:
	// the prefold gets `whole` stripes and `part` chunks far.
	failed, whole, part := -1, int64(0), int64(0)
	for dev := range pa.devs {
		at := int64(-1)
		for i, s := range hotStripes {
			for j := 0; j < e.geo.K && at < 0; j++ {
				if e.loadLatest(e.geo.LBA(s, j)).Dev == dev {
					at = int64(i)*k + int64(j)
				}
			}
		}
		if at >= k {
			failed, whole, part = dev, at/k, at%k
			break
		}
	}
	if failed < 0 {
		t.Fatal("setup: every SSD holds data of the first hot stripe")
	}
	logReads := func() int64 { return pa.logs[0].reads.Load() + pa.logs[1].reads.Load() }
	before, logBefore := e.Stats(), logReads()
	pa.devs[failed].failed.Store(true)
	wr, _ := pa.holdWrite()
	e.FoldPressured(pressureMark)
	within(t, "the committer reaching the publish", func() { <-wr.entered })
	if d := logReads() - logBefore; d != 0 {
		t.Errorf("the prefold read the log devices %d times", d)
	}
	pa.foldDone(t, wr)

	if got := pa.commits(hotShard); got != 1 {
		t.Errorf("%d commits of the shard, want 1", got)
	}
	if hit, stale := pa.counter("core.prefold_stripes"), pa.counter("core.prefold_stale"); hit != whole || stale != 0 {
		t.Errorf("core.prefold_stripes = %d, core.prefold_stale = %d, want %d and 0", hit, stale, whole)
	}
	rest := int64(len(hotStripes)) - whole
	if d := e.Stats().CommitReadChunks - before.CommitReadChunks; d != whole*k+part+rest*k {
		t.Errorf("the fold read %d chunks, want %d prefolded, %d before the failed one, %d under the lock", d, whole*k, part, rest*k)
	}
	if logReads() == logBefore {
		t.Error("the degraded fold never read the log devices: the failed SSD held pending chunks")
	}
	fresh := &brokenReadDev{Dev: device.NewMem(testDevChunks, testChunk)}
	if err := e.Rebuild(failed, fresh); err != nil {
		t.Fatal(err)
	}
	pa.checkClean(t)
}

// TestPrefoldCampaign is TestWriteGroupSurvivesAnyMFailures with everything
// moving: seeded writers hammer one shard with single-chunk updates and
// whole-stripe overwrites while FoldPressured keeps its fold going — so
// every prefold races writes, every write-time parity slot (foldReady) races
// the updates that make it stale, and the inline commits the small update
// area forces drop the table — and SSDs fail and are rebuilt, log devices
// fail and are recovered and snapshots are taken in between. The prefold is
// a second lock-free reader of the device table beside readGroupFast, and
// Rebuild writes it. Then every acknowledged chunk reads back under each of
// the 28 pairs of failed devices, and the array commits and scrubs clean.
// Run with -race.
func TestPrefoldCampaign(t *testing.T) {
	const writers, batches = 3, 150
	sink := obs.NewSink(64)
	e, main, logs := newHoldArray(t, Config{Shards: 4, WriteBehind: true, DirtyWindowStripes: 8, CommitEvery: 16, Obs: sink})
	want := chunkData(1, int(e.Chunks()))
	if _, err := e.WriteChunks(0, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	k := e.geo.K
	var hot []int64 // the hot shard's stripes; writer w owns every writers-th
	for s := int64(hotShard); s < e.geo.Stripes; s += int64(e.nShards) {
		hot = append(hot, s)
	}

	stop := make(chan struct{})
	var folder, wg sync.WaitGroup
	folder.Add(1)
	go func() {
		defer folder.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.FoldPressured(0) // every shard, always
				runtime.Gosched()
			}
		}
	}()
	acked := make([]map[int64][]byte, writers)
	for w := range acked {
		acked[w] = make(map[int64][]byte)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for b := 0; b < batches; b++ {
				ops := make([]BatchOp, 1+r.Intn(3))
				for i := range ops {
					s := hot[w+writers*r.Intn((len(hot)-w+writers-1)/writers)]
					if r.Intn(3) == 0 {
						ops[i] = BatchOp{LBA: e.geo.LBA(s, 0), Data: chunkData(1000*w+10*b+i, k)}
					} else {
						ops[i] = BatchOp{LBA: e.geo.LBA(s, r.Intn(k)), Data: chunkData(1000*w+10*b+i, 1)}
					}
				}
				e.WriteBatch(ops)
				for i := range ops { // batch order within a shard group: the last op on an LBA wins
					if ops[i].Err != nil {
						t.Errorf("writer %d batch %d: %v", w, b, ops[i].Err)
						return
					}
					for c := 0; c < len(ops[i].Data)/testChunk; c++ {
						acked[w][ops[i].LBA+int64(c)] = ops[i].Data[c*testChunk : (c+1)*testChunk]
					}
				}
			}
		}(w)
	}
	for round := 0; round < 4 && !t.Failed(); round++ {
		e.Snapshot()
		d := (2*round + 1) % len(main)
		main[d].failed.Store(true)
		runtime.Gosched()
		main[d] = &brokenReadDev{Dev: device.NewMem(testDevChunks, testChunk)}
		if err := e.Rebuild(d, main[d]); err != nil {
			t.Errorf("round %d: rebuild of SSD %d: %v", round, d, err)
		}
		l := round % len(logs)
		logs[l].failed.Store(true)
		runtime.Gosched()
		logs[l] = &brokenReadDev{Dev: device.NewMem(testLogChunks, testChunk)}
		if err := e.RecoverLogDevice(l, logs[l]); err != nil {
			t.Errorf("round %d: recovery of log device %d: %v", round, l, err)
		}
	}
	wg.Wait()
	close(stop)
	folder.Wait()
	// Stop the committer too (it drains its queue first): a fold still
	// running below would write parity to a device the loop has failed.
	e.gc.shutdown()
	if t.Failed() {
		return
	}
	for _, m := range acked {
		for lba, data := range m {
			copy(want[lba*testChunk:], data)
		}
	}
	if sink.Counter("core.fold_ready_stripes").Value() == 0 || sink.Counter("core.fold_ready_stale").Value() == 0 {
		t.Error("no fold published write-time parity or found it stale: the campaign missed the whole-stripe path")
	}
	// With nobody left to fold them, these stay pending: the pairs below
	// meet log stripes as well as committed stripes.
	var lbas []int64
	for _, s := range hot[:2] {
		for j := 0; j < k; j++ {
			lbas = append(lbas, e.geo.LBA(s, j))
		}
	}
	last := updateOps(9000, lbas[:6], want)
	e.WriteBatch(last)
	mustSucceed(t, last)
	if e.PendingLogStripes() == 0 {
		t.Fatal("setup: nothing pending for the failure pairs")
	}
	got := make([]byte, len(want))
	all := append(append([]*brokenReadDev{}, main...), logs...)
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			all[i].failed.Store(true)
			all[j].failed.Store(true)
			if _, err := e.ReadChunks(0, 0, got); err != nil {
				t.Fatalf("devices %d and %d failed: %v", i, j, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("devices %d and %d failed: an acknowledged chunk reads back wrong", i, j)
			}
			all[i].failed.Store(false)
			all[j].failed.Store(false)
		}
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if rep, err := e.Verify(); err != nil || !rep.OK() {
		t.Fatalf("scrub after the campaign: %+v, %v", rep, err)
	}
}

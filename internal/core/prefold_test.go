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
	"github.com/eplog/eplog/internal/erasure"
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

// TestPrefoldFoldsPastFailedSSD: with an SSD failed, the prefold folds each
// stripe by whichever rule's reads avoid it — trying the cheaper rule first —
// leaves out a stripe both rules need it for, and never reconstructs: the
// left-out stripe folds degraded under the lock, which is the only place the
// log devices are read (DESIGN §5 invariant 3). On the 6-device, k = 4 array
// the failed SSD 0 holds
//   - parity of hotStripes[0], one chunk changed: the delta rule is cheaper
//     (m+2c = 4 reads) but meets SSD 0 at its second parity read, and
//     re-encode (k = 4 reads) avoids it;
//   - an unchanged data chunk of hotStripes[1], two changed: re-encode is
//     cheaper but meets SSD 0 at its second read, and the delta rule
//     (m+2c = 6 reads) skips the unchanged chunk;
//   - the changed data chunk of hotStripes[2]: the delta rule meets SSD 0
//     after its parity, re-encode after three chunks, so it folds under the
//     lock (k reads there).
func TestPrefoldFoldsPastFailedSSD(t *testing.T) {
	pa := primePressureArray(t, 4)
	e := pa.e
	const failed = 0
	g := e.geo
	if g.ParityDev(hotStripes[0], 1) != failed || g.DataDev(hotStripes[1], 1) != failed || g.DataDev(hotStripes[2], 3) != failed {
		t.Fatal("setup: the layout moved")
	}
	updates := []int64{g.LBA(hotStripes[0], 0), g.LBA(hotStripes[1], 0), g.LBA(hotStripes[1], 2), g.LBA(hotStripes[2], 3)}
	for i := 0; e.shards[pa.hot].fill() < pressureMark; i++ {
		pa.update(t, updates[i%len(updates)])
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
	hit, stale, delta := pa.counter("core.prefold_stripes"), pa.counter("core.prefold_stale"), pa.counter("core.prefold_delta_stripes")
	if hit != 2 || stale != 0 || delta != 1 {
		t.Errorf("core.prefold_stripes = %d, core.prefold_stale = %d, core.prefold_delta_stripes = %d, want 2, 0 and 1", hit, stale, delta)
	}
	// Used or wasted, every read the SSDs served counts: 1+4, 1+6 and 2+3 by
	// the prefold, then k = 4 for hotStripes[2] under the lock.
	if d := e.Stats().CommitReadChunks - before.CommitReadChunks; d != 5+7+5+4 {
		t.Errorf("the fold read %d chunks, want %d", d, 5+7+5+4)
	}
	if logReads() == logBefore {
		t.Error("the degraded fold never read the log devices: the failed SSD held a pending chunk")
	}
	fresh := &brokenReadDev{Dev: device.NewMem(testDevChunks, testChunk)}
	if err := e.Rebuild(failed, fresh); err != nil {
		t.Fatal(err)
	}
	pa.checkClean(t)
}

// TestPrefoldDelta is a differential test of the prefold's two rules on the
// served shape — four shards, write-behind, k = 6, m = 2. Seeded rounds
// dirty random stripes of one shard, each with c = 1…k changed chunks, run
// the committer's prefold by hand and publish it, and require:
//   - every entry to be erasure's encode of the stripe's latest chunks, byte
//     for byte;
//   - the reads issued to be min(k, m+2c) for a trusted stripe and k for an
//     untrusted one;
//   - core.prefold_delta_stripes to count exactly the trusted stripes with
//     m+2c <= k (c <= 2), and every entry to publish.
//
// Half the stripes start trusted (direct full-stripe writes), the others
// untrusted (first written by updates) until their first fold; halfway the
// engine is restored from a snapshot, which trusts no stripe.
func TestPrefoldDelta(t *testing.T) {
	const (
		n, k, m = 8, 6, 2
		stripes = 64
		rounds  = 400
	)
	sink := obs.NewSink()
	cfg := Config{K: k, Stripes: stripes, Shards: 4, WriteBehind: true, Obs: sink}
	devs, logs := make([]device.Dev, n), make([]device.Dev, m)
	for i := range devs {
		devs[i] = device.NewMem(stripes*8, testChunk)
	}
	for i := range logs {
		logs[i] = device.NewMem(testLogChunks, testChunk)
	}
	e, err := New(devs, logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	code, err := erasure.New(k, m, erasure.Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, stripes*k*testChunk)
	trusted := make([]bool, stripes)
	for s := int64(0); s < stripes; s += 2 {
		full := chunkData(int(s), k)
		if _, err := e.WriteChunks(0, s*k, full); err != nil {
			t.Fatal(err)
		}
		copy(want[s*k*testChunk:], full)
		trusted[s] = true
	}
	counter := func(name string) int64 { return sink.Counter(name).Value() }
	checkClean := func(round int) {
		t.Helper()
		got := make([]byte, len(want))
		if _, err := e.ReadChunks(0, 0, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: read back err %v, match %v", round, err, bytes.Equal(got, want))
		}
		if rep, err := e.Verify(); err != nil || !rep.OK() {
			t.Fatalf("round %d: scrub %+v, %v", round, rep, err)
		}
	}

	r := rand.New(rand.NewSource(33))
	var deltas, untrusted int64 // over the whole run: both rules must be met
	for round := 0; round < rounds; round++ {
		if round == rounds/2 {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if e, err = Restore(devs, logs, cfg, e.Snapshot()); err != nil {
				t.Fatal(err)
			}
			clear(trusted)
		}
		sh := e.shards[r.Intn(e.nShards)]
		owned := stripes / e.nShards
		var wantReads, wantDelta int64
		dirty := make(map[int64]bool)
		for range 1 + r.Intn(4) {
			s := int64(sh.idx + e.nShards*r.Intn(owned))
			if dirty[s] {
				continue
			}
			dirty[s] = true
			c := 1 + r.Intn(k)
			for _, j := range r.Perm(k)[:c] {
				lba := s*k + int64(j)
				data := chunkData(1000*round+j, 1)
				if _, err := e.WriteChunks(0, lba, data); err != nil {
					t.Fatal(err)
				}
				copy(want[lba*testChunk:], data)
			}
			switch {
			case m+2*c > k:
				wantReads += k
			case trusted[s]:
				wantReads += int64(m + 2*c)
				wantDelta++
			default:
				wantReads += k
				untrusted++
			}
		}

		pre := e.gc.pre // the committer is idle: nothing here enqueues a fold
		deltaBefore := counter("core.prefold_delta_stripes")
		pre.run(sh)
		if pre.n != len(dirty) || pre.reads != wantReads {
			t.Fatalf("round %d: the prefold folded %d of %d stripes with %d reads, want %d", round, pre.n, len(dirty), pre.reads, wantReads)
		}
		if got := counter("core.prefold_delta_stripes") - deltaBefore; got != wantDelta {
			t.Fatalf("round %d: core.prefold_delta_stripes moved %d, want %d", round, got, wantDelta)
		}
		deltas += wantDelta
		shards := make([][]byte, k+m)
		for i, s := range pre.stripes[:pre.n] {
			for j := range k {
				shards[j] = want[(s*k+int64(j))*testChunk : (s*k+int64(j)+1)*testChunk]
			}
			for q := range m {
				shards[k+q] = make([]byte, testChunk)
			}
			if err := code.Encode(shards); err != nil {
				t.Fatal(err)
			}
			for q := range m {
				if !bytes.Equal(pre.parity[i*m+q], shards[k+q]) {
					t.Fatalf("round %d: stripe %d (trusted %v, delta %v): parity %d differs from the encode of its latest chunks",
						round, s, trusted[s], pre.delta[i], q)
				}
			}
		}

		hit, stale := counter("core.prefold_stripes"), counter("core.prefold_stale")
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
		if dh, ds := counter("core.prefold_stripes")-hit, counter("core.prefold_stale")-stale; dh != int64(len(dirty)) || ds != 0 {
			t.Fatalf("round %d: %d entries published and %d stale, want %d and 0", round, dh, ds, len(dirty))
		}
		for s := range dirty {
			trusted[s] = true
		}
		if round%50 == 49 {
			checkClean(round)
		}
	}
	checkClean(rounds)
	if deltas == 0 || untrusted == 0 {
		t.Errorf("%d stripes folded by delta, %d untrusted ones with c <= 2 re-encoded; the seed must meet both", deltas, untrusted)
	}
	t.Logf("%d stripes folded by delta, %d untrusted ones with c <= 2 re-encoded", deltas, untrusted)
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
	sink := obs.NewSink()
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
	if sink.Counter("core.prefold_delta_stripes").Value() == 0 {
		t.Error("no prefold used the delta rule: the campaign missed its parity reads")
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

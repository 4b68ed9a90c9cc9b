package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// TestDegradedWriteRecoverable: writes issued while a device is failed
// land only on the surviving devices, yet remain readable (via their log
// stripes) and are fully restored by Rebuild.
func TestDegradedWriteRecoverable(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	data := chunkData(1, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	if err := ta.e.Commit(); err != nil {
		t.Fatal(err)
	}

	ta.main[1].Fail()
	// Update chunks across all devices, including ones whose current
	// version lives on the failed device.
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		nC := 1 + r.Intn(2)
		lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
		upd := chunkData(10+i, nC)
		ta.mustWrite(t, lba, upd)
		copy(data[lba*testChunk:], upd)
	}
	// Degraded reads return the acknowledged data even though some new
	// versions were never physically written.
	ta.verify(t, data, "degraded read after degraded writes")

	// Rebuild materializes the lost versions onto the replacement.
	if err := ta.e.Rebuild(1, device.NewMem(testDevChunks, testChunk)); err != nil {
		t.Fatal(err)
	}
	ta.verify(t, data, "after rebuilding degraded writes")

	// And the array is again consistent and single-failure tolerant.
	rep, err := ta.e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub after degraded-write rebuild: %+v", rep)
	}
	ta.main[3].Fail()
	ta.verify(t, data, "fresh failure after rebuild")
}

// TestDegradedCommitThenRebuild: a parity commit executed while a device
// is failed must produce correct parity (reading latest versions via
// reconstruction) and skip writes to the dead device; Rebuild then
// restores it.
func TestDegradedCommitThenRebuild(t *testing.T) {
	ta := newTestArray(t, 6, 4, Config{})
	data := chunkData(3, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		nC := 1 + r.Intn(2)
		lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
		upd := chunkData(50+i, nC)
		ta.mustWrite(t, lba, upd)
		copy(data[lba*testChunk:], upd)
	}

	ta.main[2].Fail()
	if err := ta.e.Commit(); err != nil {
		t.Fatalf("degraded commit: %v", err)
	}
	// Post-commit, log space is gone; the failed device plus one more
	// failure must still be tolerable (RAID-6 budget).
	ta.main[5].Fail()
	ta.verify(t, data, "two failures after degraded commit")
	ta.main[5].Repair()

	if err := ta.e.Rebuild(2, device.NewMem(testDevChunks, testChunk)); err != nil {
		t.Fatal(err)
	}
	ta.verify(t, data, "after post-degraded-commit rebuild")
	rep, err := ta.e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub: bad data stripes %v, bad log stripes %v", rep.BadDataStripes, rep.BadLogStripes)
	}
}

// TestMultiVersionDegradedRead: several pending versions of the same chunk
// coexist; with a device failed, the read must return the newest one, and
// every other member of every log stripe must still decode.
func TestMultiVersionDegradedRead(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	data := chunkData(5, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)

	var last []byte
	for v := 0; v < 6; v++ {
		// Interleave the hot chunk with neighbours so the log stripes
		// have multiple members.
		last = chunkData(100+v, 1)
		if _, err := ta.e.WriteChunks(0, 9, append(append([]byte{}, last...), chunkData(200+v, 1)...)); err != nil {
			t.Fatal(err)
		}
		copy(data[9*testChunk:], last)
		copy(data[10*testChunk:], chunkData(200+v, 1))
	}
	dev := ta.e.loadLatest(9).Dev
	ta.main[dev].Fail()
	got := make([]byte, testChunk)
	if _, err := ta.e.ReadChunks(0, 9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, last) {
		t.Fatal("degraded read did not return the newest version")
	}
	ta.verify(t, data, "full degraded read with version chains")
}

// TestDegradedFoldCountsNoReads: core.degraded_reads counts reconstructions
// served to reads, once each. A fold that reconstructs the chunks of a
// failed SSD — one pending in a log stripe, one committed — leaves it as it
// was; reading a lost chunk then adds one.
func TestDegradedFoldCountsNoReads(t *testing.T) {
	sink := obs.NewSink()
	ta := newTestArray(t, 5, 4, Config{Obs: sink})
	e := ta.e
	data := chunkData(7, int(e.Chunks()))
	ta.mustWrite(t, 0, data)
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	const failed = 1
	// Stripe 0 gets an update on the failed SSD, stripe 1 one beside its
	// committed chunk there.
	onFailed, offFailed := e.geo.LBA(0, 1), e.geo.LBA(1, 1)
	if e.geo.DataDev(0, 1) != failed || e.geo.DataDev(1, 0) != failed {
		t.Fatal("setup: the layout moved")
	}
	for i, lba := range []int64{onFailed, offFailed} {
		upd := chunkData(20+i, 1)
		ta.mustWrite(t, lba, upd)
		copy(data[lba*testChunk:], upd)
	}
	ta.main[failed].Fail()
	counted := func() int64 { return sink.Counter("core.degraded_reads").Value() }
	before := counted()
	if err := e.Commit(); err != nil {
		t.Fatalf("degraded commit: %v", err)
	}
	if got := counted() - before; got != 0 {
		t.Errorf("the degraded fold counted %d degraded reads, want 0", got)
	}
	got := make([]byte, testChunk)
	if _, err := e.ReadChunks(0, onFailed, got); err != nil || !bytes.Equal(got, data[onFailed*testChunk:(onFailed+1)*testChunk]) {
		t.Fatalf("degraded read of lba %d: err %v, match %v", onFailed, err, bytes.Equal(got, data[onFailed*testChunk:(onFailed+1)*testChunk]))
	}
	if got := counted() - before; got != 1 {
		t.Errorf("one degraded read counted %d, want 1", got)
	}
}

// versionChunk is chunk version v of lba: v in its first eight bytes, then
// bytes drawn from (lba, v), so a torn or misdecoded chunk matches no
// version.
func versionChunk(lba int64, v uint64) []byte {
	p := make([]byte, testChunk)
	binary.LittleEndian.PutUint64(p, v)
	rand.New(rand.NewSource(lba<<32 ^ int64(v))).Read(p[8:])
	return p
}

// TestDegradedReadsRaceFolds is a seeded campaign against the lock-free
// degraded read: on the served shape — four shards, write-behind — with an
// SSD failed, writers update their own stripes (single chunks and whole
// stripes) while FoldPressured keeps every shard folding and readers batch
// reads that lean on the chunks of the failed SSD, so their decodes race
// fold publishes, inline commits releasing the committed chunks they read,
// and updates turning committed chunks log-protected. Every chunk read must
// be, byte for byte, a version of its LBA no older than the one acknowledged
// before the read began and no newer than the last one started before it
// returned. Then the SSD is rebuilt and the array scrubs clean. Run with
// -race.
//
// The campaign opens with the race it is about, forced: a decode parked
// between two survivor reads while the committer publishes the stripe's
// fold, so it holds a data chunk from before the publish and will read
// parity from after it — a mix that decodes to garbage. The pass must see
// the epoch move, count nothing, and redo the read under the lock.
func TestDegradedReadsRaceFolds(t *testing.T) {
	const writers, readers, batches, failed = 3, 2, 150, 4
	sink := obs.NewSink()
	e, main, _ := newHoldArray(t, Config{Shards: 4, WriteBehind: true, DirtyWindowStripes: 8, Obs: sink})
	t.Cleanup(func() { e.Close() })
	k, chunks := e.geo.K, e.Chunks()
	for s := int64(0); s < e.geo.Stripes; s++ {
		var full []byte
		for j := 0; j < k; j++ {
			full = append(full, versionChunk(e.geo.LBA(s, j), 0)...)
		}
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
			t.Fatal(err)
		}
	}
	var lost []int64 // the LBAs whose every version lives on the failed SSD
	for lba := int64(0); lba < chunks; lba++ {
		if s, j := e.geo.Stripe(lba); e.geo.DataDev(s, j) == failed {
			lost = append(lost, lba)
		}
	}
	started := make([]atomic.Uint64, chunks)
	acked := make([]atomic.Uint64, chunks)
	main[failed].failed.Store(true)

	// Stripe 1 (shard 1) holds data slots 0-3 on SSDs 1-4 and parity on 5
	// and 0. Slot 0 is updated, so the stripe's fold — by the delta rule,
	// which reads and writes only SSDs 0, 1 and 5 — changes its parity and
	// slot 0's committed location; the read of slot 3, lost with SSD 4,
	// decodes from slots 0, 1, 2 and parity 0, and parks reading slot 1.
	const stripe, parked = 1, 2
	if e.geo.DataDev(stripe, 3) != failed || e.geo.DataDev(stripe, 1) != parked {
		t.Fatal("setup: the layout moved")
	}
	upd, lostLBA := e.geo.LBA(stripe, 0), e.geo.LBA(stripe, 3)
	started[upd].Store(1)
	if _, err := e.WriteChunks(0, upd, versionChunk(upd, 1)); err != nil {
		t.Fatal(err)
	}
	acked[upd].Store(1)
	hold := newIOHold()
	main[parked].hold.Store(hold)
	locks, decodes := e.ReadLockAcquisitions(), sink.Counter("core.degraded_reads").Value()
	straddled := []ReadOp{{LBA: lostLBA, Buf: make([]byte, testChunk)}}
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		e.ReadBatch(straddled)
	}()
	within(t, "the decode reaching its second survivor", func() { <-hold.entered })
	e.FoldPressured(e.shards[stripe].fill()) // the only shard with a fill
	within(t, "the fold published", func() {
		for e.PendingLogStripes() != 0 {
			runtime.Gosched()
		}
	})
	close(hold.release)
	<-readDone
	if op := straddled[0]; op.Err != nil || !bytes.Equal(op.Buf, versionChunk(lostLBA, 0)) {
		t.Fatalf("a decode straddling a fold publish: err %v, match %v", op.Err, bytes.Equal(op.Buf, versionChunk(lostLBA, 0)))
	}
	if got := e.ReadLockAcquisitions() - locks; got != 1 {
		t.Errorf("the straddling read took %d shared locks, want 1: its pass must fail validation", got)
	}
	if got := sink.Counter("core.degraded_reads").Value() - decodes; got != 1 {
		t.Errorf("core.degraded_reads rose by %d for one read, want 1", got)
	}

	stop := make(chan struct{})
	var folder, rd, wg sync.WaitGroup
	folder.Add(1)
	go func() {
		defer folder.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.FoldPressured(0)
				runtime.Gosched()
			}
		}
	}()
	var passes atomic.Int64
	for r := 0; r < readers; r++ {
		rd.Add(1)
		go func(r int) {
			defer rd.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ops := make([]ReadOp, 1+rng.Intn(6))
				lo := make([][]uint64, len(ops))
				for i := range ops {
					lba, n := lost[rng.Intn(len(lost))], 1
					switch rng.Intn(4) {
					case 0:
						lba = rng.Int63n(chunks)
					case 1: // across a stripe boundary, so over two shards
						n = k
						lba = min(lba, chunks-int64(n))
					}
					ops[i] = ReadOp{LBA: lba, Buf: make([]byte, n*testChunk)}
					lo[i] = make([]uint64, n)
					for c := range lo[i] {
						lo[i][c] = acked[lba+int64(c)].Load()
					}
				}
				e.ReadBatch(ops)
				for i, op := range ops {
					if op.Err != nil {
						t.Errorf("reader %d: lba %d: %v", r, op.LBA, op.Err)
						return
					}
					for c := range lo[i] {
						lba, got := op.LBA+int64(c), op.Buf[c*testChunk:(c+1)*testChunk]
						v, hi := binary.LittleEndian.Uint64(got), started[lba].Load()
						if v < lo[i][c] || v > hi || !bytes.Equal(got, versionChunk(lba, v)) {
							t.Errorf("reader %d: lba %d read as version %d (valid: %d..%d), match %v",
								r, lba, v, lo[i][c], hi, v <= hi && bytes.Equal(got, versionChunk(lba, v)))
							return
						}
					}
				}
				passes.Add(1)
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var own []int64
			for s := int64(w); s < e.geo.Stripes; s += writers {
				own = append(own, s)
			}
			for b := 0; b < batches && !t.Failed(); b++ {
				ops := make([]BatchOp, 1+rng.Intn(3))
				for i := range ops {
					s := own[rng.Intn(len(own))]
					lba, n := e.geo.LBA(s, rng.Intn(k)), 1
					if rng.Intn(4) == 0 {
						lba, n = e.geo.LBA(s, 0), k
					}
					ops[i] = BatchOp{LBA: lba}
					for c := 0; c < n; c++ {
						v := started[lba+int64(c)].Load() + 1
						started[lba+int64(c)].Store(v)
						ops[i].Data = append(ops[i].Data, versionChunk(lba+int64(c), v)...)
					}
				}
				e.WriteBatch(ops)
				for _, op := range ops { // within a shard group the last op on an LBA wins
					if op.Err != nil {
						t.Errorf("writer %d batch %d: %v", w, b, op.Err)
						return
					}
					for c := 0; c < len(op.Data)/testChunk; c++ {
						lba := op.LBA + int64(c)
						acked[lba].Store(max(acked[lba].Load(), binary.LittleEndian.Uint64(op.Data[c*testChunk:])))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	folder.Wait()
	if t.Failed() {
		return
	}
	if passes.Load() == 0 || sink.Counter("core.degraded_reads").Value() == 0 {
		t.Fatalf("%d read batches, %d degraded reads: the campaign never decoded", passes.Load(), sink.Counter("core.degraded_reads").Value())
	}
	if err := e.Rebuild(failed, device.NewMem(testDevChunks, testChunk)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testChunk)
	for lba := int64(0); lba < chunks; lba++ {
		if _, err := e.ReadChunks(0, lba, got); err != nil || !bytes.Equal(got, versionChunk(lba, acked[lba].Load())) {
			t.Fatalf("lba %d after rebuild: err %v, want version %d", lba, err, acked[lba].Load())
		}
	}
	if rep, err := e.Verify(); err != nil || !rep.OK() {
		t.Errorf("scrub: %+v, %v", rep, err)
	}
}

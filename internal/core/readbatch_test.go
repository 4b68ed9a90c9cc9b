package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// readBatchOps builds nOps single-chunk reads round-robin over the first
// `stripes` stripes — the same spread singleChunkOps gives writes.
func readBatchOps(e *EPLog, nOps int) []ReadOp {
	k := int64(e.geo.K)
	ops := make([]ReadOp, nOps)
	for i := range ops {
		s := int64(i) % e.cfg.Stripes
		ops[i] = ReadOp{LBA: s*k + int64(i)%k, Buf: make([]byte, testChunk)}
	}
	return ops
}

// fillEngine writes deterministic contents over the whole address space
// (full stripes, then scattered single-chunk updates so some versions live
// in the log region) and returns the expected image.
func fillEngine(t *testing.T, e *EPLog, seed int64) []byte {
	t.Helper()
	k := int64(e.geo.K)
	want := chunkData(int(seed), int(e.Chunks()))
	for s := int64(0); s < e.cfg.Stripes; s++ {
		lba := s * k
		if _, err := e.WriteChunks(0, lba, want[lba*testChunk:(lba+k)*testChunk]); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 40; i++ {
		lba := int64(r.Intn(int(e.Chunks())))
		upd := chunkData(100+i, 1)
		if _, err := e.WriteChunks(0, lba, upd); err != nil {
			t.Fatal(err)
		}
		copy(want[lba*testChunk:], upd)
	}
	return want
}

// TestReadBatchMatchesSequential reads one op set batched, on the serial
// and on the sharded engine, and demands the sequential image bit for bit
// — across mixed-shard groups, LBA-adjacent coalescing, a two-stripe
// spanning op, and seeded misaligned spanning ops of 2 … 3·K·Shards chunks
// (up to more stripes than shards) in the same batch as shard-local ones.
func TestReadBatchMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := batchEngine(t, shards, 64)
			defer e.Close()
			want := fillEngine(t, e, 9)
			k := int64(e.geo.K)

			ops := readBatchOps(e, 48)
			// Adjacent single-chunk ops in one stripe: the sorted group
			// coalesces them into a contiguous scan.
			for j := int64(0); j < k; j++ {
				ops = append(ops, ReadOp{LBA: 20*k + j, Buf: make([]byte, testChunk)})
			}
			// Multi-chunk shard-local op and a two-stripe spanning op.
			ops = append(ops,
				ReadOp{LBA: 30 * k, Buf: make([]byte, int(k)*testChunk)},
				ReadOp{LBA: 40 * k, Buf: make([]byte, 2*int(k)*testChunk)},
			)
			r := rand.New(rand.NewSource(17))
			for i := 0; i < 24; i++ {
				n := 2 + r.Intn(3*int(k)*4-1)
				lba := int64(r.Intn(int(e.Chunks()) - n + 1))
				ops = append(ops, ReadOp{LBA: lba, Buf: make([]byte, n*testChunk)})
			}
			e.ReadBatch(ops)
			for i := range ops {
				if ops[i].Err != nil {
					t.Fatalf("batched op %d (lba %d): %v", i, ops[i].LBA, ops[i].Err)
				}
				n := int64(len(ops[i].Buf))
				exp := want[ops[i].LBA*testChunk : ops[i].LBA*testChunk+n]
				if !bytes.Equal(ops[i].Buf, exp) {
					t.Fatalf("batched op %d (lba %d, %d bytes) diverges from sequential image", i, ops[i].LBA, n)
				}
			}
		})
	}
}

// TestReadBatchLockAmortization pins the payoff on the locked slow path:
// with the lock-free pass disabled (device buffers configured), batching
// N ops takes at most one shared acquisition per shard group while
// one-at-a-time entry takes one per op — at least a 4x drop for any batch
// that is 4x wider than the shard count.
func TestReadBatchLockAmortization(t *testing.T) {
	const shards, nOps = 4, 64
	mk := func() *EPLog {
		const k, n = 4, 5
		devs := make([]device.Dev, n)
		for i := range devs {
			devs[i] = device.NewMem(64*4, testChunk)
		}
		logs := []device.Dev{device.NewMem(64*8, testChunk)}
		e, err := New(devs, logs, Config{K: k, Stripes: 64, Shards: shards, DeviceBufferChunks: 8})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	eb, es := mk(), mk()
	defer eb.Close()
	defer es.Close()
	fillEngine(t, eb, 5)
	fillEngine(t, es, 5)

	ops := readBatchOps(eb, nOps)
	base := eb.ReadLockAcquisitions()
	eb.ReadBatch(ops)
	batched := eb.ReadLockAcquisitions() - base
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("batched op %d: %v", i, ops[i].Err)
		}
	}

	base = es.ReadLockAcquisitions()
	for _, op := range readBatchOps(es, nOps) {
		if _, err := es.ReadChunks(0, op.LBA, op.Buf); err != nil {
			t.Fatal(err)
		}
	}
	sequential := es.ReadLockAcquisitions() - base

	if batched == 0 || batched > shards {
		t.Errorf("batched acquisitions = %d, want in [1,%d] (one per shard group)", batched, shards)
	}
	if sequential < nOps {
		t.Errorf("sequential acquisitions = %d, want >= one per op (%d)", sequential, nOps)
	}
	if batched*4 > sequential {
		t.Errorf("batched %d vs sequential %d acquisitions: want >= 4x amortization", batched, sequential)
	}
}

// TestReadBatchFastPathLockFree pins the other half: on a buffer-free
// engine, at any shard count, the whole batch completes without any shard
// lock acquisition at all, shared or exclusive.
func TestReadBatchFastPathLockFree(t *testing.T) {
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := batchEngine(t, shards, 64)
			defer e.Close()
			want := fillEngine(t, e, 3)

			ops := readBatchOps(e, 64)
			shared, excl := e.ReadLockAcquisitions(), e.ShardLockAcquisitions()
			e.ReadBatch(ops)
			if got := e.ReadLockAcquisitions() - shared; got != 0 {
				t.Errorf("fast-path batch took %d shared lock acquisitions, want 0", got)
			}
			if got := e.ShardLockAcquisitions() - excl; got != 0 {
				t.Errorf("fast-path batch took %d exclusive lock acquisitions, want 0", got)
			}
			for i := range ops {
				if ops[i].Err != nil {
					t.Fatalf("op %d: %v", i, ops[i].Err)
				}
				if !bytes.Equal(ops[i].Buf, want[ops[i].LBA*testChunk:(ops[i].LBA+1)*testChunk]) {
					t.Fatalf("op %d (lba %d) wrong contents", i, ops[i].LBA)
				}
			}
		})
	}
}

// TestReadBatchBufferedChunks checks the locked fallback observes chunks
// still sitting unflushed in the per-SSD update buffers — data the
// lock-free pass can never serve.
func TestReadBatchBufferedChunks(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{Shards: 4, DeviceBufferChunks: 8})
	defer ta.e.Close()
	data := chunkData(1, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)

	// Buffered updates: small enough not to fill any device buffer, so
	// they are pending when the batch reads them back.
	for lba := int64(0); lba < 6; lba++ {
		upd := chunkData(60+int(lba), 1)
		ta.mustWrite(t, lba, upd)
		copy(data[lba*testChunk:], upd)
	}

	ops := make([]ReadOp, 8)
	for i := range ops {
		ops[i] = ReadOp{LBA: int64(i), Buf: make([]byte, testChunk)}
	}
	base := ta.e.ReadLockAcquisitions()
	ta.e.ReadBatch(ops)
	if got := ta.e.ReadLockAcquisitions() - base; got == 0 {
		t.Error("buffered engine served a batch without the shared lock — fast path must be off")
	}
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("op %d: %v", i, ops[i].Err)
		}
		if !bytes.Equal(ops[i].Buf, data[ops[i].LBA*testChunk:(ops[i].LBA+1)*testChunk]) {
			t.Fatalf("op %d (lba %d): buffered chunk contents lost", i, ops[i].LBA)
		}
	}
}

// TestReadBatchDegraded fails an SSD and checks batched reads return every
// acknowledged byte. Committed chunks on the failed SSD are decoded inside
// the lock-free pass — no shared lock — and counted in core.degraded_reads
// once each. A chunk on it protected by a log stripe (updated, not yet
// folded) takes the locked path, which decodes it through that log stripe:
// decoded from its data stripe, it would come back as its committed bytes.
func TestReadBatchDegraded(t *testing.T) {
	sink := obs.NewSink()
	ta := newTestArray(t, 5, 4, Config{Shards: 4, Obs: sink})
	defer ta.e.Close()
	e := ta.e
	data := chunkData(1, int(e.Chunks()))
	ta.mustWrite(t, 0, data)
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	const failed = 1
	var lost []int64
	for lba := int64(0); lba < e.Chunks(); lba++ {
		if e.loadLatest(lba).Dev == failed {
			lost = append(lost, lba)
		}
	}
	readAll := func(lbas []int64) {
		t.Helper()
		ops := make([]ReadOp, len(lbas))
		for i, lba := range lbas {
			ops[i] = ReadOp{LBA: lba, Buf: make([]byte, testChunk)}
		}
		e.ReadBatch(ops)
		for _, op := range ops {
			if op.Err != nil {
				t.Fatalf("degraded batched read of lba %d: %v", op.LBA, op.Err)
			}
			if !bytes.Equal(op.Buf, data[op.LBA*testChunk:(op.LBA+1)*testChunk]) {
				t.Fatalf("lba %d: degraded reconstruction diverged", op.LBA)
			}
		}
	}

	ta.main[failed].Fail()
	all := make([]int64, e.Chunks())
	for i := range all {
		all[i] = int64(i)
	}
	base, decoded := e.ReadLockAcquisitions(), sink.Counter("core.degraded_reads").Value()
	readAll(all)
	if got := e.ReadLockAcquisitions() - base; got != 0 {
		t.Errorf("degraded batch of committed chunks took %d shared locks, want the lock-free pass", got)
	}
	if got := sink.Counter("core.degraded_reads").Value() - decoded; got != int64(len(lost)) {
		t.Errorf("core.degraded_reads rose by %d, want %d (the chunks on SSD %d)", got, len(lost), failed)
	}

	// Update one chunk on the SSD while it is up, then fail it again: the
	// chunk's latest version is now protected by a log stripe.
	ta.main[failed].Repair()
	upd := lost[0]
	copy(data[upd*testChunk:], chunkData(2, 1))
	ta.mustWrite(t, upd, data[upd*testChunk:(upd+1)*testChunk])
	if e.PendingLogStripes() == 0 {
		t.Fatal("setup: the update left no pending log stripe")
	}
	ta.main[failed].Fail()
	base = e.ReadLockAcquisitions()
	readAll([]int64{upd})
	if got := e.ReadLockAcquisitions() - base; got == 0 {
		t.Error("a log-protected chunk on the failed SSD was read without the lock")
	}
	readAll(all)
}

// TestReadBatchPerOpErrors checks invalid ops fail individually without
// taking down the batch, mirroring WriteBatch semantics.
func TestReadBatchPerOpErrors(t *testing.T) {
	e := batchEngine(t, 2, 16)
	defer e.Close()
	fillEngine(t, e, 7)
	ops := []ReadOp{
		{LBA: 0, Buf: make([]byte, testChunk-1)},        // not a chunk multiple
		{LBA: e.Chunks(), Buf: make([]byte, testChunk)}, // out of range
		{LBA: -1, Buf: make([]byte, testChunk)},         // negative
		{LBA: 1, Buf: make([]byte, testChunk)},          // fine
		{LBA: 0, Buf: nil},                              // empty
	}
	e.ReadBatch(ops)
	for _, i := range []int{0, 1, 2, 4} {
		if ops[i].Err == nil {
			t.Errorf("op %d: invalid op accepted", i)
		}
	}
	if ops[3].Err != nil {
		t.Errorf("op 3: valid op failed: %v", ops[3].Err)
	}
}

// TestReadBatchEpochFallback hammers batched lock-free reads against
// concurrent single-chunk writers. Every chunk only ever holds a uniform
// byte value, so any torn read — a batch that passed epoch validation it
// should have failed — shows up as a mixed-value chunk. Runs until the
// locked fallback has demonstrably fired at least once (validation
// failures are what push a group onto it), bounded by an iteration cap so
// a fast machine doesn't spin forever. Meant for -race.
func TestReadBatchEpochFallback(t *testing.T) {
	e := batchEngine(t, 4, 64)
	defer e.Close()
	k := int64(e.geo.K)
	chunks := e.Chunks()

	// Precondition: uniform value per chunk.
	for s := int64(0); s < e.cfg.Stripes; s++ {
		full := make([]byte, int(k)*testChunk)
		for i := range full {
			full[i] = byte(s)
		}
		if _, err := e.WriteChunks(0, s*k, full); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			val := byte(w)
			buf := make([]byte, testChunk)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range buf {
					buf[i] = val
				}
				lba := int64(r.Intn(int(chunks)))
				if _, err := e.WriteChunks(0, lba, buf); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				val += 3
			}
		}(w)
	}

	const maxIters = 4000
	fellBack := false
	for iter := 0; iter < maxIters; iter++ {
		ops := make([]ReadOp, 32)
		r := rand.New(rand.NewSource(int64(iter)))
		for i := range ops {
			ops[i] = ReadOp{LBA: int64(r.Intn(int(chunks))), Buf: make([]byte, testChunk)}
		}
		base := e.ReadLockAcquisitions()
		e.ReadBatch(ops)
		if e.ReadLockAcquisitions() > base {
			fellBack = true
		}
		for i := range ops {
			if ops[i].Err != nil {
				t.Fatalf("iter %d op %d: %v", iter, i, ops[i].Err)
			}
			v := ops[i].Buf[0]
			for j, b := range ops[i].Buf {
				if b != v {
					t.Fatalf("iter %d op %d (lba %d): torn read at byte %d (%d != %d)",
						iter, i, ops[i].LBA, j, b, v)
				}
			}
		}
		if fellBack && iter > 200 {
			break
		}
	}
	close(stop)
	wg.Wait()
	if !fellBack {
		t.Logf("note: no epoch-validation failure observed in %d iterations (fast path never yielded)", maxIters)
	}
}

// TestReadBatchMatchesSerialSoak is the bit-identical reconciliation: a
// deterministic mixed write/read stream runs through the sharded engine
// with batched entry (WriteBatch + ReadBatch) and through a fresh serial
// engine one op at a time; every batched read must reproduce the serial
// replay byte for byte.
func TestReadBatchMatchesSerialSoak(t *testing.T) {
	eb := batchEngine(t, 4, 64)
	es := batchEngine(t, 1, 64)
	defer eb.Close()
	defer es.Close()
	k := int64(eb.geo.K)
	chunks := int(eb.Chunks())

	// Fill both images identically.
	want := fillEngine(t, eb, 21)
	for s := int64(0); s < es.cfg.Stripes; s++ {
		lba := s * k
		if _, err := es.WriteChunks(0, lba, want[lba*testChunk:(lba+k)*testChunk]); err != nil {
			t.Fatal(err)
		}
	}

	r := rand.New(rand.NewSource(77))
	for round := 0; round < 30; round++ {
		// A batched write burst, mirrored serially.
		wops := make([]BatchOp, 8)
		for i := range wops {
			lba := int64(r.Intn(chunks))
			data := chunkData(1000+round*8+i, 1)
			wops[i] = BatchOp{LBA: lba, Data: data}
		}
		eb.WriteBatch(wops)
		for i := range wops {
			if wops[i].Err != nil {
				t.Fatalf("round %d write %d: %v", round, i, wops[i].Err)
			}
			if _, err := es.WriteChunks(0, wops[i].LBA, wops[i].Data); err != nil {
				t.Fatal(err)
			}
		}
		// A batched read burst, reconciled against the serial engine.
		rops := make([]ReadOp, 16)
		for i := range rops {
			n := 1 + r.Intn(2)
			lba := int64(r.Intn(chunks - n))
			rops[i] = ReadOp{LBA: lba, Buf: make([]byte, n*testChunk)}
		}
		eb.ReadBatch(rops)
		ser := make([]byte, 2*testChunk)
		for i := range rops {
			if rops[i].Err != nil {
				t.Fatalf("round %d read %d: %v", round, i, rops[i].Err)
			}
			sbuf := ser[:len(rops[i].Buf)]
			if _, err := es.ReadChunks(0, rops[i].LBA, sbuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rops[i].Buf, sbuf) {
				t.Fatalf("round %d read %d (lba %d): batched and serial replays diverge", round, i, rops[i].LBA)
			}
		}
	}
}

// TestReadBatchAllocFree pins the steady-state zero-allocation property of
// the sharded entry points next to the serial pin of
// TestSteadyStateUpdateAllocFree, with the flight recorder at full tilt:
// a single-group ReadBatch and WriteBatch (plan pooling, in-place sort,
// span reuse, the inline group path the server's per-shard traffic takes),
// a single-op ReadChunks (a batch of one on the caller's stack), and the
// served read shape — 64 ops over all four shards of a write-behind engine,
// which would cost a closure per spawned group if any group left the
// caller's goroutine.
func TestReadBatchAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race runs")
	}
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts at random, so the plan pool cannot stay warm")
	}
	const k, n, stripes, shards = 4, 5, 64, 4
	// All ops on stripes ≡ 0 (mod shards) -> shard 0 -> one group, inline
	// execution.
	const nOps = 16
	bufs := make([]byte, nOps*testChunk)
	rops := make([]ReadOp, nOps)
	wops := make([]BatchOp, nOps)
	for i := range rops {
		lba := int64(shards*(i%(stripes/shards))) * k
		buf := bufs[i*testChunk : (i+1)*testChunk]
		rops[i] = ReadOp{LBA: lba, Buf: buf}
		wops[i] = BatchOp{LBA: lba, Data: buf}
	}
	// One op per stripe, round-robin: 16 ops on each of the four shards.
	served := make([]ReadOp, stripes)
	for i := range served {
		served[i] = ReadOp{LBA: int64(i)*k + int64(i)%k, Buf: make([]byte, testChunk)}
	}
	for _, tc := range []struct {
		name        string
		writeBehind bool
		degraded    bool // SSD 1 fails after the fill: its chunks decode in the lock-free pass
		step        func(e *EPLog)
	}{
		{"ReadBatch/one-group", false, false, func(e *EPLog) { e.ReadBatch(rops) }},
		{"ReadBatch/served-64-ops-4-shards", true, false, func(e *EPLog) { e.ReadBatch(served) }},
		{"ReadBatch/served-degraded", true, true, func(e *EPLog) { e.ReadBatch(served) }},
		{"ReadChunks", false, false, func(e *EPLog) { e.ReadChunks(0, rops[0].LBA, rops[0].Buf) }},
		{"WriteBatch/one-group", false, false, func(e *EPLog) { e.WriteBatch(wops) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := obs.NewSink()
			sink.EnableSpans(obs.SpanConfig{Trees: 16})
			devs := make([]device.Dev, n)
			for i := range devs {
				devs[i] = device.NewMem(stripes*4, testChunk)
			}
			faulty := device.NewFaulty(devs[1])
			devs[1] = faulty
			logs := []device.Dev{device.NewMem(stripes*8, testChunk)}
			// CommitEvery plus a bounded dirty window keep the written
			// shard's log-stripe freelist recycling.
			e, err := New(devs, logs, Config{K: k, Stripes: stripes, Shards: shards,
				CommitEvery: 8, DirtyWindowStripes: 16, WriteBehind: tc.writeBehind, Obs: sink})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			fillEngine(t, e, 13)
			if tc.degraded {
				faulty.Fail()
			}
			for i := 0; i < 64; i++ {
				tc.step(e)
			}
			if avg := steadyAllocs(func() { tc.step(e) }); avg != 0 {
				t.Errorf("steady state allocates %.2f objects/call, want 0", avg)
			}
			if tc.degraded && sink.Counter("core.degraded_reads").Value() == 0 {
				t.Error("no read decoded: SSD 1 holds none of the served chunks")
			}
		})
	}
}

// readOrderDev records, for every chunk read, the destination it was handed
// and whether the test function is on the reading goroutine's stack.
type readOrderDev struct {
	device.Dev
	mu   *sync.Mutex
	dsts *[]*byte
	off  *int // reads issued from any goroutine but the test's
}

// calledFrom reports whether a function whose name ends in suffix is on the
// calling goroutine's stack.
func calledFrom(suffix string) bool {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, suffix) {
			return true
		}
		if !more {
			return false
		}
	}
}

func (d readOrderDev) ReadChunkAt(start float64, idx int64, p []byte) (float64, error) {
	onCaller := calledFrom(".TestReadBatchShardOrderOnCaller")
	d.mu.Lock()
	*d.dsts = append(*d.dsts, &p[0])
	if !onCaller {
		*d.off++
	}
	d.mu.Unlock()
	return d.Dev.ReadChunkAt(start, idx, p)
}

// TestReadBatchShardOrderOnCaller states ReadBatch's concurrency contract:
// every device read of a batch spread over all shards is issued from the
// caller's goroutine, shard groups in ascending shard order and each group
// in ascending LBA order — the deterministic virtual-time order.
func TestReadBatchShardOrderOnCaller(t *testing.T) {
	const k, n, stripes, shards = 4, 5, 64, 4
	var mu sync.Mutex
	var dsts []*byte
	var off int
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = readOrderDev{device.NewMem(stripes*4, testChunk), &mu, &dsts, &off}
	}
	logs := []device.Dev{device.NewMem(stripes*8, testChunk)}
	e, err := New(devs, logs, Config{K: k, Stripes: stripes, Shards: shards, WriteBehind: true, DirtyWindowStripes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillEngine(t, e, 7)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	ops := readBatchOps(e, 64) // batch order interleaves the shards
	opOf := make(map[*byte]int, len(ops))
	for i := range ops {
		opOf[&ops[i].Buf[0]] = i
	}
	mu.Lock()
	dsts, off = dsts[:0], 0
	mu.Unlock()
	e.ReadBatch(ops)

	if off != 0 {
		t.Fatalf("%d of %d device reads were issued off the caller's goroutine", off, len(dsts))
	}
	if len(dsts) != len(ops) {
		t.Fatalf("%d device reads for %d clean 1-chunk ops", len(dsts), len(ops))
	}
	prevShard, prevLBA := -1, int64(-1)
	for _, dst := range dsts {
		op, ok := opOf[dst]
		if !ok {
			t.Fatal("a device read landed outside every op's buffer")
		}
		if ops[op].Err != nil {
			t.Fatalf("op %d: %v", op, ops[op].Err)
		}
		lba := ops[op].LBA
		shard := int(lba / k % shards)
		if shard < prevShard || (shard == prevShard && lba <= prevLBA) {
			t.Fatalf("read of lba %d (shard %d) after lba %d (shard %d): want ascending shards, ascending LBAs within one", lba, shard, prevLBA, prevShard)
		}
		prevShard, prevLBA = shard, lba
	}
}

// TestFastReadsRaceRebuild runs lock-free ReadBatches against Rebuilds of
// a failed device. The fast path looks devices up with no shard lock, so the
// device table is published copy-on-write through an atomic pointer: under
// -race an element assigned in place by Rebuild is reported here (an
// interface is two words, so a torn read would be a crash, not a stale
// result the epoch check discards). Every read returns the acknowledged
// image before, during and after each swap.
func TestFastReadsRaceRebuild(t *testing.T) {
	e, main, _ := newHoldArray(t, Config{Shards: 4})
	defer e.Close()
	if !e.fastReads {
		t.Fatal("engine has no lock-free read pass")
	}
	// One written stripe with one pending update, the rest virgin: every
	// stripe a Rebuild decodes takes the device mutexes the readers take, and
	// so orders their earlier lookups before the swap.
	k := e.geo.K
	want := make([]byte, e.Chunks()*testChunk)
	copy(want, chunkData(30, k))
	if _, err := e.WriteChunks(0, 0, want[:k*testChunk]); err != nil {
		t.Fatal(err)
	}
	copy(want[testChunk:], chunkData(40, 1))
	if _, err := e.WriteChunks(0, 1, want[testChunk:2*testChunk]); err != nil {
		t.Fatal(err)
	}

	// Each reader's batch is one op spanning every shard: one epoch sample,
	// then a device lookup per chunk of the array — the longest lock-free
	// pass there is.
	const readers = 3
	stop := make(chan struct{})
	var passes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := []ReadOp{{Buf: make([]byte, len(want))}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if e.ReadBatch(ops); ops[0].Err != nil {
					t.Errorf("read: %v", ops[0].Err)
					return
				}
				if !bytes.Equal(ops[0].Buf, want) {
					t.Error("read returned stale or torn data")
					return
				}
				passes.Add(1)
			}
		}()
	}
	for i := 0; i < 64 && !t.Failed(); i++ {
		dev := i % len(main)
		replacement := &brokenReadDev{Dev: device.NewMem(testDevChunks, testChunk)}
		// Let the readers the last swap sent to the locked path get back to
		// lock-free passes, so this one lands inside some.
		for target := passes.Load() + 2*readers; passes.Load() < target; {
			runtime.Gosched()
		}
		main[dev].failed.Store(true)
		if err := e.Rebuild(dev, replacement); err != nil {
			t.Fatal(err)
		}
		main[dev] = replacement
	}
	close(stop)
	wg.Wait()

	// The replacements serve the fast path: an idle array reads lock-free.
	locked := e.ReadLockAcquisitions()
	e.ReadBatch(readBatchOps(e, int(e.Chunks())))
	if got := e.ReadLockAcquisitions(); got != locked {
		t.Errorf("%d locked read groups on an idle rebuilt array, want none", got-locked)
	}
}

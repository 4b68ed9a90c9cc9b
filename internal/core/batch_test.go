package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// batchEngine builds an engine over plain mem devices with a wide stripe
// count so batches can spread across shards.
func batchEngine(t testing.TB, shards int, stripes int64) *EPLog {
	t.Helper()
	return batchEngineObs(t, shards, stripes, nil)
}

// batchEngineObs is batchEngine reporting into sink (nil for none).
func batchEngineObs(t testing.TB, shards int, stripes int64, sink *obs.Sink) *EPLog {
	t.Helper()
	const k, n = 4, 5
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(stripes*4, testChunk)
	}
	logs := []device.Dev{device.NewMem(stripes*8, testChunk)}
	e, err := New(devs, logs, Config{K: k, Stripes: stripes, Shards: shards, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// singleChunkOps builds one single-chunk update per stripe, round-robin
// over the first `stripes` stripes.
func singleChunkOps(e *EPLog, nOps int, seed byte) []BatchOp {
	k := int64(e.geo.K)
	ops := make([]BatchOp, nOps)
	for i := range ops {
		s := int64(i) % e.cfg.Stripes
		data := make([]byte, testChunk)
		for j := range data {
			data[j] = seed + byte(i) + byte(j)
		}
		ops[i] = BatchOp{LBA: s*k + int64(i)%k, Data: data}
	}
	return ops
}

// sameButFewerLogStripes demands of a batched run what the sequential run
// of the same ops did on the main array and for the envelope — and no more
// log stripes or log chunks than it, because a group's update chunks share
// log stripes across requests.
func sameButFewerLogStripes(t *testing.T, batched, sequential Stats) {
	t.Helper()
	elastic := batched
	elastic.LogStripes, elastic.LogChunkWrites, elastic.LogBytes =
		sequential.LogStripes, sequential.LogChunkWrites, sequential.LogBytes
	if elastic != sequential || batched.LogStripes > sequential.LogStripes ||
		batched.LogChunkWrites > sequential.LogChunkWrites || batched.LogBytes > sequential.LogBytes {
		t.Fatalf("stats diverged beyond log-stripe sharing:\nbatched:    %+v\nsequential: %+v", batched, sequential)
	}
}

// TestWriteBatchMatchesSequential writes the same op stream batched and
// sequentially (on twin engines) and demands identical device contents,
// per-op success and stats, except that the batch may need fewer log
// stripes (48 one-chunk updates: 48 sequentially, a dozen batched).
func TestWriteBatchMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eb := batchEngine(t, shards, 64)
			es := batchEngine(t, shards, 64)
			defer eb.Close()
			defer es.Close()

			ops := singleChunkOps(eb, 48, 7)
			eb.WriteBatch(ops)
			for i := range ops {
				if ops[i].Err != nil {
					t.Fatalf("batched op %d: %v", i, ops[i].Err)
				}
			}
			for i := range ops {
				if _, err := es.WriteChunks(ops[i].Start, ops[i].LBA, ops[i].Data); err != nil {
					t.Fatalf("sequential op %d: %v", i, err)
				}
			}

			want := make([]byte, eb.Chunks()*int64(testChunk))
			got := make([]byte, len(want))
			if _, err := es.ReadChunks(0, 0, want); err != nil {
				t.Fatal(err)
			}
			if _, err := eb.ReadChunks(0, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("batched and sequential engines diverged")
			}
			sameButFewerLogStripes(t, eb.Stats(), es.Stats())
			if sb := eb.Stats(); sb.LogStripes*2 > sb.LogStripeMembers {
				t.Errorf("%d log stripes for %d updates: the batch's groups did not share stripes", sb.LogStripes, sb.LogStripeMembers)
			}
		})
	}
}

// TestWriteBatchFewerLockAcquisitions is the acceptance check: batching
// the same op count takes strictly fewer shard lock acquisitions than
// one-op-per-entry.
func TestWriteBatchFewerLockAcquisitions(t *testing.T) {
	const nOps = 64
	eb := batchEngine(t, 4, 64)
	es := batchEngine(t, 4, 64)
	defer eb.Close()
	defer es.Close()

	ops := singleChunkOps(eb, nOps, 3)
	base := eb.ShardLockAcquisitions()
	eb.WriteBatch(ops)
	batched := eb.ShardLockAcquisitions() - base

	ops2 := singleChunkOps(es, nOps, 3)
	base = es.ShardLockAcquisitions()
	for i := range ops2 {
		if _, err := es.WriteChunks(0, ops2[i].LBA, ops2[i].Data); err != nil {
			t.Fatal(err)
		}
	}
	sequential := es.ShardLockAcquisitions() - base

	if batched >= sequential {
		t.Fatalf("batched %d acquisitions, sequential %d: batching must be strictly cheaper", batched, sequential)
	}
	if batched != int64(eb.NumShards()) {
		t.Errorf("batched acquisitions = %d, want one per shard (%d)", batched, eb.NumShards())
	}
	// The sharded one-op-per-entry path takes the shard lock at least once
	// per op (twice for deferred updates: segment pass + update pass).
	if sequential < nOps {
		t.Errorf("sequential acquisitions = %d, want >= one per op (%d)", sequential, nOps)
	}
}

// TestWriteBatchSpanningOps checks multi-stripe ops of a multi-shard
// engine land correctly alongside local ops: first one hand-built batch,
// then seeded batches of misaligned spanning ops (2 … 3·K·Shards chunks,
// so up to more stripes than shards; the first covers a virgin full stripe
// between two partial ones, later ones overwrite) mixed with shard-local
// ops, mirrored one op at a time on a one-shard engine and on a sharded
// twin. Contents, main-array chunk counts, logged members and the
// once-per-op envelope must match, the batched run may not need more log
// stripes than its twin, and a spanning write must take exactly one
// exclusive lock per shard it touches.
func TestWriteBatchSpanningOps(t *testing.T) {
	e := batchEngine(t, 4, 64)
	defer e.Close()
	k := int64(e.geo.K)

	span := make([]byte, 2*k*testChunk) // two full stripes: crosses a shard boundary
	for i := range span {
		span[i] = byte(i * 31)
	}
	local := make([]byte, testChunk)
	for i := range local {
		local[i] = byte(i ^ 0x5A)
	}
	ops := []BatchOp{
		{LBA: 10 * k, Data: span},
		{LBA: 40*k + 1, Data: local},
	}
	e.WriteBatch(ops)
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("op %d: %v", i, ops[i].Err)
		}
	}
	got := make([]byte, len(span))
	if _, err := e.ReadChunks(0, 10*k, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, span) {
		t.Fatal("spanning op contents lost")
	}
	got = got[:testChunk]
	if _, err := e.ReadChunks(0, 40*k+1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, local) {
		t.Fatal("local op contents lost")
	}

	const shards, stripes = 4, 64
	sink := obs.NewSink()
	sink.EnableSpans(obs.SpanConfig{Trees: 4096})
	e4, e1 := batchEngineObs(t, shards, stripes, sink), batchEngine(t, 1, stripes)
	e4seq := batchEngine(t, shards, stripes)
	defer e4.Close()
	defer e1.Close()
	defer e4seq.Close()
	r := rand.New(rand.NewSource(5))
	var nOps int64
	for round := 0; round < 24; round++ {
		// Disjoint ops in ascending LBA order from a random origin: ops of
		// one batch touching the same LBA have unspecified order.
		var batch []BatchOp
		wantLocks := map[int]bool{} // shards holding a local group
		spanLocks := 0
		lba := int64(r.Intn(int(k)))
		for len(batch) < 6 {
			n := int64(1)
			if len(batch)%2 == 0 {
				n = 2 + int64(r.Intn(3*int(k)*shards-1))
			}
			if round == 0 && len(batch) == 0 {
				lba, n = 9*k+k-1, k+2 // tail of stripe 9, all of virgin stripe 10, head of 11
			}
			if lba+n > e4.Chunks() {
				break
			}
			batch = append(batch, BatchOp{LBA: lba, Data: chunkData(round*100+len(batch), int(n))})
			lo, hi := lba/k, (lba+n-1)/k
			if lo == hi {
				wantLocks[int(lo%shards)] = true
			} else {
				spanLocks += int(min(hi-lo+1, shards))
			}
			lba += n + int64(r.Intn(2*int(k)))
		}
		base := e4.ShardLockAcquisitions()
		e4.WriteBatch(batch)
		if got, want := e4.ShardLockAcquisitions()-base, int64(len(wantLocks)+spanLocks); got != want {
			t.Fatalf("round %d: %d exclusive lock acquisitions, want %d (one per local group + one per shard a spanning op touches)",
				round, got, want)
		}
		for i := range batch {
			if batch[i].Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, batch[i].Err)
			}
			if _, err := e1.WriteChunks(0, batch[i].LBA, batch[i].Data); err != nil {
				t.Fatal(err)
			}
			if _, err := e4seq.WriteChunks(0, batch[i].LBA, batch[i].Data); err != nil {
				t.Fatal(err)
			}
		}
		nOps += int64(len(batch))
		// Fold both engines so the sharded one's background triggers stay
		// quiet (their lock holds would blur the count above).
		if err := e4.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := e1.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := e4seq.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	img4, img1 := make([]byte, e4.Chunks()*testChunk), make([]byte, e1.Chunks()*testChunk)
	if _, err := e4.ReadChunks(0, 0, img4); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.ReadChunks(0, 0, img1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img4, img1) {
		t.Fatal("sharded batched and serial sequential engines diverged")
	}
	s4, s1 := e4.Stats(), e1.Stats()
	if s4.DataWriteChunks != s1.DataWriteChunks || s4.ParityWriteChunks != s1.ParityWriteChunks ||
		s4.FullStripeWrites != s1.FullStripeWrites || s4.LogStripeMembers != s1.LogStripeMembers {
		t.Fatalf("main-array traffic diverged:\nsharded: %+v\nserial:  %+v", s4, s1)
	}
	// Against its own shape run one op at a time (the one-shard engine
	// groups a spanning op's chunks across what are shard boundaries here,
	// DESIGN §9), batching may only save log stripes.
	if sq := e4seq.Stats(); s4.LogStripeMembers != sq.LogStripeMembers ||
		s4.LogStripes > sq.LogStripes || s4.LogChunkWrites > sq.LogChunkWrites {
		t.Fatalf("batched run needs more log stripes than the sequential one:\nbatched:    %+v\nsequential: %+v", s4, sq)
	}
	var roots int64
	for _, root := range sink.Spans() {
		if root.Kind == "write" {
			roots++
		}
	}
	if d := sink.SpansDropped(); d != 0 {
		t.Fatalf("span ring evicted %d trees", d)
	}
	if s4.Requests != nOps || roots != nOps {
		t.Fatalf("Stats.Requests = %d, write roots = %d, ops issued = %d; all must agree", s4.Requests, roots, nOps)
	}
}

// TestWriteBatchPerOpErrors checks invalid ops fail individually without
// taking down the batch.
func TestWriteBatchPerOpErrors(t *testing.T) {
	e := batchEngine(t, 2, 16)
	defer e.Close()
	good := make([]byte, testChunk)
	ops := []BatchOp{
		{LBA: 0, Data: make([]byte, testChunk-1)},        // not a chunk multiple
		{LBA: e.Chunks(), Data: make([]byte, testChunk)}, // out of range
		{LBA: -1, Data: make([]byte, testChunk)},         // negative
		{LBA: 1, Data: good},                             // fine
		{LBA: 0, Data: nil},                              // empty
	}
	e.WriteBatch(ops)
	for _, i := range []int{0, 1, 2, 4} {
		if ops[i].Err == nil {
			t.Errorf("op %d: invalid op accepted", i)
		}
	}
	if ops[3].Err != nil {
		t.Errorf("op 3: valid op failed: %v", ops[3].Err)
	}
}

// TestWritePressure checks the backpressure signal rises with pending log
// stripes and clears after a commit.
func TestWritePressure(t *testing.T) {
	const window = 8
	const k, n = 4, 5
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(testStripes*4, testChunk)
	}
	logs := []device.Dev{device.NewMem(testLogChunks, testChunk)}
	e, err := New(devs, logs, Config{K: k, Stripes: testStripes, DirtyWindowStripes: window})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if p := e.WritePressure(); p != 0 {
		t.Fatalf("fresh engine pressure %v, want 0", p)
	}
	buf := make([]byte, testChunk)
	for i := 0; i < window/2; i++ {
		if _, err := e.WriteChunks(0, int64(i*k), buf); err != nil {
			t.Fatal(err)
		}
	}
	p := e.WritePressure()
	if p < float64(window/2)/float64(window)-1e-9 {
		t.Fatalf("pressure %v after %d pending stripes, want >= %v", p, window/2, float64(window/2)/float64(window))
	}
	if p > 1 {
		t.Fatalf("pressure %v exceeds 1", p)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if p := e.WritePressure(); p != 0 {
		t.Fatalf("pressure %v after commit, want 0", p)
	}
}

// BenchmarkBatchLockAcquisitions reports the lock-acquisition payoff of
// batching at equal op counts: locks/op for batched vs sequential entry.
func BenchmarkBatchLockAcquisitions(b *testing.B) {
	for _, mode := range []string{"sequential", "batched"} {
		b.Run(mode, func(b *testing.B) {
			e := batchEngine(b, 4, 256)
			defer e.Close()
			const batch = 64
			ops := singleChunkOps(e, batch, 11)
			base := e.ShardLockAcquisitions()
			nOps := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "batched" {
					for j := range ops {
						ops[j].Err = nil
					}
					e.WriteBatch(ops)
				} else {
					for j := range ops {
						if _, err := e.WriteChunks(0, ops[j].LBA, ops[j].Data); err != nil {
							b.Fatal(err)
						}
					}
				}
				nOps += batch
			}
			b.StopTimer()
			acq := e.ShardLockAcquisitions() - base
			b.ReportMetric(float64(acq)/float64(nOps), "locks/op")
		})
	}
}

// groupSpyDev counts, while armed, the chunk writes issued with and without
// the named test function on the writing goroutine's stack.
type groupSpyDev struct {
	device.Dev
	test    string
	armed   *atomic.Bool
	on, off *atomic.Int64
}

func (d groupSpyDev) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	if d.armed.Load() {
		if calledFrom(d.test) {
			d.on.Add(1)
		} else {
			d.off.Add(1)
		}
	}
	return d.Dev.WriteChunkAt(start, idx, p)
}

// TestWriteBatchGroupsAllocFree pins the dispatcher's batch shape — 64
// one-chunk updates over all four shards of a write-behind engine with spans
// on — at zero allocations per batch, with the shard groups still parallel:
// three of the four run on goroutines of their own, started without a
// closure (batchPlan's groupRunner).
func TestWriteBatchGroupsAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race runs")
	}
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts at random, so the plan pool cannot stay warm")
	}
	const k, n, stripes, shards = 4, 5, 64, 4
	var armed atomic.Bool
	var on, off atomic.Int64
	sink := obs.NewSink()
	sink.EnableSpans(obs.SpanConfig{Trees: 16})
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = groupSpyDev{device.NewMem(stripes*4, testChunk), ".TestWriteBatchGroupsAllocFree", &armed, &on, &off}
	}
	logs := []device.Dev{device.NewMem(stripes*8, testChunk)}
	e, err := New(devs, logs, Config{K: k, Stripes: stripes, Shards: shards,
		CommitEvery: 8, DirtyWindowStripes: 16, WriteBehind: true, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillEngine(t, e, 17)

	// One op per stripe, round-robin: 16 ops on each of the four shards.
	ops := make([]BatchOp, stripes)
	for i := range ops {
		ops[i] = BatchOp{LBA: int64(i)*k + int64(i)%k, Data: chunkData(200+i, 1)}
	}
	step := func() {
		e.WriteBatch(ops)
		for i := range ops {
			if ops[i].Err != nil {
				t.Fatalf("op %d: %v", i, ops[i].Err)
			}
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if avg := steadyAllocs(step); avg != 0 {
		t.Errorf("a 64-op batch over 4 shards allocates %.2f objects, want 0", avg)
	}

	if err := e.Flush(); err != nil { // no fold's parity writes among the counted
		t.Fatal(err)
	}
	armed.Store(true)
	step()
	armed.Store(false)
	if on.Load() == 0 || off.Load() < 2*on.Load() {
		t.Errorf("%d chunk writes on the caller's goroutine and %d off it, want one group of four on the caller and three spawned", on.Load(), off.Load())
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/eplog/eplog/internal/device"
)

// newLatencyArray builds an (n, k) array of unit-latency devices with the
// given shard/worker config, for tests that care about virtual time.
func newLatencyArray(t testing.TB, n, k int, cfg Config) *EPLog {
	t.Helper()
	cfg.K = k
	if cfg.Stripes == 0 {
		cfg.Stripes = testStripes
	}
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.WithLatency(device.NewMem(testDevChunks, testChunk), 1.0, 1.0)
	}
	logs := make([]device.Dev, n-k)
	for i := range logs {
		logs[i] = device.WithLatency(device.NewMem(testLogChunks, testChunk), 1.0, 1.0)
	}
	e, err := New(devs, logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestCrossShardWriteRead drives multi-chunk requests that span shard
// boundaries (consecutive stripes belong to different shards under
// round-robin assignment) through write, read and scrub.
func TestCrossShardWriteRead(t *testing.T) {
	ta := newTestArray(t, 6, 4, Config{Shards: 4})
	t.Cleanup(func() { ta.e.Close() })
	if got := ta.e.nShards; got != 4 {
		t.Fatalf("nShards = %d, want 4", got)
	}
	// One request covering the whole array: 16 stripes, so 16 segments
	// landing round-robin on all 4 shards.
	data := chunkData(1, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)

	// A request spanning exactly one shard boundary: the last chunk of
	// stripe 1 (shard 1) and the first chunk of stripe 2 (shard 2).
	k := int64(ta.k)
	upd := chunkData(2, 2)
	ta.mustWrite(t, 2*k-1, upd)
	copy(data[(2*k-1)*testChunk:], upd)

	// Same boundary, read side, plus a read of everything.
	got := make([]byte, 2*testChunk)
	if _, err := ta.e.ReadChunks(0, 2*k-1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, upd) {
		t.Fatal("cross-shard read mismatch")
	}
	ta.verify(t, data, "after cross-shard update")

	if err := ta.e.Commit(); err != nil {
		t.Fatal(err)
	}
	ta.verify(t, data, "after commit")
	rep, err := ta.e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub: %+v", rep)
	}
}

// TestMultiShardDegradedReads leaves pending log stripes on several shards,
// fails one SSD, and checks every chunk still reads back — committed slots
// through their data stripes, pending slots through the log stripes of
// whichever shard owns them.
func TestMultiShardDegradedReads(t *testing.T) {
	ta := newTestArray(t, 6, 4, Config{Shards: 4})
	t.Cleanup(func() { ta.e.Close() })
	data := chunkData(1, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)

	// One single-chunk update per stripe: every shard ends up holding
	// pending log stripes.
	for s := int64(0); s < testStripes; s++ {
		lba := s*int64(ta.k) + s%int64(ta.k)
		upd := chunkData(100+int(s), 1)
		ta.mustWrite(t, lba, upd)
		copy(data[lba*testChunk:], upd)
	}
	shardsWithLogs := 0
	for _, sh := range ta.e.shards {
		if len(sh.logStripes) > 0 {
			shardsWithLogs++
		}
	}
	if shardsWithLogs != 4 {
		t.Fatalf("shards with pending log stripes = %d, want 4", shardsWithLogs)
	}

	ta.main[2].Fail()
	ta.verify(t, data, "degraded across shards")
	ta.main[2].Repair()
}

// TestSerialShardedIdentity is the tentpole's contract: for workloads
// whose update requests stay within one stripe (the trace-driven
// experiments' shape after chunking), the sharded engine must produce the
// same bytes and — for the closed-loop single-client workload, where
// requests chain on each other — the same virtual times as the serial
// engine, because per-device op counts and issue times fully determine the
// latency model's clocks. (Update requests that straddle a shard boundary
// split their elastic group per shard, so log traffic legitimately grows;
// TestCrossShardGroupSplit pins that trade-off.)
func TestSerialShardedIdentity(t *testing.T) {
	const n, k = 6, 4
	run := func(shards int) (ends []float64, st Stats, contents []byte, commitEnd float64) {
		e := newLatencyArray(t, n, k, Config{Shards: shards})
		total := e.Chunks()
		data := chunkData(7, int(total))
		now := 0.0
		record := func(t2 float64, err error) {
			if err != nil {
				t.Fatal(err)
			}
			now = t2
			ends = append(ends, t2)
		}
		// Fill pass: one request spanning every stripe (and so every
		// shard; full-stripe segments are independent, so the direct
		// writes do not regroup), then chained single-chunk updates
		// scattered over all stripes.
		t2, err := e.WriteChunks(now, 0, data)
		record(t2, err)
		r := rand.New(rand.NewSource(42))
		for i := 0; i < 64; i++ {
			lba := int64(r.Intn(int(total)))
			u := chunkData(1000+i, 1)
			t2, err = e.WriteChunks(now, lba, u)
			record(t2, err)
			copy(data[lba*testChunk:], u)
		}
		commitEnd, err = e.CommitAt(now)
		if err != nil {
			t.Fatal(err)
		}
		contents = make([]byte, len(data))
		if _, err := e.ReadChunks(commitEnd, 0, contents); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(contents, data) {
			t.Fatalf("shards=%d: contents mismatch", shards)
		}
		rep, err := e.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("shards=%d: scrub: %+v", shards, rep)
		}
		return ends, e.Stats(), contents, commitEnd
	}

	serialEnds, serialStats, serialData, serialCommit := run(1)
	for _, shards := range []int{2, 4} {
		ends, st, data, commit := run(shards)
		for i := range serialEnds {
			if ends[i] != serialEnds[i] {
				t.Fatalf("shards=%d: request %d end = %v, serial %v", shards, i, ends[i], serialEnds[i])
			}
		}
		if commit != serialCommit {
			t.Fatalf("shards=%d: commit end = %v, serial %v", shards, commit, serialCommit)
		}
		if !bytes.Equal(data, serialData) {
			t.Fatalf("shards=%d: contents differ from serial", shards)
		}
		// Byte counts must be identical; Commits legitimately differs
		// (one count per shard that folded).
		a, b := st, serialStats
		a.Commits, b.Commits = 0, 0
		if a != b {
			t.Fatalf("shards=%d: stats = %+v, serial %+v", shards, a, b)
		}
	}
}

// TestCrossShardGroupSplit pins the sharding trade-off on elastic
// grouping: an update request that straddles a shard boundary forms one
// log stripe per touched shard instead of one wide one, so data-chunk
// traffic is unchanged but log-chunk traffic grows with the split.
func TestCrossShardGroupSplit(t *testing.T) {
	const n, k = 6, 4
	m := int64(n - k)
	run := func(shards int) Stats {
		ta := newTestArray(t, n, k, Config{Shards: shards})
		t.Cleanup(func() { ta.e.Close() })
		ta.mustWrite(t, 0, chunkData(1, int(ta.e.Chunks())))
		// Two chunks, stripes 1 and 2: same shard when shards=1, two
		// shards otherwise.
		ta.mustWrite(t, 2*int64(k)-1, chunkData(2, 2))
		return ta.e.Stats()
	}
	serial, sharded := run(1), run(4)
	if serial.DataWriteChunks != sharded.DataWriteChunks {
		t.Fatalf("data chunks: serial %d, sharded %d", serial.DataWriteChunks, sharded.DataWriteChunks)
	}
	if serial.LogStripes != 1 || sharded.LogStripes != 2 {
		t.Fatalf("log stripes: serial %d (want 1), sharded %d (want 2)", serial.LogStripes, sharded.LogStripes)
	}
	if serial.LogChunkWrites != m || sharded.LogChunkWrites != 2*m {
		t.Fatalf("log chunks: serial %d (want %d), sharded %d (want %d)",
			serial.LogChunkWrites, m, sharded.LogChunkWrites, 2*m)
	}
}

// TestStatsAggregationRace hammers the read-lock aggregators while
// concurrent writers mutate different shards; the race detector provides
// the verdict, and the final aggregate must add up.
func TestStatsAggregationRace(t *testing.T) {
	ta := newTestArray(t, 6, 4, Config{Shards: 4, CommitEvery: 8})
	t.Cleanup(func() { ta.e.Close() })
	e := ta.e
	const writers = 4
	const perWriter = 48
	var wgWriters, wgReaders sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wgReaders.Add(1)
		go func() {
			defer wgReaders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = e.Stats()
				_ = e.PendingLogChunks()
				_ = e.PendingLogStripes()
			}
		}()
	}
	var werr error
	var werrOnce sync.Once
	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			for i := 0; i < perWriter; i++ {
				lba := int64((w*perWriter + i) % int(e.Chunks()))
				if _, err := e.WriteChunks(0, lba, chunkData(w*1000+i, 1)); err != nil {
					werrOnce.Do(func() { werr = err })
					return
				}
			}
		}(w)
	}
	wgWriters.Wait()
	close(stop)
	wgReaders.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Requests; got != writers*perWriter {
		t.Fatalf("aggregated Requests = %d, want %d", got, writers*perWriter)
	}
	rep, err := e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub: %+v", rep)
	}
}

// TestAsyncCommitErrorSurfaces checks that a background group-commit
// failure reaches the caller: the next write touching the failed shard
// returns the stored error.
func TestAsyncCommitErrorSurfaces(t *testing.T) {
	ta := newTestArray(t, 6, 4, Config{Shards: 2, WriteBehind: true})
	t.Cleanup(func() { ta.e.Close() })
	sh := ta.e.shards[1]
	sh.mu.Lock()
	sh.asyncErr = fmt.Errorf("background commit boom")
	sh.mu.Unlock()
	// Stripe 1 belongs to shard 1.
	_, err := ta.e.WriteChunks(0, int64(ta.k), chunkData(3, 1))
	if err == nil || err.Error() != "background commit boom" {
		t.Fatalf("err = %v, want stored async error", err)
	}
	// The error is consumed: the retry succeeds.
	if _, err := ta.e.WriteChunks(0, int64(ta.k), chunkData(3, 1)); err != nil {
		t.Fatalf("retry: %v", err)
	}
}

// TestShardClamping checks the shard count never exceeds what the geometry
// can partition.
func TestShardClamping(t *testing.T) {
	// Stripes=16 but only 2 chunks of per-device headroom: at most 2 shards.
	devs := make([]device.Dev, 6)
	for i := range devs {
		devs[i] = device.NewMem(testStripes+2, testChunk)
	}
	logs := []device.Dev{device.NewMem(64, testChunk), device.NewMem(64, testChunk)}
	e, err := New(devs, logs, Config{K: 4, Stripes: testStripes, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.nShards != 2 {
		t.Fatalf("nShards = %d, want clamped to 2", e.nShards)
	}
}

// BenchmarkMultiShardWrites measures closed-loop write throughput at
// several shard counts with one writer goroutine per shard on disjoint
// stripe sets — the scaling the sharding exists to buy. Run on a machine
// with at least as many cores as shards to see the spread; no speedup
// figure is recorded.
func BenchmarkMultiShardWrites(b *testing.B) {
	const n, k = 8, 6
	const stripes = 256
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			devs := make([]device.Dev, n)
			for i := range devs {
				devs[i] = device.NewMem(stripes*8, 4096)
			}
			logs := make([]device.Dev, n-k)
			for i := range logs {
				// Sized from the workload: CommitEvery folds each shard's
				// log region long before stripes*8 slots fill.
				logs[i] = device.NewMem(stripes*8, 4096)
			}
			e, err := New(devs, logs, Config{K: k, Stripes: stripes, Shards: shards, CommitEvery: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			// Preconditioning: full-stripe fill so updates take the log path.
			fill := make([]byte, int(e.Chunks())*4096)
			if _, err := e.WriteChunks(0, 0, fill); err != nil {
				b.Fatal(err)
			}
			writers := shards
			data := make([][]byte, writers)
			for w := range data {
				data[w] = bytes.Repeat([]byte{byte(w + 1)}, 4096)
			}
			b.SetBytes(4096 * int64(writers))
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Writer w touches only stripes ≡ w (mod writers), so
					// with shards == writers there is no lock sharing.
					base := int64(w) * int64(k)
					step := int64(writers) * int64(k)
					total := e.Chunks()
					lba := base
					for i := 0; i < b.N; i++ {
						if _, err := e.WriteChunks(0, lba, data[w]); err != nil {
							b.Error(err)
							return
						}
						lba += step
						if lba >= total {
							lba = base
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

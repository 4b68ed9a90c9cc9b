package experiments

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/trace"
)

// scalingResult is one run of the concurrent-writer workload: traffic
// counters that must not depend on the shard count.
type scalingResult struct {
	Requests int64
	// SSDWriteBytes and LogWriteBytes are measured at the devices;
	// SSDReadBytes counts only the read-back phase (Verify's reads are
	// excluded).
	SSDWriteBytes int64
	SSDReadBytes  int64
	LogWriteBytes int64
	Stats         core.Stats
}

// identical reports whether two runs carry identical traffic counters.
// Stats.Commits is excluded: the final Commit folds once per shard, so the
// commit count equals the shard count by construction.
func (a *scalingResult) identical(b *scalingResult) bool {
	sa, sb := a.Stats, b.Stats
	sa.Commits, sb.Commits = 0, 0
	return a.SSDWriteBytes == b.SSDWriteBytes &&
		a.SSDReadBytes == b.SSDReadBytes &&
		a.LogWriteBytes == b.LogWriteBytes &&
		a.Requests == b.Requests &&
		sa == sb
}

// runScaling drives one EPLog array with a writer goroutine per shard. The
// workload is built so that no schedule can change what is written:
//
//   - every request is a single-chunk update, so it forms exactly one
//     k'=1 log stripe and lands wholly inside one shard — the elastic
//     groups cannot split at shard boundaries, which is what makes the
//     byte counters (including log traffic) shard-count independent;
//   - writer w owns the stripes congruent to w mod shards, exactly shard
//     w's stripe set, so writers share no shard lock and requests to
//     different shards are always in flight together;
//   - device buffers, the stripe buffer, and CommitEvery are disabled,
//     and every shard's slice of the update headroom and log space is
//     sized so neither the guard band nor the log-pressure group-commit
//     trigger can fire mid-run — the only parity fold is the final
//     Commit, over the same dirty-stripe set in every schedule.
//
// After the final Commit one reader goroutine per shard reads every LBA
// back (single-chunk requests on clean stripes, so a shared engine serves
// them on the epoch-validated lock-free path) and checks the contents
// against the last write; Verify then checks every stripe's parity.
func runScaling(scale int64, shards int) (*scalingResult, error) {
	set := DefaultSetting()
	k, m := set.K, set.M
	stripes := max(int64(32), 2048/scale)
	lbas := stripes * int64(k)
	rounds := int64(2) // updates per LBA
	total := lbas * rounds

	// Headroom: each device holds at most one data slot per stripe, so a
	// run allocates at most rounds chunks per stripe per device; give every
	// shard's slice of the headroom room for its whole share plus slack so
	// the guard band (1 chunk per shard here) is unreachable.
	ns := int64(shards)
	devChunks := stripes + rounds*stripes + 16*ns + 64
	// Log space: one log chunk per request per log device, range-split
	// across shards. The background group commit fires when a shard's
	// slice is 3/4 full; doubling every slice keeps it below 1/2.
	logChunks := 2*total + 16*ns

	devs := make([]device.Dev, k+m)
	counters := make([]*device.Counting, k+m)
	for i := range devs {
		counters[i] = device.NewCounting(device.NewMem(devChunks, ChunkSize))
		devs[i] = counters[i]
	}
	logDevs := make([]device.Dev, m)
	logCnt := make([]*device.Counting, m)
	for i := range logDevs {
		logCnt[i] = device.NewCounting(device.NewMem(logChunks, ChunkSize))
		logDevs[i] = logCnt[i]
	}
	e, err := core.New(devs, logDevs, core.Config{
		K:                 k,
		Stripes:           stripes,
		CommitGuardChunks: 1, // explicit: the default (capacity/16) could fire mid-run
		Shards:            shards,
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	// perWriter runs f on one goroutine per shard; writer w owns the
	// stripes congruent to w mod shards, exactly shard w's stripes.
	perWriter := func(f func(w int, buf []byte) error) error {
		errs := make([]error, shards)
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = f(w, make([]byte, ChunkSize))
			}(w)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	err = perWriter(func(w int, buf []byte) error {
		for r := int64(0); r < rounds; r++ {
			for s := int64(w); s < stripes; s += ns {
				for j := 0; j < k; j++ {
					lba := s*int64(k) + int64(j)
					for i := range buf {
						buf[i] = byte(lba + r*7 + int64(i))
					}
					if _, err := e.WriteChunks(0, lba, buf); err != nil {
						return fmt.Errorf("writer %d lba %d: %w", w, lba, err)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := e.Commit(); err != nil {
		return nil, err
	}

	readBase := int64(0)
	for _, c := range counters {
		readBase += c.ReadBytes()
	}
	last := rounds - 1
	err = perWriter(func(w int, buf []byte) error {
		for s := int64(w); s < stripes; s += ns {
			for j := 0; j < k; j++ {
				lba := s*int64(k) + int64(j)
				if _, err := e.ReadChunks(0, lba, buf); err != nil {
					return fmt.Errorf("reader %d lba %d: %w", w, lba, err)
				}
				if buf[0] != byte(lba+last*7) || buf[ChunkSize-1] != byte(lba+last*7+ChunkSize-1) {
					return fmt.Errorf("reader %d lba %d: read back stale or corrupt data", w, lba)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &scalingResult{Requests: total, SSDReadBytes: -readBase, Stats: e.Stats()}
	for _, c := range counters {
		res.SSDReadBytes += c.ReadBytes()
		res.SSDWriteBytes += c.WriteBytes()
	}
	for _, c := range logCnt {
		res.LogWriteBytes += c.WriteBytes()
	}

	report, err := e.Verify()
	if err != nil {
		return nil, err
	}
	if !report.OK() {
		return nil, fmt.Errorf("scaling run left inconsistent stripes: %d data, %d log",
			len(report.BadDataStripes), len(report.BadLogStripes))
	}
	return res, nil
}

// TestScalingByteCountsShardIndependent is the determinism contract for
// concurrent writers: with one writer goroutine per shard, the traffic
// counters and engine Stats must be identical for every shard count
// (Stats.Commits excepted — the final Commit folds once per shard by
// construction).
func TestScalingByteCountsShardIndependent(t *testing.T) {
	const scale = 64
	base, err := runScaling(scale, 1)
	if err != nil {
		t.Fatalf("shards=1: %v", err)
	}
	if base.SSDWriteBytes == 0 || base.LogWriteBytes == 0 {
		t.Fatalf("baseline run wrote nothing: ssd=%d log=%d", base.SSDWriteBytes, base.LogWriteBytes)
	}
	for _, s := range []int{2, 4, 8} {
		r, err := runScaling(scale, s)
		if err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		if !base.identical(r) {
			t.Errorf("shards=%d: counters diverged:\n got ssd=%d/%d log=%d stats=%+v\nwant ssd=%d/%d log=%d stats=%+v",
				s, r.SSDWriteBytes, r.SSDReadBytes, r.LogWriteBytes, r.Stats,
				base.SSDWriteBytes, base.SSDReadBytes, base.LogWriteBytes, base.Stats)
		}
		if got, want := r.Stats.Commits, int64(s); got != want {
			t.Errorf("shards=%d: commits = %d, want one per shard (%d)", s, got, want)
		}
	}
}

// TestTraceSerialShardedByteIdentity replays a synthetic trace through the
// full Run harness at several shard counts. The trace's updates are all
// single-chunk, so no elastic group can straddle a shard boundary and
// every traffic counter — log traffic included — must be byte-identical
// to the serial engine's.
func TestTraceSerialShardedByteIdentity(t *testing.T) {
	tr := trace.SequentialThenUniform("ident", 96*int64(ChunkSize), 400, ChunkSize, 11)
	run := func(shards int) *RunResult {
		t.Helper()
		res, err := Run(RunConfig{
			Setting:     DefaultSetting(),
			Scheme:      EPLog,
			Trace:       tr,
			CommitAtEnd: true,
			Shards:      shards,
		})
		if err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		return res
	}
	base := run(1)
	if base.SSDWriteBytes == 0 || base.LogWriteBytes == 0 {
		t.Fatalf("baseline replay wrote nothing: %+v", base)
	}
	for _, s := range []int{2, 4} {
		r := run(s)
		if r.SSDWriteBytes != base.SSDWriteBytes || r.SSDReadBytes != base.SSDReadBytes ||
			r.LogWriteBytes != base.LogWriteBytes || r.Requests != base.Requests {
			t.Errorf("shards=%d: traffic diverged: got ssd=%d/%d log=%d req=%d, want ssd=%d/%d log=%d req=%d",
				s, r.SSDWriteBytes, r.SSDReadBytes, r.LogWriteBytes, r.Requests,
				base.SSDWriteBytes, base.SSDReadBytes, base.LogWriteBytes, base.Requests)
		}
		gs, bs := r.EPLogStats, base.EPLogStats
		gs.Commits, bs.Commits = 0, 0
		if gs != bs {
			t.Errorf("shards=%d: engine stats diverged:\n got %+v\nwant %+v", s, gs, bs)
		}
	}
}

// TestTraceShardedGroupSplitBounds pins the documented trade-off for
// traces with multi-chunk updates: a request straddling a shard boundary
// splits its elastic group per shard, so the sharded engine may form more
// (narrower) log stripes and write more log chunks — but the data and
// parity traffic to the main array must stay byte-identical, because the
// split changes only how updates are grouped for logging, never what is
// written where on the SSDs.
func TestTraceShardedGroupSplitBounds(t *testing.T) {
	skipInShort(t)
	tr, err := loadTrace("FIN", testScale)
	if err != nil {
		t.Fatalf("loadTrace: %v", err)
	}
	run := func(shards int) *RunResult {
		t.Helper()
		res, err := Run(RunConfig{
			Setting:     DefaultSetting(),
			Scheme:      EPLog,
			Trace:       tr,
			CommitAtEnd: true,
			Shards:      shards,
		})
		if err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		return res
	}
	base := run(1)
	sharded := run(4)
	if sharded.SSDWriteBytes != base.SSDWriteBytes {
		t.Errorf("ssd write bytes: sharded %d, serial %d (must be identical)",
			sharded.SSDWriteBytes, base.SSDWriteBytes)
	}
	gs, bs := sharded.EPLogStats, base.EPLogStats
	if gs.DataWriteChunks != bs.DataWriteChunks {
		t.Errorf("data chunks: sharded %d, serial %d", gs.DataWriteChunks, bs.DataWriteChunks)
	}
	if gs.ParityWriteChunks != bs.ParityWriteChunks {
		t.Errorf("parity chunks: sharded %d, serial %d", gs.ParityWriteChunks, bs.ParityWriteChunks)
	}
	if gs.FullStripeWrites != bs.FullStripeWrites {
		t.Errorf("full-stripe writes: sharded %d, serial %d", gs.FullStripeWrites, bs.FullStripeWrites)
	}
	if gs.LogChunkWrites < bs.LogChunkWrites {
		t.Errorf("log chunks: sharded %d < serial %d (splitting can only add log stripes)",
			gs.LogChunkWrites, bs.LogChunkWrites)
	}
	if gs.LogStripes < bs.LogStripes {
		t.Errorf("log stripes: sharded %d < serial %d", gs.LogStripes, bs.LogStripes)
	}
}

// TestTraceSerialShardedVirtualTimeIdentity replays a single-chunk trace
// directly against engines over unit-latency devices, chaining each
// request's start to the previous end, and demands that every request's
// completion time — and the final commit's — match the serial engine
// exactly. Together with the byte-identity test above this is the
// "Shards=1-and-friends are bit-identical" contract at trace granularity.
func TestTraceSerialShardedVirtualTimeIdentity(t *testing.T) {
	const (
		k       = 6
		m       = 2
		stripes = 16
		csize   = 512
	)
	tr := trace.SequentialThenUniform("vt", int64(stripes*k*csize), 200, csize, 23)

	replay := func(shards int) (ends []float64, commitEnd float64) {
		t.Helper()
		devChunks := int64(stripes + 2048)
		devs := make([]device.Dev, k+m)
		for i := range devs {
			devs[i] = device.WithLatency(device.NewMem(devChunks, csize), 1.0, 1.0)
		}
		logs := make([]device.Dev, m)
		for i := range logs {
			logs[i] = device.WithLatency(device.NewMem(4096, csize), 1.0, 1.0)
		}
		e, err := core.New(devs, logs, core.Config{K: k, Stripes: stripes, Shards: shards})
		if err != nil {
			t.Fatalf("New(shards=%d): %v", shards, err)
		}
		defer e.Close()
		logical := e.Chunks()
		buf := make([]byte, csize)
		now := 0.0
		for ri, r := range tr.Requests {
			if r.Op != trace.OpWrite {
				continue
			}
			lba, n := trace.ChunkSpan(r.Offset, r.Size, csize)
			if n != 1 || lba >= logical {
				t.Fatalf("request %d: want single in-range chunk, got lba=%d n=%d", ri, lba, n)
			}
			for i := range buf {
				buf[i] = byte(lba + int64(ri) + int64(i))
			}
			end, err := e.WriteChunks(now, lba, buf)
			if err != nil {
				t.Fatalf("shards=%d request %d: %v", shards, ri, err)
			}
			ends = append(ends, end)
			now = end
		}
		commitEnd, err = e.CommitAt(now)
		if err != nil {
			t.Fatalf("shards=%d commit: %v", shards, err)
		}
		return ends, commitEnd
	}

	baseEnds, baseCommit := replay(1)
	for _, s := range []int{2, 4} {
		ends, commit := replay(s)
		if len(ends) != len(baseEnds) {
			t.Fatalf("shards=%d: %d requests, serial %d", s, len(ends), len(baseEnds))
		}
		for i := range ends {
			if ends[i] != baseEnds[i] {
				t.Fatalf("shards=%d: request %d end = %v, serial %v", s, i, ends[i], baseEnds[i])
			}
		}
		if commit != baseCommit {
			t.Errorf("shards=%d: commit end = %v, serial %v", s, commit, baseCommit)
		}
	}
}

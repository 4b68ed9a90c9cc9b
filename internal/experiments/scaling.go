package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// ScalingResult is the outcome of one shard-scaling run: byte-exact
// traffic counters that must not depend on the shard count, plus the
// wall-clock time of the write phase (which should shrink as shards grow
// on a multi-core machine).
type ScalingResult struct {
	// Shards is the engine's stripe-group count; Writers the number of
	// concurrent writer goroutines driving the array (one per shard,
	// floored at 1, so requests to different shards are always in flight
	// together).
	Shards  int
	Writers int
	// Requests is the total single-chunk update requests issued.
	Requests int64
	// Elapsed is the wall-clock duration of the write phase.
	Elapsed time.Duration
	// ReadElapsed is the wall-clock duration of the read phase: after the
	// final commit one reader goroutine per shard reads every LBA back as
	// single-chunk requests. Every stripe is clean by then, so on a shared
	// engine each read takes the epoch-validated lock-free path and the
	// column measures read-side scaling with no lock contention at all.
	ReadElapsed time.Duration
	// SSDWriteBytes and LogWriteBytes are measured at the devices;
	// SSDReadBytes counts only the read phase's traffic (the surrounding
	// verification reads are excluded). EPLogStats are the engine's own
	// counters. Everything except Stats.Commits (one per shard per Commit
	// call) is shard-count independent for this workload.
	SSDWriteBytes int64
	SSDReadBytes  int64
	LogWriteBytes int64
	EPLogStats    core.Stats
	// LockWaitSeconds aggregates the per-shard flight recorders'
	// lock-wait histograms: total wall-clock seconds request and
	// committer goroutines spent blocked on shard locks. With one writer
	// per shard contention should be near zero; a large value flags a
	// scheduling problem the elapsed column alone cannot attribute.
	LockWaitSeconds float64
}

// Scaling drives one EPLog array with a writer goroutine per shard and
// returns traffic counters that are byte-identical for every shard count.
// The workload is built so that no schedule can change what is written:
//
//   - every request is a single-chunk update, so it forms exactly one
//     k'=1 log stripe and lands wholly inside one shard — the elastic
//     groups cannot split at shard boundaries, which is what makes the
//     byte counters (including log traffic) shard-count independent;
//   - writer w owns the stripes congruent to w mod writers; with one
//     writer per shard that is exactly shard w's stripe set, so the
//     writers contend on no shard lock and the run measures pure
//     parallel request execution;
//   - device buffers, the stripe buffer, and CommitEvery are disabled,
//     and every shard's slice of the update headroom and log space is
//     sized so neither the guard band nor the log-pressure group-commit
//     trigger can fire mid-run — the only parity fold is the final
//     Commit, over the same dirty-stripe set in every schedule.
//
// After the final Commit a read phase reads every LBA back (one reader
// goroutine per shard, single-chunk requests, contents verified against
// the last write). Clean stripes plus a shared engine put every one of
// those reads on the epoch-validated lock-free path, so the phase
// measures the read side of the scaling story.
//
// Wall-clock time is the one number allowed to vary: with GOMAXPROCS
// cores available, S shards should approach an S-fold speedup of both
// phases until the core count saturates.
func Scaling(scale int64, shards int) (*ScalingResult, error) {
	if scale < 1 {
		return nil, fmt.Errorf("experiments: scale must be >= 1, got %d", scale)
	}
	if shards < 1 {
		shards = 1
	}
	set := DefaultSetting()
	k, m := set.K, set.M
	nDevs := k + m
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

	devs := make([]device.Dev, nDevs)
	counters := make([]*device.Counting, nDevs)
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
	// A small sink wires up the per-shard flight recorders so the run can
	// report aggregate lock-wait; the trace ring just wraps. The metric
	// cost is identical for every configuration, so comparisons hold.
	sink := obs.NewSink(64)
	e, err := core.New(devs, logDevs, core.Config{
		Obs:               sink,
		K:                 k,
		Stripes:           stripes,
		CommitGuardChunks: 1, // explicit: the default (capacity/16) could fire mid-run
		Shards:            shards,
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	writers := max(1, shards)
	start := time.Now() //eplog:wallclock measured throughput is the experiment's output
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, ChunkSize)
			for r := int64(0); r < rounds; r++ {
				// Writer w owns stripes congruent to w mod writers —
				// with writers == shards, exactly shard w's stripes.
				for s := int64(w); s < stripes; s += int64(writers) {
					for j := 0; j < k; j++ {
						lba := s*int64(k) + int64(j)
						for i := range buf {
							buf[i] = byte(lba + r*7 + int64(i))
						}
						if _, err := e.WriteChunks(0, lba, buf); err != nil {
							errs[w] = fmt.Errorf("writer %d lba %d: %w", w, lba, err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start) //eplog:wallclock measured throughput is the experiment's output
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := e.Commit(); err != nil {
		return nil, err
	}

	// Read phase: every LBA back once, on now-clean stripes, with the same
	// reader-per-shard ownership as the write phase. Snapshot the device
	// read counters around the phase so Verify's reads below stay out of
	// SSDReadBytes.
	readBase := int64(0)
	for _, c := range counters {
		readBase += c.ReadBytes()
	}
	last := rounds - 1
	readStart := time.Now() //eplog:wallclock measured throughput is the experiment's output
	readErrs := make([]error, writers)
	var rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		rg.Add(1)
		go func(w int) {
			defer rg.Done()
			buf := make([]byte, ChunkSize)
			for s := int64(w); s < stripes; s += int64(writers) {
				for j := 0; j < k; j++ {
					lba := s*int64(k) + int64(j)
					if _, err := e.ReadChunks(0, lba, buf); err != nil {
						readErrs[w] = fmt.Errorf("reader %d lba %d: %w", w, lba, err)
						return
					}
					if buf[0] != byte(lba+last*7) || buf[ChunkSize-1] != byte(lba+last*7+ChunkSize-1) {
						readErrs[w] = fmt.Errorf("reader %d lba %d: read back stale or corrupt data", w, lba)
						return
					}
				}
			}
		}(w)
	}
	rg.Wait()
	readElapsed := time.Since(readStart) //eplog:wallclock measured throughput is the experiment's output
	for _, err := range readErrs {
		if err != nil {
			return nil, err
		}
	}
	readBytes := -readBase
	for _, c := range counters {
		readBytes += c.ReadBytes()
	}

	report, err := e.Verify()
	if err != nil {
		return nil, err
	}
	if !report.OK() {
		return nil, fmt.Errorf("experiments: scaling run left inconsistent stripes: %d data, %d log",
			len(report.BadDataStripes), len(report.BadLogStripes))
	}

	res := &ScalingResult{
		Shards:       shards,
		Writers:      writers,
		Requests:     total,
		Elapsed:      elapsed,
		ReadElapsed:  readElapsed,
		SSDReadBytes: readBytes,
		EPLogStats:   e.Stats(),
	}
	for _, c := range counters {
		res.SSDWriteBytes += c.WriteBytes()
	}
	for _, c := range logCnt {
		res.LogWriteBytes += c.WriteBytes()
	}
	for name, h := range sink.Snapshot().Histograms {
		if strings.HasPrefix(name, "core.shard") && strings.HasSuffix(name, ".lock_wait_seconds") {
			res.LockWaitSeconds += h.Sum
		}
	}
	return res, nil
}

// ScalingIdentical reports whether two scaling results carry identical
// traffic counters. Stats.Commits is excluded: the final Commit folds once
// per shard, so the commit count equals the shard count by construction
// while every byte and chunk counter stays fixed.
func ScalingIdentical(a, b *ScalingResult) bool {
	sa, sb := a.EPLogStats, b.EPLogStats
	sa.Commits, sb.Commits = 0, 0
	return a.SSDWriteBytes == b.SSDWriteBytes &&
		a.SSDReadBytes == b.SSDReadBytes &&
		a.LogWriteBytes == b.LogWriteBytes &&
		a.Requests == b.Requests &&
		sa == sb
}

// FormatScaling renders a shard sweep as a table with speedups relative
// to the first row.
func FormatScaling(results []*ScalingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling: %d single-chunk updates, (6+2)-RAID-6, byte counts must not vary with shards\n",
		results[0].Requests)
	fmt.Fprintf(&b, "%-8s %-8s %-14s %-14s %-9s %-12s %-10s %-8s %-12s %s\n",
		"shards", "writers", "ssd_wr_bytes", "log_wr_bytes", "commits", "elapsed", "lock_wait", "speedup", "rd_elapsed", "rd_speedup")
	base := results[0].Elapsed.Seconds()
	readBase := results[0].ReadElapsed.Seconds()
	for _, r := range results {
		speedup, readSpeedup := 0.0, 0.0
		if r.Elapsed > 0 {
			speedup = base / r.Elapsed.Seconds()
		}
		if r.ReadElapsed > 0 {
			readSpeedup = readBase / r.ReadElapsed.Seconds()
		}
		fmt.Fprintf(&b, "%-8d %-8d %-14d %-14d %-9d %-12v %-10v %-8s %-12v %.2fx\n",
			r.Shards, r.Writers, r.SSDWriteBytes, r.LogWriteBytes,
			r.EPLogStats.Commits, r.Elapsed.Round(time.Millisecond),
			time.Duration(r.LockWaitSeconds*float64(time.Second)).Round(time.Microsecond),
			fmt.Sprintf("%.2fx", speedup), r.ReadElapsed.Round(time.Millisecond), readSpeedup)
	}
	return b.String()
}

package experiments

import (
	"fmt"
	"testing"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/trace"
)

// TestScalingByteCountsShardIndependent is the acceptance check behind
// eplogbench -shards: the traffic counters of the shard-scaling workload
// must be byte-identical for every shard count (Stats.Commits excepted —
// the final Commit folds once per shard by construction).
func TestScalingByteCountsShardIndependent(t *testing.T) {
	const scale = 64
	base, err := Scaling(scale, 1)
	if err != nil {
		t.Fatalf("Scaling(shards=1): %v", err)
	}
	if base.SSDWriteBytes == 0 || base.LogWriteBytes == 0 {
		t.Fatalf("baseline run wrote nothing: ssd=%d log=%d", base.SSDWriteBytes, base.LogWriteBytes)
	}
	for _, s := range []int{2, 4, 8} {
		r, err := Scaling(scale, s)
		if err != nil {
			t.Fatalf("Scaling(shards=%d): %v", s, err)
		}
		if !ScalingIdentical(base, r) {
			t.Errorf("shards=%d: counters diverged:\n got ssd=%d log=%d stats=%+v\nwant ssd=%d log=%d stats=%+v",
				s, r.SSDWriteBytes, r.LogWriteBytes, r.EPLogStats,
				base.SSDWriteBytes, base.LogWriteBytes, base.EPLogStats)
		}
		if got, want := r.EPLogStats.Commits, int64(s); got != want {
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

// TestScalingFormat smoke-tests the table renderer.
func TestScalingFormat(t *testing.T) {
	r, err := Scaling(64, 2)
	if err != nil {
		t.Fatalf("Scaling: %v", err)
	}
	out := FormatScaling([]*ScalingResult{r})
	if out == "" {
		t.Fatal("empty table")
	}
	if want := fmt.Sprintf("%d", r.Requests); out == "" || !contains(out, want) {
		t.Fatalf("table %q missing request count %s", out, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

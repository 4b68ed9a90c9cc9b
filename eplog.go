package eplog

import (
	"errors"
	"fmt"
	"sync"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/metadata"
	"github.com/eplog/eplog/internal/obs"
)

// Config parameterizes an EPLog array.
type Config struct {
	// K is the number of data chunks per stripe. With n devices in the
	// main array, the array tolerates n-K device failures and needs n-K
	// log devices.
	K int
	// Stripes is the number of data stripes. Each main-array device must
	// have more than Stripes chunks; the excess is the no-overwrite
	// update area.
	Stripes int64
	// DeviceBufferChunks enables the per-SSD update buffers when > 0.
	DeviceBufferChunks int
	// HotColdGrouping evicts the coldest buffered chunk first instead of
	// FIFO, keeping write-hot chunks buffered longer.
	HotColdGrouping bool
	// StripeBufferStripes enables the new-write stripe buffer when > 0.
	StripeBufferStripes int
	// CommitEvery triggers an automatic parity commit after that many
	// write requests when > 0.
	CommitEvery int
	// TrimOnCommit issues TRIM for chunks released by parity commit.
	TrimOnCommit bool
	// CommitGuardChunks forces a commit when a device's free update
	// space falls to this many chunks; zero selects a default.
	CommitGuardChunks int64
	// CheckpointEvery writes an incremental metadata checkpoint after
	// that many write requests when > 0 and a metadata volume is
	// attached — the paper's "triggered regularly in the background".
	CheckpointEvery int
	// TraceEvents enables the metrics registry when > 0: per-device op
	// counters and latency histograms, write/read/commit-phase latencies,
	// GC activity. Read it with Metrics. Its value is otherwise ignored
	// (it sized the retired event ring; the per-operation record is the
	// span trees, see Spans). Zero, with Spans zero, disables
	// observability at no cost.
	TraceEvents int
	// Spans enables causal span tracing when > 0: each engine shard keeps
	// a flight recorder retaining up to Spans recently completed span
	// trees — a write, read, commit, or rebuild root with its phase
	// children (direct-stripe writes, log appends, commit flush/fold) and
	// per-device I/O leaves — under folds and rebuilds at one shard only,
	// a memory bound (DESIGN.md §11.1). Read them with Spans or
	// serve them live with ServeTelemetry. Span recording reuses a
	// per-shard node pool, so the steady state allocates nothing.
	// Every operation is recorded. Setting Spans > 0 enables the metrics
	// registry even when TraceEvents is 0.
	Spans int
	// Deprecated: ignored; kept for benchmark/ until ROADMAP item 3.
	Workers int
	// Shards partitions the stripes into that many independent stripe
	// groups, each with its own lock, so requests touching different
	// groups execute fully in parallel and commits run per shard. It only
	// partitions state: every shard count runs the same read, flush and
	// fold rules. Values <= 1 select one shard. See DESIGN.md §9.
	Shards int
	// WriteBehind runs the background group-commit scheduler, at any shard
	// count: writes are acknowledged at log-append and CommitEvery /
	// log-pressure parity folds run off the write critical path. Without
	// it they run inline on the writer. Background fold failures surface
	// on the next Write, Flush, or Close.
	WriteBehind bool
	// DirtyWindowStripes bounds the write-behind dirty window: a shard
	// with at least this many pending log stripes blocks further writes
	// to it until the background fold drains them. Zero leaves the window
	// bounded only by log capacity.
	DirtyWindowStripes int
}

// Stats mirrors the array's activity counters; see the field names for
// semantics.
type Stats = core.Stats

// Array is an EPLog array: the public handle over the elastic parity
// logging engine, with optional persistent metadata checkpointing. An
// Array is safe for concurrent use: the engine partitions its state into
// per-stripe-group shards with their own locks (Config.Shards; requests
// touching different shards run in parallel, each wholly on its caller's
// goroutine), and the checkpoint bookkeeping below is guarded by chkptMu. Lock order is chkptMu before
// the engine's shard locks; nothing ever takes them in the opposite
// order.
type Array struct {
	e     *core.EPLog
	cfg   Config
	csize int
	sink  *obs.Sink // nil unless cfg.TraceEvents > 0 or cfg.Spans > 0

	chkptMu    sync.Mutex
	vol        *metadata.Volume
	sinceChkpt int
}

// New creates a fresh EPLog array over the main-array devices and one log
// device per parity dimension. All devices must share a chunk size.
func New(devs, logDevs []BlockDevice, cfg Config) (*Array, error) {
	sink := newSink(cfg)
	e, err := core.New(instrument(sink, "main", devs), instrument(sink, "log", logDevs), coreConfig(cfg, sink))
	if err != nil {
		return nil, err
	}
	return &Array{e: e, cfg: cfg, csize: e.ChunkSize(), sink: sink}, nil
}

func newSink(cfg Config) *obs.Sink {
	if cfg.TraceEvents <= 0 && cfg.Spans <= 0 {
		return nil
	}
	sink := obs.NewSink()
	if cfg.Spans > 0 {
		sink.EnableSpans(obs.SpanConfig{Trees: cfg.Spans})
	}
	return sink
}

func coreConfig(cfg Config, sink *obs.Sink) core.Config {
	return core.Config{
		Obs:                 sink,
		K:                   cfg.K,
		Stripes:             cfg.Stripes,
		DeviceBufferChunks:  cfg.DeviceBufferChunks,
		HotColdGrouping:     cfg.HotColdGrouping,
		StripeBufferStripes: cfg.StripeBufferStripes,
		CommitEvery:         cfg.CommitEvery,
		TrimOnCommit:        cfg.TrimOnCommit,
		CommitGuardChunks:   cfg.CommitGuardChunks,
		Shards:              cfg.Shards,
		WriteBehind:         cfg.WriteBehind,
		DirtyWindowStripes:  cfg.DirtyWindowStripes,
	}
}

// Chunks returns the logical capacity in chunks (Stripes x K).
func (a *Array) Chunks() int64 { return a.e.Chunks() }

// ChunkSize returns the chunk size in bytes.
func (a *Array) ChunkSize() int { return a.csize }

// Stats returns a snapshot of the activity counters.
func (a *Array) Stats() Stats { return a.e.Stats() }

// Write stores len(p)/ChunkSize chunks at logical chunk lba. p must be a
// positive multiple of the chunk size.
func (a *Array) Write(lba int64, p []byte) error {
	_, err := a.WriteAt(0, lba, p)
	return err
}

// WriteAt is Write with virtual-time accounting: the request starts no
// earlier than start and the returned time is its completion.
func (a *Array) WriteAt(start float64, lba int64, p []byte) (float64, error) {
	end, err := a.e.WriteChunks(start, lba, p)
	if err != nil {
		return end, err
	}
	if a.cfg.CheckpointEvery > 0 {
		a.chkptMu.Lock()
		defer a.chkptMu.Unlock()
		if a.vol == nil {
			return end, nil
		}
		a.sinceChkpt++
		if a.sinceChkpt >= a.cfg.CheckpointEvery {
			a.sinceChkpt = 0
			if err := a.checkpoint(false); err != nil {
				return end, fmt.Errorf("eplog: auto checkpoint: %w", err)
			}
		}
	}
	return end, nil
}

// Read fills p with len(p)/ChunkSize chunks starting at lba, reconstructing
// degraded chunks when devices have failed.
func (a *Array) Read(lba int64, p []byte) error {
	_, err := a.e.ReadChunks(0, lba, p)
	return err
}

// ReadAt is Read with virtual-time accounting.
func (a *Array) ReadAt(start float64, lba int64, p []byte) (float64, error) {
	return a.e.ReadChunks(start, lba, p)
}

// Flush drains any buffered writes to the devices without committing
// parity.
func (a *Array) Flush() error { return a.e.Flush() }

// Close shuts the engine down cleanly. If the background group-commit
// scheduler is running (Config.WriteBehind), Close
// drains it: every shard with a scheduled-but-unrun parity fold gets a
// final commit, so no acknowledged write is left parity-pending, and the
// first background fold error not yet reported by a Write or Flush is
// returned instead of being dropped. It does not flush the RAM buffers
// (call Flush first for that). Close is idempotent and safe for
// concurrent use; every call returns the same error.
func (a *Array) Close() error { return a.e.Close() }

// Commit performs a parity commit: on-array parity is recomputed from the
// latest data, superseded versions and all log space are released. Log
// devices are not read.
func (a *Array) Commit() error { return a.e.Commit() }

// PendingLogStripes reports the number of log stripes awaiting commit.
func (a *Array) PendingLogStripes() int { return a.e.PendingLogStripes() }

// VerifyReport summarizes a consistency scrub; see Array.Verify.
type VerifyReport = core.VerifyReport

// Verify scrubs the array, checking every committed stripe's parity
// against its data and every pending log stripe's log chunks against its
// member versions. Nothing is modified. Call Flush first to include
// buffered writes.
func (a *Array) Verify() (*VerifyReport, error) { return a.e.Verify() }

// Rebuild reconstructs the contents of failed main-array device devIdx
// onto the replacement and swaps it in. With observability enabled the
// replacement continues the failed device's metric series.
func (a *Array) Rebuild(devIdx int, replacement BlockDevice) error {
	if a.sink != nil {
		return a.e.Rebuild(devIdx, instrumentOne(a.sink, "main", devIdx, replacement))
	}
	return a.e.Rebuild(devIdx, replacement)
}

// RecoverLogDevice replaces failed log device dim: a parity commit makes
// the lost log chunks unnecessary, then the replacement is swapped in.
func (a *Array) RecoverLogDevice(dim int, replacement BlockDevice) error {
	if a.sink != nil {
		return a.e.RecoverLogDevice(dim, instrumentOne(a.sink, "log", dim, replacement))
	}
	return a.e.RecoverLogDevice(dim, replacement)
}

// ErrNoMetadataVolume is returned by checkpoint operations before
// AttachMetadataVolume.
var ErrNoMetadataVolume = errors.New("eplog: no metadata volume attached")

// FormatMetadataVolume initializes dev as a fresh metadata volume and
// attaches it. fullAreaChunks sizes each of the two full-checkpoint
// sub-areas; it must fit a complete metadata snapshot.
func (a *Array) FormatMetadataVolume(dev BlockDevice, fullAreaChunks int64) error {
	vol, err := metadata.Format(dev, fullAreaChunks)
	if err != nil {
		return err
	}
	a.chkptMu.Lock()
	defer a.chkptMu.Unlock()
	a.vol = vol
	return nil
}

// Checkpoint persists metadata to the attached volume: a full checkpoint
// when full is true (written to the alternate sub-area, crash-safely), or
// an incremental checkpoint holding only the metadata dirtied since the
// previous checkpoint.
func (a *Array) Checkpoint(full bool) error {
	a.chkptMu.Lock()
	defer a.chkptMu.Unlock()
	return a.checkpoint(full)
}

// checkpoint implements Checkpoint with chkptMu held.
func (a *Array) checkpoint(full bool) error {
	if a.vol == nil {
		return ErrNoMetadataVolume
	}
	if full {
		return a.vol.WriteFull(a.e.Snapshot())
	}
	if !a.vol.HasCheckpoint() {
		return fmt.Errorf("eplog: incremental checkpoint requires a prior full checkpoint")
	}
	return a.vol.WriteIncremental(a.e.DirtyDelta())
}

// Open rebuilds an EPLog array from the newest checkpoint on a metadata
// volume, over the same main-array and log devices the checkpoint
// describes. Buffered state is not part of checkpoints, so cfg's buffers
// start empty.
func Open(devs, logDevs []BlockDevice, cfg Config, metaDev BlockDevice) (*Array, error) {
	vol, err := metadata.Open(metaDev)
	if err != nil {
		return nil, err
	}
	snap, err := vol.Load()
	if err != nil {
		return nil, err
	}
	sink := newSink(cfg)
	e, err := core.Restore(instrument(sink, "main", devs), instrument(sink, "log", logDevs), coreConfig(cfg, sink), snap)
	if err != nil {
		return nil, err
	}
	return &Array{e: e, vol: vol, cfg: cfg, csize: e.ChunkSize(), sink: sink}, nil
}

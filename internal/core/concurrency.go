package core

import (
	"errors"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/workpool"
)

// Concurrency model
// -----------------
//
// Metadata mutation is guarded per stripe-group shard (see shard.go): a
// shard's RWMutex covers its location-map entries, allocator partitions,
// buffers, log-stripe bookkeeping, and stats, so operations on different
// shards run fully in parallel while the write/commit ordering invariants
// of the single-threaded engine carry over unchanged within each shard.
// With Shards=1 this degenerates to the old single coarse mutex.
//
// A write's own phases are too short to farm out — a k'+m encode is well
// under a microsecond and a simulated device write about one — so the
// write path runs them inline on the caller's goroutine at any Workers
// (Encode, then writeDevs). What runs on the bounded workpool of
// cfg.Workers goroutines is the per-stripe compound work of the
// parity-commit fold and of rebuild (fanOut). Pool tasks never touch engine
// metadata (inputs are captured before the fan-out; outputs land in
// per-task slots or atomics folded back under the lock), and they never
// take a shard lock — so the lock order is strictly shard locks (ascending
// index) -> device.Locked/erasure.Cache, with no cycles.
//
// Virtual-time determinism: with workers <= 1 fanOut runs serially, in
// order, on the caller's span — bit-for-bit the behavior (and virtual-time
// accounting) of the single-threaded engine. With workers > 1 each pool
// task gets a sub-span starting at the parent's start and the parent is
// extended to the slowest sub-span's end; because a span issues every
// operation at its start time and keeps the max completion, the merged end
// time is identical to the serial result whenever the tasks touch disjoint
// devices (which the call sites guarantee). Byte counts and stats totals
// are order-independent either way.

// devWrite is one chunk write of a phase's per-device fan-out.
type devWrite struct {
	dev   device.Dev
	chunk int64
	data  []byte
}

// writeDevs issues one phase's chunk writes, each to a distinct device,
// inline in list order on the caller's span. Like tolerantWrite it touches
// no engine state, so the phase is data, not code, at its call sites.
func writeDevs(span *device.Span, writes []devWrite) error {
	for _, w := range writes {
		if err := tolerantWrite(span, w.dev, w.chunk, w.data); err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs one operation's compound phase tasks (a stripe fold, a
// stripe rebuild) on the engine's worker pool, each on a sub-span of its
// own starting at span's start; span is extended to the slowest. Tasks
// must not touch engine metadata or take shard locks; they may only use
// their span, the devices handed to them, and per-task result slots.
func (e *EPLog) fanOut(span *device.Span, tasks []func(*device.Span) error) error {
	if e.workers <= 1 || len(tasks) <= 1 {
		for _, t := range tasks {
			if err := t(span); err != nil {
				return err
			}
		}
		return nil
	}
	subs := make([]device.Span, len(tasks))
	wrapped := make([]func() error, len(tasks))
	for t := range wrapped {
		subs[t].Reset(span.Start())
		wrapped[t] = func() error { return tasks[t](&subs[t]) }
	}
	err := workpool.Run(e.workers, wrapped)
	// Merge even on error so the span reflects the I/O actually issued.
	for t := range subs {
		span.Extend(subs[t].End())
	}
	return err
}

// tolerantWrite issues one chunk write on the span, tolerating a failed
// device: ErrFailed is cleared because the chunk remains recoverable
// through its protecting stripe. It touches no engine state, so it is
// safe inside pool tasks.
func tolerantWrite(span *device.Span, dev device.Dev, chunk int64, data []byte) error {
	if err := span.Write(dev, chunk, data); err != nil {
		if !errors.Is(err, device.ErrFailed) {
			return err
		}
		span.ClearErr()
	}
	return nil
}

// lockDevs wraps every device in a per-device mutex (device.Locked),
// returning a fresh slice.
func lockDevs(devs []device.Dev) []device.Dev {
	out := make([]device.Dev, len(devs))
	for i, d := range devs {
		out[i] = device.NewLocked(d)
	}
	return out
}

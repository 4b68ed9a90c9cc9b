package core

import (
	"strconv"
	"time"

	"github.com/eplog/eplog/internal/obs"
)

// Per-shard flight recorder
// -------------------------
//
// Each shard carries its own observability surface (DESIGN.md §11):
//
//   - lock-wait and lock-hold histograms on shard.mu's exclusive
//     acquisitions — the direct evidence for (or against) the shard
//     scaling claim;
//   - a log-occupancy gauge (occupied slots of the shard's private log
//     region) and a full-device-buffer gauge;
//   - commit-trigger counters keyed by cause (manual, every, guard,
//     space, pressure), so a trace of "why did parity fold" needs no
//     log spelunking;
//   - a causal-span recorder holding a bounded ring of recently
//     completed span trees (write/read/commit/rebuild roots with phase
//     and per-device I/O children).
//
// Metric names are core.shard<i>.<family>. Everything here is nil-safe:
// with observability off the handles are nil no-ops and the wall-clock
// reads below short-circuit.
//
// The lock histograms are the one deliberate use of the wall clock inside
// the core engine: lock contention is real scheduler time, not simulated
// device latency, so it cannot be expressed in virtual seconds. The
// wall-clock reads are confined to the three //eplog:wallclock helpers
// below; virtual-time accounting never consumes their values.

// commitCause classifies what triggered a parity commit. The zero value
// is causeManual so an unlatched commit attributes to the explicit
// Commit/CommitAt entry points.
type commitCause uint8

const (
	// causeManual: explicit Commit/CommitAt (or log-device recovery).
	causeManual commitCause = iota
	// causeEvery: the CommitEvery request-count trigger (scenario iv).
	causeEvery
	// causeGuard: a device's free update space fell to the guard band
	// (scenario ii).
	causeGuard
	// causeSpace: allocation or the log region ran out of space outright.
	causeSpace
	// causePressure: a background fold of a pressured shard — a write past
	// logPressureMark, or FoldPressured at its caller's threshold.
	causePressure
	// causeWindow: a writer blocked on the write-behind dirty window
	// (DirtyWindowStripes) enqueued the fold that will unblock it.
	causeWindow

	causeN
)

// causeNames are static so hot paths can label spans without building
// strings.
var causeNames = [causeN]string{"manual", "every", "guard", "space", "pressure", "window"}

// initFlight wires the shard's flight-recorder handles into the sink.
// Called once from New; every handle is a nil-safe no-op when sink is nil
// (and the span recorder additionally when spans are not enabled).
func (sh *shard) initFlight(sink *obs.Sink) {
	prefix := "core.shard" + strconv.Itoa(sh.idx) + "."
	sh.mLockWait = sink.Histogram(prefix + "lock_wait_seconds")
	sh.mLockHold = sink.Histogram(prefix + "lock_hold_seconds")
	sh.gLogOcc = sink.Gauge(prefix + "log_occupancy")
	sh.gFullBufs = sink.Gauge(prefix + "full_dev_bufs")
	for c := commitCause(0); c < causeN; c++ {
		sh.cTrig[c] = sink.Counter(prefix + "commit_trigger." + causeNames[c])
	}
	sh.rec = sink.SpanRecorder(sh.idx)
}

// lockClock samples the wall clock ahead of an exclusive sh.mu.Lock, for
// the lock-wait histogram. Zero (and no later observation) when the
// flight recorder is off.
//
//eplog:wallclock lock wait/hold measure real scheduler contention, which has no virtual-time representation
func (sh *shard) lockClock() time.Time {
	if sh.mLockWait == nil {
		return time.Time{}
	}
	return time.Now()
}

// lockAcquired marks the start of an exclusive critical section: it takes
// the shard's seqlock epoch odd (fencing off the lock-free read fast
// path), then records the acquisition wait that began at t0 and stamps the
// hold start. Call immediately after sh.mu.Lock(). The epoch bump runs
// unconditionally — observability may be off, but readers always need the
// fence.
//
//eplog:wallclock lock wait/hold measure real scheduler contention, which has no virtual-time representation
//eplog:seqlock-write
func (sh *shard) lockAcquired(t0 time.Time) {
	sh.epoch.Add(1) // odd: writer in critical section
	sh.e.lockAcqs.Add(1)
	if sh.mLockWait == nil || t0.IsZero() {
		return
	}
	now := time.Now()
	sh.mLockWait.Observe(now.Sub(t0).Seconds())
	sh.lockedAt = now
}

// lockReleasing marks the end of an exclusive critical section: it takes
// the epoch even again (any optimistic read overlapping the hold sees the
// change and retries), then records the hold that began at lockAcquired.
// Call immediately before sh.mu.Unlock(), with the lock still held.
//
//eplog:wallclock lock wait/hold measure real scheduler contention, which has no virtual-time representation
//eplog:seqlock-write
func (sh *shard) lockReleasing() {
	sh.epoch.Add(1) // even: state consistent again
	if sh.mLockHold == nil || sh.lockedAt.IsZero() {
		return
	}
	sh.mLockHold.Observe(time.Since(sh.lockedAt).Seconds())
	sh.lockedAt = time.Time{}
}

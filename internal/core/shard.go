package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/eplog/eplog/internal/obs"
)

// Sharding model (DESIGN.md §9)
// ----------------------------
//
// The engine's mutable state is partitioned by stripe group: stripe s —
// its dirty flags, its home chunks, every update-area chunk its LBAs can
// ever be relocated to, and every log stripe protecting its LBAs — belongs
// to shard s mod nShards. Each shard has its own RWMutex, so writes,
// reads, commits and degraded decodes touching different shards execute
// fully in parallel, and the old engine-wide mutex disappears: whole-array
// operations (checkpoint, verify, rebuild, geometry swaps) stop the world
// by acquiring every shard lock in ascending index order.
//
// Space ownership makes the partition self-contained: each shard's
// allocators cover a contiguous slice of every device's update headroom
// (plus the home chunks of its own stripes, which its commits release and
// re-allocate), and each shard appends log stripes into its own contiguous
// region of the log devices with a private cursor. A shard's metadata
// therefore only ever references shard-owned chunks, so allocation and
// release never cross a shard boundary and never need another shard's
// lock.
//
// Lock order: shard locks in ascending index order, then per-device
// Locked mutexes / the erasure cache. Every device is Locked-wrapped at any
// shard count; the lock-free read pass and the prefold take device mutexes
// with no shard lock held. Nothing takes a shard lock while holding a
// device lock, so the order is acyclic.

// shard owns one stripe group's slice of the engine's mutable state.
// Unexported methods with a shard receiver assume mu is held (write-locked
// unless stated otherwise).
type shard struct {
	e   *EPLog
	idx int
	// mu guards everything below plus the owned entries of the engine's
	// latest/latestProt/commLoc/virgin slices. Readers (readGroup's locked
	// pass, Stats aggregation) take it shared; every mutation takes it
	// exclusively.
	//
	//eplog:shardlock
	mu sync.RWMutex

	// epoch is the shard's seqlock sequence for the lock-free read fast
	// path: odd while a writer holds mu exclusively (or sleeps in
	// waitDirtyWindow's Cond hand-off), even while the shard state is
	// consistent. Optimistic readers sample it (even) before reading
	// locations and device contents without any lock, then re-validate it
	// unchanged afterwards; any mismatch discards the read and falls back
	// to the shared-lock path. Writers bump it in lockAcquired /
	// lockReleasing (and lockAll/unlockAll), so every exclusive critical
	// section is bracketed.
	//eplog:seqlock
	epoch atomic.Uint64
	// commitWake signals log-stripe drains (parity folds) to writers
	// blocked on the write-behind dirty window; it shares mu so the
	// window check and the wait are atomic.
	commitWake *sync.Cond

	dirty     map[int64]struct{}
	metaDirty map[int64]struct{} // stripes whose metadata changed since the last checkpoint

	alloc      []*allocator // per-device, covering this shard's partition
	logStripes map[int64]*logStripe
	nextLogID  int64 // always ≡ idx (mod nShards)
	// The shard's contiguous log-device region [logStart, logLimit) and
	// its append cursor. A shard commit clears all of the shard's log
	// stripes, so the cursor resets to logStart.
	logStart  int64
	logLimit  int64
	logCursor int64
	// pendingStripes and logUsed publish len(logStripes) and
	// logCursor-logStart (publishFill) to readers that must not queue
	// behind a fold's exclusive hold: STAT, the server's per-batch check.
	pendingStripes atomic.Int64
	logUsed        atomic.Int64

	devBufs []*deviceBuffer
	// fullBufs counts device buffers currently at (or beyond) capacity,
	// maintained at put/pop so the drain loop does not rescan every
	// buffer on every buffered write.
	fullBufs  int
	stripeBuf *stripeBuffer

	reqSinceCommit int
	inCommit       bool
	// queued marks the shard as enqueued for a background group commit.
	queued atomic.Bool
	// asyncErr holds a background commit failure, surfaced to the next
	// write touching the shard.
	asyncErr error
	stats    Stats

	// Reusable scratch (see scratch.go). scratchFree is the frame stack
	// for the reentrant grouping/log-flush paths; lsFree recycles
	// logStripe records across commits; the remaining fields are
	// dedicated to non-reentrant paths.
	scratchFree []*opScratch
	lsFree      []*logStripe
	wrSeg       []pendingChunk  // writeStripes per-stripe segment
	wrUpdates   []pendingChunk  // writeStep shard-wide update set
	wrOps       []inflightWrite // writeGroup per-op envelopes
	dsShards    [][]byte        // directStripeWrite shard headers
	dsWrites    []devWrite      // directStripeWrite per-device write list
	foldShards  [][]byte        // foldStripes shard headers
	dirtyOrder  []int64         // commitAt dirty-stripe order
	pre         *prefold        // set by sweep for the committer's own commitAt only
	ready       *foldReady      // whole stripes' write-time parity; nil until the first one

	// Flight recorder (flight.go). rec is the shard's causal-span
	// recorder; curOp is the span that phase children created under mu
	// attach to (the op root, or a commit's flush phase), only ever read
	// or written with mu held exclusively; cause latches the trigger the
	// next commitAt should attribute itself to (last latch wins);
	// lockedAt is the wall-clock stamp of the current exclusive hold.
	rec       *obs.SpanRecorder
	curOp     *obs.Span
	cause     commitCause
	lockedAt  time.Time
	mLockWait *obs.Histogram
	mLockHold *obs.Histogram
	gLogOcc   *obs.Gauge
	gFullBufs *obs.Gauge
	cTrig     [causeN]*obs.Counter
}

// shardOf returns the shard owning a stripe.
func (e *EPLog) shardOf(stripe int64) *shard {
	return e.shards[stripe%int64(e.nShards)]
}

// shardOfLBA returns the shard owning an LBA's stripe.
func (e *EPLog) shardOfLBA(lba int64) *shard {
	s, _ := e.geo.Stripe(lba)
	return e.shardOf(s)
}

// takeAsyncErr returns and clears a pending background-commit error.
// sh.mu must be held exclusively: asyncErr is written by the background
// committer under the lock, so reading it unlocked would race.
func (sh *shard) takeAsyncErr() error {
	err := sh.asyncErr
	sh.asyncErr = nil
	return err
}

// logPressureMark is the log-region fill at which a write enqueues its
// shard's fold, before a full region forces a commit inside flushGroup.
const logPressureMark = 0.75

// publishFill republishes the log occupancy where it changes: log append,
// commit reset, restore. sh.mu is held exclusively.
//
//eplog:hotpath
func (sh *shard) publishFill() {
	used := sh.logCursor - sh.logStart
	sh.pendingStripes.Store(int64(len(sh.logStripes)))
	sh.logUsed.Store(used)
	sh.gLogOcc.Set(float64(used))
}

// logFill is the occupied share of the shard's log region. Lock-free.
//
//eplog:hotpath
func (sh *shard) logFill() float64 {
	region := sh.logLimit - sh.logStart
	if region <= 0 {
		return 0
	}
	return float64(sh.logUsed.Load()) / float64(region)
}

// fill is the shard's write pressure: its log-region occupancy, or its
// dirty-window fill when a window is configured, whichever is higher.
func (sh *shard) fill() float64 {
	f := sh.logFill()
	if w := sh.e.cfg.DirtyWindowStripes; w > 0 {
		f = max(f, float64(sh.pendingStripes.Load())/float64(w))
	}
	return f
}

// devBufsEmpty reports whether no device buffer holds a chunk.
func (sh *shard) devBufsEmpty() bool {
	for _, b := range sh.devBufs {
		if !b.empty() {
			return false
		}
	}
	return true
}

// idle reports whether a commit would find nothing to drain or fold.
func (sh *shard) idle() bool {
	return len(sh.logStripes) == 0 && len(sh.dirty) == 0 && sh.devBufsEmpty() &&
		(sh.stripeBuf == nil || sh.stripeBuf.empty())
}

// waitDirtyWindow blocks the calling writer while the shard's write-behind
// dirty window is full — at least DirtyWindowStripes log stripes pending —
// until a background fold drains the shard. Called with sh.mu held
// exclusively, before the write mutates anything; Wait releases the lock
// so the fold can run. The loop also exits when the scheduler has stopped
// or a background commit failed (the caller surfaces asyncErr), so a dying
// engine never strands a writer.
//
//eplog:seqlock-write
func (sh *shard) waitDirtyWindow() {
	w := sh.e.cfg.DirtyWindowStripes
	if w <= 0 || sh.e.gc == nil {
		return
	}
	var t0 time.Time
	for len(sh.logStripes) >= w && sh.asyncErr == nil && !sh.e.gc.stopped() {
		if t0.IsZero() {
			t0 = sh.lockClock()
		}
		sh.cause = causeWindow
		sh.e.gc.enqueue(sh)
		// Cond.Wait releases mu outside the lockAcquired/lockReleasing
		// brackets, so restore epoch parity by hand: even while asleep
		// (state is consistent, readers may proceed), odd again once the
		// lock is reacquired.
		sh.epoch.Add(1)
		sh.commitWake.Wait()
		sh.epoch.Add(1)
	}
	if !t0.IsZero() {
		sh.e.mWindowWait.Observe(sh.lockClock().Sub(t0).Seconds())
	}
}

// lockAll write-locks every shard in ascending index order — the
// stop-the-world acquisition used by whole-array operations (checkpoint,
// verify, rebuild, recovery). unlockAll releases them.
//
//eplog:lockall
//eplog:seqlock-write
func (e *EPLog) lockAll() {
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.epoch.Add(1) // odd: stop-the-world holder may mutate anything
	}
}

//eplog:lockall
//eplog:seqlock-write
func (e *EPLog) unlockAll() {
	for _, sh := range e.shards {
		sh.epoch.Add(1) // even: consistent again
		sh.mu.Unlock()
	}
}

// groupCommitter is the background group-commit scheduler of the sharded
// engine: foreground writes enqueue shards whose commit triggers fire
// (CommitEvery, log-region pressure, a full dirty window) instead of
// committing inline, FoldPressured enqueues the shards at or above a
// caller's fill threshold, and the scheduler folds each queued shard under
// that shard's lock only — writes to other shards proceed undisturbed.
type groupCommitter struct {
	e    *EPLog
	wake chan struct{}
	stop chan struct{}
	done chan struct{}
	pre  *prefold // filled off the lock ahead of each fold
}

func newGroupCommitter(e *EPLog) *groupCommitter {
	gc := &groupCommitter{
		e:    e,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		pre:  newPrefold(e),
	}
	go gc.run()
	return gc
}

// enqueue marks a shard for a background commit; duplicate enqueues fold
// into one. Safe to call with the shard's lock held: the wake send never
// blocks.
func (gc *groupCommitter) enqueue(sh *shard) {
	if sh.queued.CompareAndSwap(false, true) {
		select {
		case gc.wake <- struct{}{}:
		default:
		}
	}
}

func (gc *groupCommitter) run() {
	defer close(gc.done)
	for {
		select {
		case <-gc.stop:
			// A writer that enqueued just before stop may have had its
			// wake signal consumed by this very select: sweep once more
			// after observing stop, so no queued shard is silently
			// dropped between the last wake and shutdown.
			gc.sweep()
			return
		case <-gc.wake:
		}
		gc.sweep()
	}
}

// sweep folds every queued shard once: prefold, then publish under its lock.
func (gc *groupCommitter) sweep() {
	for _, sh := range gc.e.shards {
		if !sh.queued.CompareAndSwap(true, false) {
			continue
		}
		gc.pre.run(sh)
		t0 := sh.lockClock()
		sh.mu.Lock()
		sh.lockAcquired(t0)
		if sh.cause == causeManual { // unlatched: enqueued by FoldPressured
			sh.cause = causePressure
		}
		sh.pre = gc.pre
		if _, err := sh.commitAt(0); err != nil {
			// Surfaced to the next write touching this shard (or to
			// Flush/Close if no write comes).
			sh.asyncErr = err
		}
		sh.pre = nil
		sh.lockReleasing()
		sh.mu.Unlock()
	}
}

// stopped reports whether shutdown has begun. Writers blocked on the
// dirty window use it to stop waiting for folds that will never run.
func (gc *groupCommitter) stopped() bool {
	select {
	case <-gc.stop:
		return true
	default:
		return false
	}
}

func (gc *groupCommitter) shutdown() {
	close(gc.stop)
	<-gc.done
	// Wake any writer still blocked on the dirty window; stopped() now
	// reports true, so they stop waiting for folds.
	for _, sh := range gc.e.shards {
		sh.commitWake.Broadcast()
	}
}

// Package core implements EPLog, the paper's elastic parity logging layer
// for SSD RAID arrays. Data chunks live on a main array of SSDs; parity
// traffic is redirected to separate log devices as "log chunks" computed
// from newly written data only — no pre-reads — over elastic log stripes
// that may span part of a data stripe or several. Updates are written
// out-of-place at the system level (the no-overwrite policy), keeping old
// versions addressable so both committed data stripes and pending log
// stripes stay decodable. A background parity commit folds the latest data
// into the on-array parity without ever reading the log devices, then
// releases old versions and log space.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/erasure"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/store"
)

// Errors returned by EPLog.
var (
	ErrTooManyFailures = errors.New("core: too many failed devices")
	ErrLogDevices      = errors.New("core: need one log device per parity chunk")
)

// Loc addresses a chunk on the main array.
type Loc struct {
	// Dev is the SSD index within the main array.
	Dev int
	// Chunk is the device-local chunk index.
	Chunk int64
}

// committed marks an LBA whose latest version is covered by its data
// stripe's parity rather than by a log stripe.
const committed = int64(-1)

// locChunkBits is the packed-location split: a Loc packs into one uint64
// as dev<<locChunkBits | chunk, so the lock-free read path can load a
// location in a single atomic word with no possibility of a torn Dev/Chunk
// pair. 48 bits of chunk index addresses 2^48 chunks per device; New
// rejects geometries beyond either field's range.
const locChunkBits = 48

// loadLatest atomically reads the latest-version location of an LBA. Safe
// without any lock: the word is a single atomic load, and callers that
// need the location to stay meaningful across a subsequent device read
// validate the owning shard's seqlock epoch around the pair (see
// readGroupFast).
//
//eplog:hotpath
func (e *EPLog) loadLatest(lba int64) Loc {
	w := e.latest[lba].Load()
	return Loc{Dev: int(w >> locChunkBits), Chunk: int64(w & (1<<locChunkBits - 1))}
}

// storeLatest atomically publishes a new latest-version location. The
// owning shard's lock must be held exclusively.
//
//eplog:hotpath
//eplog:seqlock-write
func (e *EPLog) storeLatest(lba int64, l Loc) {
	e.latest[lba].Store(uint64(l.Dev)<<locChunkBits | uint64(l.Chunk))
}

// devs returns the current main-array device table; safe without any lock.
// One load serves a whole group or op, so Rebuild cannot switch tables under it.
//
//eplog:hotpath
func (e *EPLog) devs() []device.Dev { return *e.devTab.Load() }

// Config parameterizes an EPLog array.
type Config struct {
	// K is the number of data chunks per stripe; the array tolerates
	// len(devices)-K failures.
	K int
	// Stripes is the number of data stripes.
	Stripes int64
	// DeviceBufferChunks enables the per-SSD update buffers when > 0
	// (Section III-D); each buffer holds that many chunks.
	DeviceBufferChunks int
	// HotColdGrouping changes the device buffers' eviction from FIFO to
	// coldest-first (fewest absorbed re-writes), keeping hot chunks
	// buffered longer — the hot/cold grouping extension the paper
	// suggests adopting from flash-aware designs.
	HotColdGrouping bool
	// StripeBufferStripes enables the new-write stripe buffer when > 0,
	// holding that many stripes' worth of chunks.
	StripeBufferStripes int
	// CommitEvery triggers an automatic parity commit after that many
	// write requests when > 0 (Section III-C, scenario iv), counted per
	// shard. The commit runs inline, or with WriteBehind on the background
	// group-commit scheduler (and is skipped when the shard has nothing to
	// drain or fold).
	CommitEvery int
	// TrimOnCommit issues TRIM for chunks released by parity commit,
	// the paper's optional extension for further GC reduction.
	TrimOnCommit bool
	// CommitGuardChunks forces a parity commit whenever a device's free
	// update space falls to this many chunks (the paper's scenario (ii),
	// with a guard band so the underlying flash never reaches full
	// logical utilization). Zero selects a default of one sixteenth of the
	// device. In sharded engines the guard is split evenly across the
	// shards' allocator partitions, preserving the global utilization cap.
	CommitGuardChunks int64
	// Obs, when non-nil, receives metrics (latency histograms, counters)
	// and structured trace events from the write, read, commit, checkpoint
	// and recovery paths. Nil disables observability at no cost.
	Obs *obs.Sink
	// Deprecated: ignored; kept for benchmark/ until ROADMAP item 3.
	Workers int
	// Shards partitions the stripes into that many independent stripe
	// groups (stripe s belongs to shard s mod Shards), each owning its
	// slice of the mutable state behind its own lock, so requests
	// touching different shards execute fully in parallel. It selects no
	// rules: WriteBehind and the buffer settings do. Values <= 1 select one
	// shard; the count is clamped so every shard keeps at least one update
	// chunk per device, one log slot, and one stripe. See DESIGN.md §9.
	Shards int
	// WriteBehind runs the background group-commit scheduler, at any shard
	// count: writes are acknowledged at log-append and CommitEvery and
	// log-pressure folds run off the write critical path, read and encoded
	// ahead of the shard lock (the prefold); without it they run inline.
	// Background commit failures surface on the next write, Flush, or Close
	// touching the shard. Enabling it trades bit-identical virtual-time
	// reproduction for write latency decoupled from parity maintenance —
	// the paper's central claim, completed.
	WriteBehind bool
	// DirtyWindowStripes bounds the write-behind dirty window: when a
	// shard has at least this many pending (unfolded) log stripes, its
	// foreground writes block until the background fold drains the shard —
	// backpressure instead of an unbounded recovery window. Zero disables
	// the explicit window; the 3/4-log-occupancy pressure trigger still
	// bounds pending state by log capacity. Only meaningful with
	// WriteBehind.
	DirtyWindowStripes int
}

// Stats counts EPLog activity.
type Stats struct {
	// DataWriteChunks counts data chunks written to the main array.
	DataWriteChunks int64
	// ParityWriteChunks counts parity chunks written to the main array
	// (full-stripe writes and parity commits).
	ParityWriteChunks int64
	// LogChunkWrites counts log chunks appended to the log devices.
	LogChunkWrites int64
	// LogBytes is the total log-device write traffic.
	LogBytes int64
	// LogStripes counts log stripes formed.
	LogStripes int64
	// LogStripeMembers counts data chunks across all log stripes, so
	// LogStripeMembers/LogStripes is the mean elastic width k'.
	LogStripeMembers int64
	// AbsorbedChunks counts chunk writes absorbed by the device buffers.
	AbsorbedChunks int64
	// FullStripeWrites counts stripes written directly with parity.
	FullStripeWrites int64
	// Commits counts parity-commit operations. Sharded engines commit per
	// shard, so one Commit() call counts once per shard that ran.
	Commits int64
	// CommitReadChunks and CommitWriteChunks count parity-commit I/O on
	// the main array. CommitReadChunks is every chunk read the SSDs served
	// for a fold, used or wasted: the k of each stripe folded under the
	// lock, and all the group committer's prefold issued — k per stripe it
	// re-encoded, m + 2c per stripe it folded by the delta rule (c chunks
	// changed), whether or not the entry was still valid at the publish. A
	// stripe folded from the parity its whole-stripe log stripe was encoded
	// with (foldReady) adds no reads.
	CommitReadChunks  int64
	CommitWriteChunks int64
	// Requests counts user write requests.
	Requests int64
}

// add accumulates another shard's counters into s.
func (s *Stats) add(o Stats) {
	s.DataWriteChunks += o.DataWriteChunks
	s.ParityWriteChunks += o.ParityWriteChunks
	s.LogChunkWrites += o.LogChunkWrites
	s.LogBytes += o.LogBytes
	s.LogStripes += o.LogStripes
	s.LogStripeMembers += o.LogStripeMembers
	s.AbsorbedChunks += o.AbsorbedChunks
	s.FullStripeWrites += o.FullStripeWrites
	s.Commits += o.Commits
	s.CommitReadChunks += o.CommitReadChunks
	s.CommitWriteChunks += o.CommitWriteChunks
	s.Requests += o.Requests
}

// logStripe records an elastic log stripe: up to one member chunk per SSD
// plus one log chunk per log device, all at the same log-device offset.
type logStripe struct {
	id      int64
	members []member
	logPos  int64 // chunk index on every log device
}

// member is one data chunk version protected by a log stripe.
type member struct {
	lba int64
	loc Loc
}

// EPLog is an elastic-parity-logging array. It implements store.Store.
// All exported methods are safe for concurrent use. The mutable state is
// partitioned into stripe-group shards, each guarded by its own RWMutex
// (see shard.go); requests touching different shards run fully in
// parallel, whole-array operations stop the world by taking every shard
// lock in index order, and every phase of an operation runs on its
// caller's goroutine.
type EPLog struct {
	// shards partitions the mutable state by stripe group: stripe s
	// belongs to shards[s % nShards]. The count selects no behaviour but
	// the I/O-leaf rule (commitAt, Rebuild).
	shards  []*shard
	nShards int
	// fastReads enables the lock-free optimistic read pass: set when there
	// are no RAM buffers (device or stripe), whose maps cannot be consulted
	// without the shard lock. See readGroupFast.
	fastReads bool

	geo   store.Geometry
	codes *erasure.Cache
	// devTab is the main array (SSDs), published copy-on-write: the
	// lock-free read pass and the prefold look devices up with no shard lock
	// while Rebuild swaps one in, and an interface value is two words — a
	// torn read would be a crash, not a stale result an epoch check could
	// discard. Readers load it once per group or op through devs().
	devTab  atomic.Pointer[[]device.Dev]
	logDevs []device.Dev // log devices (HDDs), one per parity dimension
	csize   int
	cfg     Config
	// shardGuard is the per-shard commit guard band: CommitGuardChunks
	// split across the shards' allocator partitions (identical to
	// CommitGuardChunks when nShards == 1).
	shardGuard int64

	// Per-LBA and per-stripe views. The slices are shared, but each entry
	// is only ever written under its owning shard's lock (the owner of
	// entry lba is shardOfLBA(lba); of virgin[s], shardOf(s)), so distinct
	// shards touch disjoint memory. latest is the exception on the read
	// side: each entry is one packed atomic word (loadLatest/storeLatest)
	// so the lock-free read fast path can look locations up without any
	// shard lock, validated by the owning shard's seqlock epoch.
	//eplog:seqlock
	latest     []atomic.Uint64 // per-LBA latest version location, packed
	latestProt []int64         // per-LBA protector: committed or a log stripe id
	commLoc    []Loc           // per-LBA committed version location
	virgin     []bool          // per-stripe: never written (direct path eligible)

	// gc is the background group-commit scheduler, started iff
	// cfg.WriteBehind; Close drains and stops it.
	gc        *groupCommitter
	closeOnce sync.Once
	closeErr  error

	// lockAcqs counts exclusive shard-lock acquisitions taken through the
	// lockAcquired bracket — the denominator of the batching payoff
	// (ShardLockAcquisitions).
	lockAcqs atomic.Int64
	// readLockAcqs counts shared shard-lock acquisitions by readGroup's
	// locked pass — the read-side counterpart (ReadLockAcquisitions).
	readLockAcqs atomic.Int64

	obs             *obs.Sink
	mWriteLat       *obs.Histogram
	mReadLat        *obs.Histogram
	mCommitLat      *obs.Histogram
	mCommitFlushLat *obs.Histogram
	mCommitFoldLat  *obs.Histogram
	// mWindowWait: wall seconds a writer spent parked in waitDirtyWindow,
	// the engine's only write backpressure; observed only on a real wait.
	mWindowWait *obs.Histogram
	// The elasticity achieved: ops per batch group (writeGroup), and
	// members (k') per log stripe flushed.
	mGroupOps      *obs.Histogram
	mStripeMembers *obs.Histogram
	mDegradedReads *obs.Counter
	// Read-batching telemetry: batches entered, ops carried, groups served
	// under shard locks instead of the lock-free pass, and read-path shared
	// lock acquisitions — the scrapeable form of the batching payoff,
	// asserted by the CI batching-regression smoke.
	cReadBatches     *obs.Counter
	cReadBatchOps    *obs.Counter
	cReadBatchLocked *obs.Counter
	cReadLocks       *obs.Counter
	cPrefoldStripes  *obs.Counter // prefolded stripes published from the table
	cPrefoldStale    *obs.Counter // prefolded stripes folded again under the lock
	cPrefoldDelta    *obs.Counter // prefolded stripes folded by the delta rule
	// Whole-stripe parity kept from the log-stripe flush (foldReady):
	// published as is, or found stale and folded by reading.
	cFoldReadyStripes *obs.Counter
	cFoldReadyStale   *obs.Counter
	// cUpdateTouched counts first allocations of update-headroom chunks:
	// the SSD media the array has ever written outside the stripe homes.
	cUpdateTouched *obs.Counter
	// vnowBits is the high-water completion time seen so far (float64
	// bits, CAS-maxed). It anchors the latency metrics of commits invoked
	// untimed (start 0) from inside the write path, whose spans would
	// otherwise absorb the whole device-clock backlog; scheduling never
	// reads it.
	vnowBits atomic.Uint64
}

var _ store.Store = (*EPLog)(nil)

// New builds an EPLog array over devs (the main array) and logDevs (one
// per parity dimension). Each main-array device needs cfg.Stripes home
// chunks plus headroom for no-overwrite updates; the headroom is whatever
// capacity the devices have beyond the homes.
func New(devs, logDevs []device.Dev, cfg Config) (*EPLog, error) {
	if len(devs) < 2 {
		return nil, fmt.Errorf("core: need at least 2 devices, got %d", len(devs))
	}
	geo, err := store.NewGeometry(len(devs), cfg.K, cfg.Stripes)
	if err != nil {
		return nil, err
	}
	if len(logDevs) != geo.M() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrLogDevices, len(logDevs), geo.M())
	}
	if len(devs) >= 1<<(64-locChunkBits) {
		return nil, fmt.Errorf("core: %d devices exceed the packed-location range", len(devs))
	}
	csize := devs[0].ChunkSize()
	for i, d := range devs {
		if d.ChunkSize() != csize {
			return nil, fmt.Errorf("core: device %d chunk size %d != %d", i, d.ChunkSize(), csize)
		}
		if d.Chunks() <= cfg.Stripes {
			return nil, fmt.Errorf("core: device %d has %d chunks; need more than %d stripe homes for update headroom",
				i, d.Chunks(), cfg.Stripes)
		}
		if d.Chunks() >= 1<<locChunkBits {
			return nil, fmt.Errorf("core: device %d has %d chunks; exceeds the packed-location range", i, d.Chunks())
		}
	}
	for i, d := range logDevs {
		if d.ChunkSize() != csize {
			return nil, fmt.Errorf("core: log device %d chunk size %d != %d", i, d.ChunkSize(), csize)
		}
	}

	// Clamp the shard count so every shard owns at least one update chunk
	// per device, one log slot, and one stripe.
	nShards := int64(max(1, cfg.Shards))
	for _, d := range devs {
		if h := d.Chunks() - cfg.Stripes; nShards > h {
			nShards = h
		}
	}
	if lc := logDevs[0].Chunks(); nShards > lc {
		nShards = lc
	}
	if nShards > cfg.Stripes {
		nShards = cfg.Stripes
	}
	nShards = max(1, nShards)

	// Shard holders, shared-lock readers, the lock-free read pass and the
	// prefold issue I/O from several goroutines, but the Dev contract lets
	// implementations assume serialized access — so every device gets a
	// per-device mutex as its outermost wrapper. The input slices are not
	// mutated.
	devs = lockDevs(devs)
	logDevs = lockDevs(logDevs)
	e := &EPLog{
		nShards:    int(nShards),
		fastReads:  cfg.DeviceBufferChunks == 0 && cfg.StripeBufferStripes == 0,
		geo:        geo,
		codes:      erasure.NewCache(erasure.Cauchy),
		logDevs:    logDevs,
		csize:      csize,
		cfg:        cfg,
		latest:     make([]atomic.Uint64, geo.Chunks()),
		latestProt: make([]int64, geo.Chunks()),
		commLoc:    make([]Loc, geo.Chunks()),
		virgin:     make([]bool, cfg.Stripes),
		// Created ahead of the shards: their allocators count into it.
		cUpdateTouched: cfg.Obs.Counter("core.update_chunks_touched"),
	}
	e.devTab.Store(&devs)
	for lba := int64(0); lba < geo.Chunks(); lba++ {
		s, j := geo.Stripe(lba)
		home := Loc{Dev: geo.DataDev(s, j), Chunk: geo.HomeChunk(s)}
		e.storeLatest(lba, home)
		e.latestProt[lba] = committed
		e.commLoc[lba] = home
	}
	for i := range e.virgin {
		e.virgin[i] = true
	}
	if e.cfg.CommitGuardChunks == 0 {
		e.cfg.CommitGuardChunks = devs[0].Chunks() / 16
	}
	e.shardGuard = (e.cfg.CommitGuardChunks + nShards - 1) / nShards

	e.shards = make([]*shard, nShards)
	logChunks := logDevs[0].Chunks()
	isHome := func(c int64) bool { return c < cfg.Stripes } // every home starts in use
	for i := range e.shards {
		sh := &shard{
			e:          e,
			idx:        i,
			dirty:      make(map[int64]struct{}),
			metaDirty:  make(map[int64]struct{}),
			trusted:    make([]uint64, (cfg.Stripes-1)/nShards/64+1), // none: see isTrusted
			alloc:      make([]*allocator, len(devs)),
			logStripes: make(map[int64]*logStripe),
			nextLogID:  int64(i), // ids stride by nShards, so shards never collide
		}
		sh.logStart, sh.logLimit = partitionRange(logChunks, 0, int(nShards), i)
		sh.logCursor = sh.logStart
		for d, dev := range devs {
			sh.alloc[d] = e.newAllocator(dev.Chunks(), i, isHome)
		}
		if cfg.DeviceBufferChunks > 0 {
			sh.devBufs = make([]*deviceBuffer, len(devs))
			for d := range sh.devBufs {
				sh.devBufs[d] = newDeviceBuffer(cfg.DeviceBufferChunks)
				sh.devBufs[d].hotCold = cfg.HotColdGrouping
			}
		}
		if cfg.StripeBufferStripes > 0 {
			sh.stripeBuf = newStripeBuffer(cfg.StripeBufferStripes * cfg.K)
		}
		sh.commitWake = sync.NewCond(&sh.mu)
		e.shards[i] = sh
	}
	if cfg.WriteBehind {
		e.gc = newGroupCommitter(e)
	}
	// The handles below are nil-safe no-ops when cfg.Obs is nil.
	e.obs = cfg.Obs
	e.mWriteLat = cfg.Obs.Histogram("core.write_latency")
	e.mReadLat = cfg.Obs.Histogram("core.read_latency")
	e.mCommitLat = cfg.Obs.Histogram("core.commit_latency")
	e.mCommitFlushLat = cfg.Obs.Histogram("core.commit_flush_latency")
	e.mCommitFoldLat = cfg.Obs.Histogram("core.commit_fold_latency")
	e.mWindowWait = cfg.Obs.Histogram("core.window_wait_seconds")
	e.mGroupOps = cfg.Obs.Histogram("core.write_group_ops")
	e.mStripeMembers = cfg.Obs.Histogram("core.log_stripe_members")
	e.mDegradedReads = cfg.Obs.Counter("core.degraded_reads")
	e.cReadBatches = cfg.Obs.Counter("core.read_batches")
	e.cReadBatchOps = cfg.Obs.Counter("core.read_batch_ops")
	e.cReadBatchLocked = cfg.Obs.Counter("core.read_batch_locked_groups")
	e.cReadLocks = cfg.Obs.Counter("core.read_lock_acquisitions")
	e.cPrefoldStripes = cfg.Obs.Counter("core.prefold_stripes")
	e.cPrefoldStale = cfg.Obs.Counter("core.prefold_stale")
	e.cPrefoldDelta = cfg.Obs.Counter("core.prefold_delta_stripes")
	e.cFoldReadyStripes = cfg.Obs.Counter("core.fold_ready_stripes")
	e.cFoldReadyStale = cfg.Obs.Counter("core.fold_ready_stale")
	for _, sh := range e.shards {
		sh.initFlight(cfg.Obs)
	}
	return e, nil
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

// partitionRange splits [reserved, total) into n contiguous partitions and
// returns the i-th; the last partition absorbs the remainder. With n == 1
// it returns [reserved, total) — the whole headroom, as in the unsharded
// engine.
func partitionRange(total, reserved int64, n, i int) (lo, hi int64) {
	per := (total - reserved) / int64(n)
	lo = reserved + int64(i)*per
	hi = lo + per
	if i == n-1 {
		hi = total
	}
	return lo, hi
}

// Close stops the background group-commit scheduler after draining it: any
// shard still queued for a background parity fold gets a final commit, so
// no log stripe whose fold was scheduled is left pending. Close then
// surfaces the first background commit error still unreported — an error
// the engine promised to deliver "on the next write" that would otherwise
// vanish when the array is shut down. It does not flush the device buffers
// (see Flush); pending state stays readable through the devices and
// metadata. Close is idempotent and safe for concurrent use; every call
// returns the same error.
func (e *EPLog) Close() error {
	e.closeOnce.Do(func() {
		if e.gc != nil {
			e.gc.shutdown()
			// The scheduler has stopped; a shard still marked queued had a
			// fold scheduled but not yet run, and a shard with pending log
			// stripes or dirty stripes may simply not have re-triggered
			// since the last background fold (write-behind acks at
			// log-append, so nothing forces a final trigger). Run those
			// folds inline (commitAt consumes the queued mark and the
			// latched cause) so acknowledged writes don't stay
			// parity-pending forever.
			for _, sh := range e.shards {
				t0 := sh.lockClock()
				sh.mu.Lock()
				sh.lockAcquired(t0)
				var err error
				if sh.queued.Load() || len(sh.logStripes) > 0 || len(sh.dirty) > 0 {
					_, err = sh.commitAt(0)
				}
				sh.lockReleasing()
				sh.mu.Unlock()
				if err != nil && e.closeErr == nil {
					e.closeErr = err
				}
			}
		}
		// Surface the first background error no later write will report.
		for _, sh := range e.shards {
			t0 := sh.lockClock()
			sh.mu.Lock()
			sh.lockAcquired(t0)
			err := sh.takeAsyncErr()
			sh.lockReleasing()
			sh.mu.Unlock()
			if err != nil && e.closeErr == nil {
				e.closeErr = err
			}
		}
	})
	return e.closeErr
}

// Chunks implements store.Store.
func (e *EPLog) Chunks() int64 { return e.geo.Chunks() }

// ChunkSize implements store.Store.
func (e *EPLog) ChunkSize() int { return e.csize }

// Stats returns a snapshot of the counters, aggregated across the shards
// under their read locks — it never blocks writes to other shards and
// never takes a write lock.
func (e *EPLog) Stats() Stats {
	var out Stats
	for _, sh := range e.shards {
		sh.mu.RLock()
		out.add(sh.stats)
		sh.mu.RUnlock()
	}
	return out
}

// Geometry exposes the array layout.
func (e *EPLog) Geometry() store.Geometry { return e.geo }

// PendingLogChunks returns the occupied log-device chunks across all log
// devices, summed from the fill each shard publishes — no lock taken.
func (e *EPLog) PendingLogChunks() int64 {
	var occupied int64
	for _, sh := range e.shards {
		occupied += sh.logUsed.Load()
	}
	return occupied * int64(e.geo.M())
}

// PendingLogStripes returns the number of un-committed log stripes,
// summed from the fill each shard publishes — no lock taken.
func (e *EPLog) PendingLogStripes() int {
	var n int64
	for _, sh := range e.shards {
		n += sh.pendingStripes.Load()
	}
	return int(n)
}

// vnow reads the high-water completion time.
func (e *EPLog) vnow() float64 {
	return math.Float64frombits(e.vnowBits.Load())
}

// bumpVnow raises the high-water completion time to t (CAS-max, so
// concurrent requests never lose a later completion).
func (e *EPLog) bumpVnow(t float64) {
	for {
		old := e.vnowBits.Load()
		if math.Float64frombits(old) >= t {
			return
		}
		if e.vnowBits.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// code returns the memoized k'-of-(k'+m) code.
func (e *EPLog) code(kPrime int) (*erasure.Code, error) {
	return e.codes.Get(kPrime, e.geo.M())
}

package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/store"
)

// The op pipeline
// ---------------
//
// Every read and write takes the same route: entry → classify → per-shard
// executor → completion envelope. The entries are WriteBatch/ReadBatch
// (the network server coalesces the writes of many connections into one
// batch and each connection's burst of reads into another, so requests
// share one shard-lock hold or one seqlock sample instead of paying one
// each) and WriteChunks/ReadChunks, which are batches of one on the
// caller's stack. classify is the one range check and the one shard router.
// The executors are writeStep (write.go; driven by writeGroup for a batch
// group and by writeOp for a group of one) and readGroup (read.go); each op
// leaves through finishWrite or finishRead, so spans and latency
// observations cannot tell a batched op from a single one.
//
// The write executor's unit is the shard group, not the op: the update
// chunks of every op in the group form one update set and one updatePath
// flushes it, so chunks of different requests bound for different SSDs
// share a log stripe (k' > 1 from 1-chunk updates) with no RAM buffer and
// no acknowledgement before the log append. Contract: an op rejected by
// classify or at admission (a background fold's error) contributes nothing
// to the set; a flush error fails every op with a chunk in the set and no
// other; the flush starts at the latest Start among those ops and each of
// them ends when it does; commit triggers run after the flush — the
// CommitEvery commit of an inline-commit engine included, on the op whose
// count fired it — and the log-region mark is evaluated once per group.
//
// Ordering: ops local to one shard land on it in batch order (reads in
// ascending LBA order, under one snapshot). Write groups run in parallel,
// so writes have no ordering across shards; read groups run on the caller
// in ascending shard order, then the spanning ops in batch order, so a
// ReadBatch starts no goroutine and its virtual-time order is
// deterministic. Two ops of one batch on the same LBA have unspecified
// relative order — the contract the wire protocol gives pipelined
// requests; callers needing order await completion first.

// BatchOp is one write in a batch. Start is the op's virtual start time;
// End and Err carry the per-op result back (End is the virtual completion
// time on success and the span's progress on partial failure, matching
// WriteChunks).
type BatchOp struct {
	LBA   int64
	Data  []byte
	Start float64

	End float64
	Err error
}

// ReadOp is one read in a batch. Buf is the caller-owned destination (a
// positive chunk multiple); Start is the op's virtual start time; End and
// Err carry the per-op result back, matching ReadChunks.
type ReadOp struct {
	LBA   int64
	Buf   []byte
	Start float64

	End float64
	Err error
}

// shardSet is the set of shards owning a run of consecutive stripes: n
// consecutive shard indices starting at first, wrapping modulo the shard
// count. It is never empty; n == 1 means the op is local to one shard.
type shardSet struct{ first, n int }

// has reports whether shard i of ns is in the set.
func (s shardSet) has(i, ns int) bool { return (i-s.first+ns)%ns < s.n }

// classify is the pipeline's one range check and one router: it validates
// an op's payload length and chunk range and returns its chunk count and
// the shards owning its stripes.
func (e *EPLog) classify(lba int64, payload int) (int64, shardSet, error) {
	n := int64(payload / e.csize)
	if n == 0 || int(n)*e.csize != payload {
		return 0, shardSet{}, fmt.Errorf("core: payload length %d not a positive chunk multiple", payload)
	}
	if lba < 0 || lba > e.geo.Chunks()-n {
		return 0, shardSet{}, fmt.Errorf("%w: [%d,%d) of %d", store.ErrWriteTooLarge, lba, lba+n, e.geo.Chunks())
	}
	lo, _ := e.geo.Stripe(lba)
	hi, _ := e.geo.Stripe(lba + n - 1)
	ns := int64(e.nShards)
	return n, shardSet{first: int(lo % ns), n: int(min(hi-lo+1, ns))}, nil
}

// batchPlan is classify's output for one batch: per shard, the indices of
// the ops local to it, plus the ops spanning several shards. Pooled — the
// batch entries run concurrently (one ReadBatch per served connection) — so
// a warmed-up engine plans a batch without allocating.
type batchPlan struct {
	groups   [][]int
	spanning []spanningOp
	spans    []device.Span  // ReadBatch: per-op device spans
	wg       sync.WaitGroup // WriteBatch: the spawned shard groups
	runners  []*groupRunner // WriteBatch: one per shard, to spawn its group on
}

// groupRunner starts one shard group of a WriteBatch on a goroutine of its
// own. fn is the method value r.run, bound once when the plan first meets
// the shard index, so `go r.fn()` allocates no closure per batch.
type groupRunner struct {
	p    *batchPlan
	sh   *shard
	ops  []BatchOp
	idxs []int // p.groups[i], the plan's own
	fn   func()
}

func (r *groupRunner) run() {
	r.sh.e.writeGroup(r.sh, r.ops, r.idxs)
	r.sh, r.ops = nil, nil // a pooled plan pins no engine and no batch
	r.p.wg.Done()
}

type spanningOp struct {
	i   int
	set shardSet
}

var planPool = sync.Pool{New: func() any { return new(batchPlan) }}

// getPlan returns an empty plan for this engine.
func (e *EPLog) getPlan() *batchPlan {
	p := planPool.Get().(*batchPlan)
	if cap(p.groups) < e.nShards {
		p.groups = make([][]int, e.nShards)
	}
	p.groups = p.groups[:e.nShards]
	for i := range p.groups {
		p.groups[i] = p.groups[i][:0]
	}
	p.spanning = p.spanning[:0]
	for len(p.runners) < e.nShards {
		r := &groupRunner{p: p}
		r.fn = r.run
		p.runners = append(p.runners, r)
	}
	return p
}

// add routes op i to its shard's group, or to the spanning list.
func (p *batchPlan) add(set shardSet, i int) {
	if set.n == 1 {
		p.groups[set.first] = append(p.groups[set.first], i)
	} else {
		p.spanning = append(p.spanning, spanningOp{i, set})
	}
}

// WriteBatch applies every op, filling each op's End and Err in place.
// Ops local to one shard (all chunks in one stripe, or a single-shard
// engine) are grouped per shard and each group lands as one elastic unit
// under one exclusive lock hold; an op spanning several shards runs on the
// caller's goroutine, one hold per touched shard. The last populated
// group runs on the caller too and the others on goroutines of their own
// (the single write dispatcher's only multi-core lever), each started
// through its plan slot's groupRunner, so no batch allocates and one
// confined to one shard spawns nothing. Failures are per-op,
// except that the ops sharing a failed log-stripe flush fail together (see
// the pipeline comment above); a bad op never prevents the rest of the
// batch from running.
func (e *EPLog) WriteBatch(ops []BatchOp) {
	if len(ops) == 0 {
		return
	}
	p := e.getPlan()
	for i := range ops {
		op := &ops[i]
		op.End = op.Start
		var set shardSet
		if _, set, op.Err = e.classify(op.LBA, len(op.Data)); op.Err == nil {
			p.add(set, i)
		}
	}
	last := -1
	for si, g := range p.groups {
		if len(g) == 0 {
			continue
		}
		if last >= 0 {
			r := p.runners[last]
			r.sh, r.ops, r.idxs = e.shards[last], ops, p.groups[last]
			p.wg.Add(1)
			go r.fn()
		}
		last = si
	}
	if last >= 0 {
		e.writeGroup(e.shards[last], ops, p.groups[last])
	}
	p.wg.Wait()
	for _, s := range p.spanning {
		e.writeOp(ops, s.i, s.set)
	}
	planPool.Put(p)
}

// ReadBatch applies every op, filling each op's End and Err in place.
// Ops local to one shard are grouped per shard and each group is served
// under one snapshot — one epoch-validated lock-free pass, or one lock
// hold when that pass is unavailable or fails; an op spanning several
// shards is a group of its own over every shard it touches. All of it runs
// on the caller's goroutine, in the order the pipeline comment gives.
// Failures are per-op: a bad or failed op never prevents the rest of the
// batch from running.
func (e *EPLog) ReadBatch(ops []ReadOp) {
	if len(ops) == 0 {
		return
	}
	e.cReadBatches.Inc()
	e.cReadBatchOps.Add(int64(len(ops)))
	p := e.getPlan()
	p.spans = grow(p.spans, len(ops))
	for i := range ops {
		op := &ops[i]
		op.End = op.Start
		var set shardSet
		if _, set, op.Err = e.classify(op.LBA, len(op.Buf)); op.Err == nil {
			p.add(set, i)
		}
	}
	for si, idxs := range p.groups {
		if len(idxs) == 0 {
			continue
		}
		// Ascending-LBA order turns adjacent ops into one contiguous scan.
		slices.SortFunc(idxs, func(a, b int) int { return cmp.Compare(ops[a].LBA, ops[b].LBA) })
		e.readGroup(shardSet{first: si, n: 1}, ops, idxs, p.spans)
	}
	for _, s := range p.spanning {
		e.readGroup(s.set, ops, []int{s.i}, p.spans)
	}
	planPool.Put(p)
}

// NumShards reports the engine's shard count after clamping.
func (e *EPLog) NumShards() int { return e.nShards }

// ShardLockAcquisitions returns the cumulative number of exclusive shard
// lock acquisitions taken through the engine's write/commit brackets. It
// is the batching payoff metric: coalescing N ops into one batch takes one
// acquisition per touched shard instead of one per op.
func (e *EPLog) ShardLockAcquisitions() int64 { return e.lockAcqs.Load() }

// ReadLockAcquisitions returns the cumulative number of shared shard-lock
// acquisitions taken by reads whose lock-free pass was unavailable or
// failed. It is the read-side batching payoff metric: coalescing N such
// reads into one batch takes one acquisition per shard group instead of
// one per op, and lock-free reads take none at all.
func (e *EPLog) ReadLockAcquisitions() int64 { return e.readLockAcqs.Load() }

// WritePressure reports the engine's write backpressure signal in [0, 1]:
// the fill of its fullest shard (log-region occupancy, or dirty-window
// fill when a write-behind window is configured, whichever is higher). It
// takes no lock, so a STAT never waits out a fold.
func (e *EPLog) WritePressure() float64 {
	var p float64
	for _, sh := range e.shards {
		p = max(p, sh.fill())
	}
	return min(p, 1)
}

// FoldPressured hands every shard whose own fill (its term of
// WritePressure) is at or above threshold to the group committer, which
// folds it under that shard's lock only, attributed to the pressure
// trigger; a failed fold surfaces on the shard's next write, Flush or
// Close. It takes no lock and never blocks; without a committer (one
// shard, not write-behind) or after Close it does nothing.
func (e *EPLog) FoldPressured(threshold float64) {
	if e.gc == nil || e.gc.stopped() {
		return
	}
	for _, sh := range e.shards {
		if sh.fill() >= threshold {
			e.gc.enqueue(sh)
		}
	}
}

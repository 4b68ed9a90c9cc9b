package core

import (
	"errors"
	"fmt"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// WriteChunks implements store.Store. New writes that span a full stripe
// are written directly with their parity (saving the later commit); all
// other writes take the elastic-logging path: data chunks go out-of-place
// to their SSDs while log chunks — computed from the new data only —
// stream to the log devices in the same phase. There is no pre-read
// anywhere on the write path.
//
// The call is a batch of one on the caller's stack (see batch.go): it
// locks only the shards its stripes belong to, one at a time, so
// concurrent writes to different stripe groups proceed in parallel, and
// its steady state allocates nothing.
func (e *EPLog) WriteChunks(start float64, lba int64, data []byte) (float64, error) {
	_, set, err := e.classify(lba, len(data))
	if err != nil {
		return start, err
	}
	ops := [1]BatchOp{{LBA: lba, Data: data, Start: start, End: start}}
	e.writeOp(ops[:], 0, set)
	return ops[0].End, ops[0].Err
}

// inflightWrite is the envelope state of one write op on its way through
// the executor, shared by the op's per-shard steps. It lives on the driving
// goroutine's stack, or for a batch group in shard scratch (and so must not
// point at the op itself: the heap pointers below would drag the caller's
// op to the heap with them).
type inflightWrite struct {
	span device.Span
	// admitted is set once the first touched shard has let the op in: from
	// then on the op counts as a request and owns a root span on that
	// shard's recorder.
	admitted bool
	// grouped is set while the op has a chunk in the current shard's
	// update set, so the set's flush decides its outcome and end time.
	grouped bool
	rec     *obs.SpanRecorder
	root    *obs.Span
	err     error
}

// writeGroup drives a batch group — ops all local to sh — through the
// executor under one exclusive hold, their envelopes in shard scratch.
func (e *EPLog) writeGroup(sh *shard, ops []BatchOp, idxs []int) {
	e.mGroupOps.Observe(float64(len(idxs)))
	t0 := sh.lockClock()
	sh.mu.Lock()
	sh.lockAcquired(t0)
	ws := grow(sh.wrOps, len(idxs))
	sh.wrOps = ws
	sh.writeStep(ops, idxs, ws)
	for j, i := range idxs {
		e.finishWrite(&ops[i], &ws[j])
	}
	clear(ws) // scratch must not pin span trees
	sh.lockReleasing()
	sh.mu.Unlock()
}

// writeOp drives one op as a group of one: writeStep once per shard in set,
// in ascending index order on the caller's goroutine, one exclusive hold
// each. On a one-shard engine this is the serial write path, bit-identical
// (byte counts and virtual time) to the unsharded engine. An op spanning
// several shards has every shard group its own update chunks into log
// stripes (the group-splitting trade-off of DESIGN.md §9); the envelope —
// request count, root span, latency — is still one per op.
func (e *EPLog) writeOp(ops []BatchOp, i int, set shardSet) {
	var w [1]inflightWrite
	idxs := [1]int{i}
	for si, sh := range e.shards {
		if !set.has(si, e.nShards) {
			continue
		}
		t0 := sh.lockClock()
		sh.mu.Lock()
		sh.lockAcquired(t0)
		sh.writeStep(ops, idxs[:], w[:])
		sh.lockReleasing()
		sh.mu.Unlock()
		if w[0].err != nil {
			break
		}
	}
	e.finishWrite(&ops[i], &w[0])
}

// writeStep is the write executor: it lands on this shard the stripes it
// owns of every op in idxs (ws holds their envelopes, index for index) as
// one elastic unit, then fires the shard's commit triggers. Each op is
// admitted in order and its direct and stripe-buffer segments are written
// at once; the update chunks of all of them form one update set, flushed
// by one updatePath (the contract is in batch.go's pipeline comment).
// sh.mu is held exclusively.
//
//eplog:hotpath
func (sh *shard) writeStep(ops []BatchOp, idxs []int, ws []inflightWrite) {
	e := sh.e
	// Write-behind: block while the dirty window is full — once, before
	// anything is pending, because the wait releases the lock so the fold
	// can run — and surface a background fold failure (one the wait may
	// have left behind included) on the next op instead of acknowledging it.
	sh.waitDirtyWindow()
	prevOp := sh.curOp
	lead, start := -1, 0.0 // first op with a chunk in the set; latest Start among them
	for j, i := range idxs {
		op, w := &ops[i], &ws[j]
		n := len(sh.wrUpdates)
		if w.err = sh.takeAsyncErr(); w.err == nil {
			nChunks := int64(len(op.Data) / e.csize)
			if !w.admitted {
				w.admitted = true
				sh.stats.Requests++
				w.span.Reset(op.Start)
				// Root span for this write, on the first touched shard's
				// recorder. Phase children attach through sh.curOp and carry
				// their own shard index; error paths still publish the tree
				// with whatever progress the device span made.
				w.rec = sh.rec
				w.root = sh.rec.Start(obs.SpanWrite, sh.idx, op.Start, op.LBA, nChunks) //eplog:span-handoff finished by finishWrite
			}
			sh.curOp = w.root
			w.err = sh.writeStripes(&w.span, op.LBA, nChunks, op.Data)
		}
		if w.err != nil {
			sh.wrUpdates = sh.wrUpdates[:n] // a rejected or failed op contributes nothing
		}
		if w.grouped = len(sh.wrUpdates) > n; w.grouped {
			if lead < 0 {
				lead, start = j, op.Start
			}
			start = max(start, op.Start)
		}
	}
	if lead >= 0 {
		// One flush for the set; its log-append phases hang under lead's root.
		var fl device.Span
		fl.Reset(start)
		sh.curOp = ws[lead].root
		err := sh.updatePath(&fl, sh.wrUpdates)
		for j := range ws {
			if w := &ws[j]; w.grouped {
				w.span.Extend(fl.End())
				w.err = err
			}
		}
	}
	sh.curOp = prevOp
	// Drop data references so scratch reuse cannot pin caller buffers.
	clearPending(sh.wrSeg[:cap(sh.wrSeg)])
	clearPending(sh.wrUpdates[:cap(sh.wrUpdates)])
	sh.wrUpdates = sh.wrUpdates[:0]

	// Commit triggers: CommitEvery per landed op, the log-region mark once.
	for j := 0; e.cfg.CommitEvery > 0 && j < len(ws); j++ {
		if ws[j].err != nil {
			continue
		}
		sh.reqSinceCommit++
		if sh.reqSinceCommit < e.cfg.CommitEvery {
			continue
		}
		switch {
		case e.gc != nil && sh.idle():
			// Direct stripe writes alone got here: a background fold
			// would find nothing, at a moment no caller can observe.
			sh.reqSinceCommit = 0
		case e.gc != nil:
			// Write-behind: acknowledge at log-append; the fold runs
			// on the background scheduler off the write critical path.
			sh.cause = causeEvery
			e.gc.enqueue(sh)
		default:
			sh.cause = causeEvery
			ws[j].err = sh.commit()
		}
	}
	if e.gc != nil && sh.logFill() >= logPressureMark {
		sh.cause = causePressure
		e.gc.enqueue(sh)
	}
}

// finishWrite is the write completion envelope: it reports the outcome
// through op and publishes the op's span tree, latency, and trace event.
// Partial-failure contract: once device work has been issued, a failed op
// returns the span's progress rather than its start, so a caller replaying
// from the returned time does not double-count virtual time (or stats) for
// work already done.
func (e *EPLog) finishWrite(op *BatchOp, w *inflightWrite) {
	op.Err = w.err
	if !w.admitted {
		return
	}
	op.End = w.span.End()
	w.rec.Finish(w.root, op.End)
	if w.err != nil {
		return
	}
	e.bumpVnow(op.End)
	e.mWriteLat.Observe(op.End - op.Start)
	e.obs.Emit(obs.Event{Kind: obs.KindWrite, T: op.Start, Dur: op.End - op.Start, Dev: -1,
		LBA: op.LBA, N: int64(len(op.Data) / e.csize)})
}

// writeStripes routes the stripes of the request [lba, lba+nChunks) that
// this shard owns — every stripe on a one-shard engine — in stripe order:
// each stripe's segment takes the direct or stripe-buffer path if it can,
// and the remaining chunks join the shard-wide update set (wrUpdates) that
// writeStep flushes, so elastic grouping can span stripes (Fig. 1(b)) and
// requests. A segment that is a whole stripe the set does not touch yet is
// flagged to flush as its own log stripe instead (updatePath), so its log
// chunks are the stripe's parity (foldReady).
// Both slices are shard scratch: a write cannot reenter itself (sh.mu),
// and the nested paths use their own frames.
//
//eplog:hotpath
func (sh *shard) writeStripes(span *device.Span, lba, nChunks int64, data []byte) error {
	e := sh.e
	k, ns, cs := int64(e.geo.K), int64(e.nShards), int64(e.csize)
	first, _ := e.geo.Stripe(lba)
	last, _ := e.geo.Stripe(lba + nChunks - 1)
	for s := first + (int64(sh.idx)-first%ns+ns)%ns; s <= last; s += ns {
		seg := sh.wrSeg[:0]
		for c := max(lba, s*k); c < min(lba+nChunks, (s+1)*k); c++ {
			seg = append(seg, pendingChunk{lba: c, data: data[(c-lba)*cs : (c-lba+1)*cs]})
		}
		sh.wrSeg = seg
		deferred, err := sh.writeSegment(span, s, seg)
		if err != nil {
			return err
		}
		whole := int64(len(deferred)) == k && !sh.setTouches(s)
		n := len(sh.wrUpdates)
		sh.wrUpdates = append(sh.wrUpdates, deferred...)
		if whole {
			sh.wrUpdates[n].whole = true
		}
	}
	return nil
}

// setTouches reports whether the shard's update set already holds a chunk
// of stripe.
//
//eplog:hotpath
func (sh *shard) setTouches(stripe int64) bool {
	for _, c := range sh.wrUpdates {
		if s, _ := sh.e.geo.Stripe(c.lba); s == stripe {
			return true
		}
	}
	return false
}

// writeSegment routes one stripe's worth of a request, returning any
// chunks that should go through the shared update path instead. The
// stripe belongs to this shard and sh.mu is held.
//
//eplog:hotpath
func (sh *shard) writeSegment(span *device.Span, stripe int64, seg []pendingChunk) ([]pendingChunk, error) {
	e := sh.e
	// An earlier op of the group that left a partial write of this
	// still-virgin stripe in the update set keeps the segment behind it in
	// the set, which keeps the group in batch order.
	if e.virgin[stripe] && !sh.setTouches(stripe) {
		if len(seg) == e.geo.K {
			// New full-stripe write: straight to the main array.
			return nil, sh.directStripeWrite(span, stripe, seg)
		}
		if sh.stripeBuf != nil {
			return nil, sh.bufferNewWrite(span, stripe, seg)
		}
	}
	return seg, nil
}

// directStripeWrite writes a complete new stripe (data and parity) to the
// stripe's home locations. Parity buffers come from the arena; the shard
// table and the device-write list are shard scratch (the path cannot
// reenter itself), so the steady state allocates nothing.
func (sh *shard) directStripeWrite(span *device.Span, stripe int64, seg []pendingChunk) error {
	e := sh.e
	k, m := e.geo.K, e.geo.M()
	home := e.geo.HomeChunk(stripe)
	sh.dsShards = grow(sh.dsShards, k+m)
	shards := sh.dsShards
	clear(shards)
	writes, devs := sh.dsWrites[:0], e.devs()
	for _, c := range seg {
		_, slot := e.geo.Stripe(c.lba)
		shards[slot] = c.data
		writes = append(writes, devWrite{devs[e.geo.DataDev(stripe, slot)], home, c.data})
	}
	parity := bufpool.Default.GetSlices(shards[k:], e.csize)
	for i, p := range parity {
		writes = append(writes, devWrite{devs[e.geo.ParityDev(stripe, i)], home, p})
	}
	// Phase span: the direct full-stripe write; each chunk's device write
	// is recorded under it as an I/O leaf.
	ps := sh.curOp.Child(obs.SpanDirect, sh.idx, span.Start(), e.geo.LBA(stripe, 0), int64(k))
	prevRec := span.Recorder()
	span.SetRecorder(ps)
	code, err := e.code(k)
	if err == nil {
		err = code.Encode(shards)
	}
	if err == nil {
		err = writeDevs(span, writes)
	}
	span.SetRecorder(prevRec)
	ps.Close(span.End())
	bufpool.Default.PutSlices(parity)
	clear(shards)
	clear(writes)
	sh.dsWrites = writes
	if err != nil {
		return err
	}
	sh.stats.DataWriteChunks += int64(k)
	sh.stats.ParityWriteChunks += int64(m)
	e.virgin[stripe] = false
	sh.setTrusted(stripe, true) // the parity just written encodes the home chunks
	sh.metaDirty[stripe] = struct{}{}
	sh.stats.FullStripeWrites++
	e.obs.Emit(obs.Event{Kind: obs.KindFullStripe, T: span.Start(), Dev: -1,
		LBA: e.geo.LBA(stripe, 0), N: int64(k), Aux: int64(m)})
	return nil
}

// bufferNewWrite stages new-write chunks in the stripe buffer, flushing
// any stripe that becomes complete and evicting the oldest stripe when the
// buffer overflows.
func (sh *shard) bufferNewWrite(span *device.Span, stripe int64, seg []pendingChunk) error {
	e := sh.e
	for _, c := range seg {
		if done := sh.stripeBuf.put(stripe, c.lba, c.data, e.geo.K); done >= 0 {
			full := sh.stripeBuf.take(done)
			err := sh.directStripeWrite(span, done, full)
			putPendingData(full)
			if err != nil {
				return err
			}
		}
	}
	for sh.stripeBuf.overCap() {
		oldest := sh.stripeBuf.oldest()
		if oldest < 0 {
			break
		}
		evicted := sh.stripeBuf.take(oldest)
		e.obs.Emit(obs.Event{Kind: obs.KindBufferEvict, T: span.Start(), Dev: -1,
			LBA: e.geo.LBA(oldest, 0), N: int64(len(evicted))})
		err := sh.updatePath(span, evicted)
		putPendingData(evicted)
		if err != nil {
			return err
		}
	}
	return nil
}

// updatePath handles updates (and new partial-stripe writes, which EPLog
// treats as updates of zero-filled committed chunks). With device buffers
// enabled the chunks are staged per destination SSD; otherwise they are
// grouped into log stripes immediately.
//
//eplog:hotpath
func (sh *shard) updatePath(span *device.Span, chunks []pendingChunk) error {
	e := sh.e
	if sh.devBufs != nil {
		for _, c := range chunks {
			if sh.bufPut(e.loadLatest(c.lba).Dev, c.lba, c.data) {
				sh.stats.AbsorbedChunks++
			}
		}
		// fullBufs is maintained at put/pop, so no O(devices) rescan per
		// buffered write.
		for sh.fullBufs > 0 {
			if err := sh.drainRound(span); err != nil {
				return err
			}
		}
		return nil
	}

	// Immediate grouping: rounds of at most one chunk per SSD. The
	// destination devices are re-keyed from e.latest at the start of
	// every round: a flushGroup (or the parity commit it can trigger)
	// may relocate an LBA, and grouping rounds by devices captured
	// before the flush could emit a log stripe with two members on one
	// SSD — breaking the one-chunk-per-device invariant that degraded
	// reads and rebuild rely on.
	//
	// Both the round's group and the deferred set live in a scratch
	// frame; the caller's slice is never reordered (callers keep it to
	// return arena buffers after the flush). The first pass copies the
	// chunks it does not flush into the frame's rest slice; the rounds
	// compact it in place, which is safe because the write index always
	// trails the read index (the first chunk of every round is grouped,
	// never deferred).
	sc := sh.getScratch()
	defer sh.putScratch(sc)
	// First pass: whole-stripe requests, each as its own log stripe in slot
	// order (k′ = k), so its log chunks are the stripe's parity (foldReady).
	// writeStripes flags only a stripe no earlier chunk of the set touches,
	// so flushing it ahead of the rounds keeps every LBA's versions in batch
	// order.
	k, pending := e.geo.K, sc.rest[:0]
	for i := 0; i < len(chunks); i++ {
		if !chunks[i].whole {
			pending = append(pending, chunks[i])
			continue
		}
		if err := sh.flushGroup(span, chunks[i:i+k]); err != nil {
			return err
		}
		i += k - 1
	}
	sc.rest = pending
	for len(pending) > 0 {
		sc.resetTaken()
		group, rest := sc.group[:0], pending[:0]
		for _, c := range pending {
			dev := e.loadLatest(c.lba).Dev
			if sc.taken[dev] {
				rest = append(rest, c)
				continue
			}
			sc.taken[dev] = true
			group = append(group, c)
		}
		sc.group = group
		if err := sh.flushGroup(span, group); err != nil {
			return err
		}
		pending = rest
	}
	return nil
}

// bufPut stages a chunk in its destination device's buffer, maintaining
// the full-buffer counter across the not-full -> full transition. It
// reports whether the write was absorbed by an existing entry.
//
//eplog:hotpath
func (sh *shard) bufPut(dev int, lba int64, data []byte) bool {
	b := sh.devBufs[dev]
	wasFull := b.full()
	absorbed := b.put(lba, data)
	if !wasFull && b.full() {
		sh.fullBufs++
		sh.gFullBufs.Set(float64(sh.fullBufs))
	}
	return absorbed
}

// bufPop pops one pending chunk from a device buffer, maintaining the
// full-buffer counter across the full -> not-full transition.
//
//eplog:hotpath
func (sh *shard) bufPop(b *deviceBuffer) (pendingChunk, bool) {
	wasFull := b.full()
	c, ok := b.pop()
	if wasFull && !b.full() {
		sh.fullBufs--
		sh.gFullBufs.Set(float64(sh.fullBufs))
	}
	return c, ok
}

// drainRound extracts one pending chunk from the head of every non-empty
// device buffer and emits them as one log stripe (Section III-D). The
// popped chunks carry arena-owned copies (deviceBuffer.put copied them
// in); once the flush has written them out they go back to the arena.
//
//eplog:hotpath
func (sh *shard) drainRound(span *device.Span) error {
	sc := sh.getScratch()
	defer sh.putScratch(sc)
	group := sc.group[:0]
	for _, b := range sh.devBufs {
		if c, ok := sh.bufPop(b); ok {
			group = append(group, c)
		}
	}
	sc.group = group
	if len(group) == 0 {
		return nil
	}
	err := sh.flushGroup(span, group)
	for _, c := range group {
		bufpool.Default.Put(c.data)
	}
	return err
}

// flushGroup writes one elastic log stripe: the group's chunks go
// out-of-place to their (distinct) SSDs while the k'-of-(k'+m) log chunks
// are appended to the log devices, all within the same span. A group with
// two members destined to the same SSD is rejected: one chunk per device
// per log stripe is the invariant (DESIGN.md §5) that lets degraded reads
// and rebuild survive a device failure.
//
//eplog:hotpath
func (sh *shard) flushGroup(span *device.Span, group []pendingChunk) error {
	e := sh.e
	kPrime, m := len(group), e.geo.M()
	sc := sh.getScratch()
	defer sh.putScratch(sc)

	// Allocate a fresh location on each destination SSD (no-overwrite).
	// Allocation may force a parity commit (the space guard), and a
	// commit resets the log cursor — so the log position is claimed only
	// after every operation that could commit has run.
	ls := sh.getLogStripe()
	ls.id = sh.nextLogID
	sc.resetTaken()
	for _, c := range group {
		dev := e.loadLatest(c.lba).Dev
		if sc.taken[dev] {
			sh.putLogStripe(ls)
			return fmt.Errorf("core: log stripe group has two chunks on device %d (one-chunk-per-device invariant)", dev)
		}
		sc.taken[dev] = true
		chunk, err := sh.allocOn(dev)
		if err != nil {
			sh.putLogStripe(ls)
			return err
		}
		ls.members = append(ls.members, member{lba: c.lba, loc: Loc{Dev: dev, Chunk: chunk}})
	}

	// Make room in the shard's log region if needed, then claim the slot.
	if sh.logCursor >= sh.logLimit {
		if sh.inCommit {
			sh.putLogStripe(ls)
			return fmt.Errorf("core: log devices full during commit")
		}
		sh.cause = causeSpace
		if err := sh.commit(); err != nil {
			sh.putLogStripe(ls)
			return err
		}
	}
	ls.logPos = sh.logCursor
	// Phase span: one elastic log-stripe flush. Created only after every
	// operation that could commit has run, so the phase nests under the
	// current op (or a commit's flush phase), never inside its own
	// trigger.
	ps := sh.curOp.Child(obs.SpanLogAppend, sh.idx, span.Start(), ls.logPos, int64(kPrime))
	prevRec := span.Recorder()
	span.SetRecorder(ps)

	// The log chunks are encoded from the new data only. Group data is
	// caller-owned; the log chunks come from the arena, or for a whole
	// stripe in slot order — whose log chunks are its new parity — from
	// the shard's foldReady slot (Encode clears its destinations, so dirty
	// buffers are fine). Data to SSDs and log chunks to log devices form
	// one phase; every write targets a distinct device (members by the
	// invariant above, log devices by construction), so the span's end is
	// that of the slowest.
	shards := sc.shardTable(kPrime + m)
	writes, devs := sc.writes[:0], e.devs()
	for i, mb := range ls.members {
		shards[i] = group[i].data
		writes = append(writes, devWrite{devs[mb.loc.Dev], mb.loc.Chunk, group[i].data})
	}
	stripe, slot, logChunks := sh.claimReady(group)
	ready := logChunks != nil
	if ready {
		copy(shards[kPrime:], logChunks)
	} else {
		logChunks = bufpool.Default.GetSlices(shards[kPrime:], e.csize)
	}
	for i, data := range logChunks {
		// A failed log device costs one of m redundancy.
		writes = append(writes, devWrite{e.logDevs[i], ls.logPos, data})
	}
	sc.writes = writes
	code, err := e.code(kPrime)
	if err == nil {
		err = code.Encode(shards)
	}
	if err == nil {
		err = writeDevs(span, writes)
	}
	span.SetRecorder(prevRec)
	ps.Close(span.End())
	if !ready {
		bufpool.Default.PutSlices(logChunks)
	}
	if err != nil {
		if ready {
			delete(sh.ready.at, stripe) // the slot's buffers no longer hold its parity
		}
		sh.putLogStripe(ls)
		return err
	}
	if ready {
		sh.ready.record(slot, ls.members)
	}
	sh.stats.DataWriteChunks += int64(kPrime)
	sh.stats.LogChunkWrites += int64(m)
	sh.stats.LogBytes += int64(m) * int64(e.csize)
	sh.logCursor++
	sh.nextLogID += int64(e.nShards)
	sh.logStripes[ls.id] = ls
	sh.publishFill()
	sh.stats.LogStripes++
	sh.stats.LogStripeMembers += int64(len(ls.members))
	e.mStripeMembers.Observe(float64(kPrime))
	e.obs.Emit(obs.Event{Kind: obs.KindLogAppend, T: span.Start(), Dev: -1,
		LBA: ls.logPos, N: int64(kPrime), Aux: int64(m)})

	// Bookkeeping: new latest versions, dirty stripes.
	for _, mb := range ls.members {
		e.storeLatest(mb.lba, mb.loc)
		e.latestProt[mb.lba] = ls.id
		s, _ := e.geo.Stripe(mb.lba)
		sh.dirty[s] = struct{}{}
		sh.metaDirty[s] = struct{}{}
		e.virgin[s] = false
	}
	return nil
}

// allocOn allocates a chunk on an SSD out of this shard's partition,
// forcing a parity commit to reclaim space when the partition's free pool
// falls to the shard's slice of the guard band (the paper's commit
// scenario (ii)).
//
//eplog:hotpath
func (sh *shard) allocOn(dev int) (int64, error) {
	if !sh.inCommit && sh.alloc[dev].freeCount() <= sh.e.shardGuard {
		sh.cause = causeGuard
		if err := sh.commit(); err != nil {
			return 0, err
		}
	}
	chunk, err := sh.alloc[dev].alloc()
	if err == nil {
		return chunk, nil
	}
	if !errors.Is(err, ErrNoSpace) || sh.inCommit {
		return 0, err
	}
	sh.cause = causeSpace
	if cerr := sh.commit(); cerr != nil {
		return 0, cerr
	}
	return sh.alloc[dev].alloc()
}

// Flush drains all buffered writes (device buffers and stripe buffer) to
// the array without committing parity. It also surfaces any pending
// background-commit error — a durability barrier must not report success
// while a scheduled parity fold has already failed. Each shard's asyncErr
// is taken under that shard's exclusive lock (it is written by the
// background committer under the same lock).
func (e *EPLog) Flush() error {
	span := device.NewSpan(0)
	for _, sh := range e.shards {
		t0 := sh.lockClock()
		sh.mu.Lock()
		sh.lockAcquired(t0)
		err := sh.takeAsyncErr()
		if err == nil {
			err = sh.flush(span)
		}
		sh.lockReleasing()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (sh *shard) flush(span *device.Span) error {
	if sh.stripeBuf != nil {
		for !sh.stripeBuf.empty() {
			s := sh.stripeBuf.oldest()
			if s < 0 {
				break
			}
			seg := sh.stripeBuf.take(s)
			err := sh.updatePath(span, seg)
			putPendingData(seg)
			if err != nil {
				return err
			}
		}
	}
	for !sh.devBufsEmpty() {
		if err := sh.drainRound(span); err != nil {
			return err
		}
	}
	return nil
}

// devWrite is one chunk write of a phase's per-device write list.
type devWrite struct {
	dev   device.Dev
	chunk int64
	data  []byte
}

// writeDevs issues one phase's chunk writes, each to a distinct device,
// in list order on the caller's span. Like tolerantWrite it touches no
// engine state, so the phase is data, not code, at its call sites.
func writeDevs(span *device.Span, writes []devWrite) error {
	for _, w := range writes {
		if err := tolerantWrite(span, w.dev, w.chunk, w.data); err != nil {
			return err
		}
	}
	return nil
}

// tolerantWrite issues one chunk write on the span, tolerating a failed
// device: ErrFailed is cleared because the chunk remains recoverable
// through its protecting stripe.
func tolerantWrite(span *device.Span, dev device.Dev, chunk int64, data []byte) error {
	if err := span.Write(dev, chunk, data); err != nil {
		if !errors.Is(err, device.ErrFailed) {
			return err
		}
		span.ClearErr()
	}
	return nil
}

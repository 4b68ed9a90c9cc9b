package core

import (
	"errors"
	"slices"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/erasure"
	"github.com/eplog/eplog/internal/gf"
	"github.com/eplog/eplog/internal/obs"
)

// Commit implements store.Store: the parity commit of Section III-C. For
// every data stripe updated since the last commit it reads the latest data
// chunks from the SSDs, recomputes the parity, and writes it back in
// place; then it releases all superseded data versions and the entire log
// space. In normal mode (no failed SSD) the log devices are never read.
//
// Commit is per-shard: each shard folds its own dirty stripes under its
// own lock, one shard at a time in index order, so writes and reads to
// other shards keep flowing while a shard commits.
func (e *EPLog) Commit() error {
	_, err := e.CommitAt(0)
	return err
}

// CommitAt is Commit with virtual-time accounting; it returns the
// completion time of the commits' device work. On error it returns the
// progress so far (not start), so replaying callers do not double-count
// device work already issued.
func (e *EPLog) CommitAt(start float64) (float64, error) {
	end := start
	for _, sh := range e.shards {
		t0 := sh.lockClock()
		sh.mu.Lock()
		sh.lockAcquired(t0)
		shEnd, err := sh.commitAt(start)
		sh.lockReleasing()
		sh.mu.Unlock()
		end = max(end, shEnd)
		if err != nil {
			return end, err
		}
	}
	return end, nil
}

// commit is the untimed commit used inside the engine, where sh.mu is
// already held.
func (sh *shard) commit() error {
	_, err := sh.commitAt(0)
	return err
}

// commitAt commits one shard with sh.mu held.
//
//eplog:hotpath
func (sh *shard) commitAt(start float64) (float64, error) {
	e := sh.e
	if sh.inCommit {
		return start, nil
	}
	// Whatever happens below — drain, failure, or nothing to fold — this
	// commit covers every background enqueue up to its end (a FoldPressured
	// may see the shard still full while the fold runs), and wakes writers
	// blocked on the write-behind dirty window so they re-check it (and see
	// any asyncErr a failed background fold left behind).
	defer func() {
		sh.queued.Store(false)
		if sh.commitWake != nil {
			sh.commitWake.Broadcast()
		}
	}()
	// Consume the latched trigger (last latch wins; unlatched commits are
	// manual) and count it.
	cause := sh.cause
	sh.cause = causeManual
	sh.cTrig[cause].Inc()
	// The reentrancy guard must be raised before the flush phase: the
	// flush's drainRound → flushGroup → allocOn chain would otherwise
	// observe !inCommit and start a nested commit, clearing dirty and
	// logStripes and resetting the log cursor out from under this one.
	// With the guard up, a flush that exhausts the SSDs or log devices
	// fails with an error instead of recursing.
	sh.inCommit = true
	defer func() { sh.inCommit = false }()
	// Root span for this commit: a separate tree from the write that may
	// have triggered it, anchored like the latency metrics below so
	// untimed internal commits do not absorb the device-clock backlog.
	spanStart := max(start, e.vnow())
	op := sh.rec.Start(obs.SpanCommit, sh.idx, spanStart, 0, 0)
	op.SetCause(causeNames[cause])
	prevOp := sh.curOp
	opEnd := spanStart
	defer func() {
		sh.curOp = prevOp
		sh.rec.Finish(op, max(opEnd, spanStart))
	}()
	// Drain RAM buffers first so the committed parity covers everything
	// acknowledged so far; the fold phase below depends on the flushed
	// data, so its span starts when the flush completes. Log-stripe
	// flushes forced by the drain nest under the commit's flush phase.
	fl := op.Child(obs.SpanCommitFlush, sh.idx, spanStart, 0, 0)
	sh.curOp = fl //eplog:span-handoff child closed after the flush below
	var flushSpan device.Span
	flushSpan.Reset(start)
	flushErr := sh.flush(&flushSpan)
	fl.Close(max(flushSpan.End(), spanStart))
	sh.curOp = op //eplog:span-handoff root restored; finished by the deferred closure
	if flushErr != nil {
		opEnd = flushSpan.End()
		return flushSpan.End(), flushErr
	}
	var span device.Span
	span.Reset(flushSpan.End())
	if pre := sh.pre; pre != nil {
		// Ran before the lock was taken; the parity writes wait on its reads.
		pf := op.Child(obs.SpanCommitPrefold, sh.idx, spanStart, 0, int64(pre.n))
		pf.Close(max(pre.span.End(), spanStart))
		span.Reset(max(flushSpan.End(), pre.span.End()))
	}

	// Deterministic stripe order keeps runs reproducible. The order slice
	// is shard scratch (commits cannot nest).
	stripes := sh.dirtyOrder[:0]
	for s := range sh.dirty {
		stripes = append(stripes, s)
	}
	slices.Sort(stripes)
	sh.dirtyOrder = stripes

	k := e.geo.K
	code, err := e.code(k)
	if err != nil {
		opEnd = span.End()
		return span.End(), err
	}
	// Fold phase. Only a one-shard engine records the per-device reads and
	// parity writes as I/O leaves; on a sharded one their memory shows in
	// the served stack's RSS (TestFoldLeavesOnlyOnSerialEngine).
	fold := op.Child(obs.SpanCommitFold, sh.idx, max(span.Start(), spanStart), 0, int64(len(stripes)))
	if e.nShards == 1 {
		span.SetRecorder(fold)
	}
	foldErr := sh.foldStripes(&span, code, stripes)
	fold.Close(max(span.End(), spanStart))
	if foldErr != nil {
		// Partial-failure contract: the span's progress (not start) comes
		// back with the error, so replaying callers do not double-count
		// the device work already issued.
		opEnd = span.End()
		return span.End(), foldErr
	}

	// Release superseded versions: every log-stripe member that is no
	// longer the latest version of its LBA, and every committed location
	// that was superseded by an update. All of these chunks belong to
	// this shard's partition (or to the home areas of its own stripes),
	// so the releases never touch another shard's allocator state.
	for _, ls := range sh.logStripes {
		for _, mb := range ls.members {
			if e.loadLatest(mb.lba) != mb.loc {
				sh.releaseLoc(mb.loc)
			}
		}
	}
	for _, s := range stripes {
		for j := 0; j < k; j++ {
			lba := e.geo.LBA(s, j)
			if latest, comm := e.loadLatest(lba), e.loadComm(lba); comm != latest {
				sh.releaseLoc(comm)
				e.storeComm(lba, latest)
			}
			e.storeProt(lba, committed)
		}
		sh.setTrusted(s, true) // its parity encodes the chunks just committed
		sh.metaDirty[s] = struct{}{}
	}

	// The shard's log region is now free end to end. Every latestProt
	// entry for the folded stripes was reset to committed above, so no
	// reference to a log stripe survives and the structs can be recycled.
	for _, ls := range sh.logStripes {
		sh.putLogStripe(ls)
	}
	clear(sh.logStripes)
	sh.logCursor = sh.logStart
	sh.publishFill()
	clear(sh.dirty)
	sh.ready.reset() // chunks were released: no slot's locations may be trusted
	sh.reqSinceCommit = 0
	sh.stats.Commits++

	end, foldStart, flushEnd := span.End(), span.Start(), flushSpan.End()
	// Anchor the phase latencies to when the commit could actually begin:
	// untimed internal commits (start 0) inherit the device-clock backlog
	// in their spans, which would otherwise swamp the histograms.
	obsStart := max(start, e.vnow())
	e.bumpVnow(end)
	e.mCommitFlushLat.Observe(max(flushEnd-obsStart, 0))
	e.mCommitFoldLat.Observe(max(end-max(foldStart, obsStart), 0))
	e.mCommitLat.Observe(max(end-obsStart, 0))
	opEnd = end
	return end, nil
}

// foldStripes is the commit's fold phase: for every dirty stripe it reads
// the k latest data chunks, re-encodes the parity, and writes it to the
// stripe's home locations, in stripe order on the caller's span with the
// shard's scratch shard table — a commit allocates nothing. A stripe whose
// foldReady slot or entry in the committer's prefold (sh.pre) still holds
// skips the first half.
//
//eplog:hotpath
func (sh *shard) foldStripes(span *device.Span, code *erasure.Code, stripes []int64) error {
	e := sh.e
	k, m := e.geo.K, e.geo.M()
	sh.foldShards = grow(sh.foldShards, k+m)
	shards := bufpool.Default.GetSlices(sh.foldShards, e.csize)
	defer bufpool.Default.PutSlices(shards)
	pre, next, tab := sh.pre, 0, e.devTab.Load()
	devs := *tab
	if pre != nil {
		sh.stats.CommitReadChunks += pre.reads // used or wasted, the SSDs served them
		if pre.commits != sh.stats.Commits || pre.devs != tab {
			next = pre.n // chunks were released, or a device swapped, under the reads
			e.cPrefoldStale.Add(int64(pre.n))
		}
	}
	for _, s := range stripes {
		// No commit since the snapshot, so dirty only grew: the table's
		// stripes are a subsequence of stripes and one cursor pairs them.
		preAt := -1
		if pre != nil && next < pre.n && pre.stripes[next] == s {
			preAt, next = next, next+1
		}
		// Parity sources in order: the write-time slot, the prefold's entry
		// (uncounted when a slot shadows it), and reading under the lock.
		var parity [][]byte
		if slot, ok := sh.ready.slotOf(s); ok {
			if e.latestAre(s, sh.ready.locs[slot*k:(slot+1)*k]) {
				parity = sh.ready.parity[slot*m : (slot+1)*m]
				e.cFoldReadyStripes.Inc()
			} else {
				e.cFoldReadyStale.Inc()
			}
		}
		if parity == nil && preAt >= 0 {
			// A delta entry also needs the home parity it started from: a
			// commit that failed since the snapshot (stats.Commits counts
			// none) may have written over it, and cleared the bit first.
			if e.latestAre(s, pre.locs[preAt*k:(preAt+1)*k]) && (!pre.delta[preAt] || sh.isTrusted(s)) {
				parity = pre.parity[preAt*m : (preAt+1)*m]
				e.cPrefoldStripes.Inc()
			} else {
				e.cPrefoldStale.Inc()
			}
		}
		if parity == nil {
			parity = shards[k:]
			reads, err := e.foldEncode(span, code, s, shards, nil, nil)
			sh.stats.CommitReadChunks += reads
			if err != nil {
				return err
			}
		}
		// From the first parity write until the commit's bookkeeping, the
		// home parity encodes neither the committed chunks nor, if a write
		// fails, any one set of chunks.
		sh.setTrusted(s, false)
		for p, buf := range parity {
			if err := tolerantWrite(span, devs[e.geo.ParityDev(s, p)], e.geo.HomeChunk(s), buf); err != nil {
				return err // a failed parity device is restored later by Rebuild
			}
			sh.stats.ParityWriteChunks++
			sh.stats.CommitWriteChunks++
		}
	}
	return nil
}

// latestAre reports whether locs are still the latest locations of stripe
// s's k chunks. No-overwrite means a location's bytes change only after a
// commit releases it, so parity encoded from the chunks at locs — at write
// time or by the prefold — is then the stripe's parity.
//
//eplog:hotpath
func (e *EPLog) latestAre(s int64, locs []Loc) bool {
	for j, loc := range locs {
		if e.loadLatest(e.geo.LBA(s, j)) != loc {
			return false
		}
	}
	return true
}

// foldEncode is the read-and-encode half of one stripe's fold: the k latest
// data chunks into shards[:k], their parity into shards[k:]. With locs and
// devs nil the shard lock is held and the reads go through readLBA, which
// decodes a chunk on a failed SSD. The prefold holds none: it reads the
// latest locations it loaded into locs from devs (the table it snapshotted)
// and stops at any device error. reads is the count issued, even on error.
//
//eplog:hotpath
func (e *EPLog) foldEncode(sp *device.Span, code *erasure.Code, s int64, shards [][]byte, locs []Loc, devs []device.Dev) (reads int64, err error) {
	for j := 0; j < e.geo.K; j++ {
		if locs == nil {
			_, err = e.readLBA(sp, e.geo.LBA(s, j), shards[j])
		} else {
			err = sp.Read(devs[locs[j].Dev], locs[j].Chunk, shards[j])
		}
		if err != nil {
			return reads, err
		}
		reads++
	}
	return reads, code.Encode(shards)
}

// prefoldCap bounds the stripes one prefold covers, and so the table's
// memory; a shard with more dirty stripes folds the rest under its lock.
const prefoldCap = 256

// prefold is the group committer's parity table: the read-and-encode half
// of one shard's fold, run before the committer takes that shard's lock
// (DESIGN.md §9). Each stripe is folded by one of two rules: re-encode
// reads its k latest chunks; the delta rule, open to a trusted stripe with
// c changed chunks, reads its m home parity chunks and the committed and
// latest versions of the c. The rule that reads fewer chunks is tried
// first (delta when m+2c <= k); if its reads meet a failed SSD the other is
// tried — the delta rule then even when m+2c > k, since it skips the
// unchanged chunks re-encode needed — and a stripe both rules need the
// failed SSD for is left out of the table and folded, degraded, under the
// lock. The prefold never reconstructs and reads no log device. The table
// stays compact: entry i is the i-th folded stripe. foldStripes publishes
// entry i if the shard has not committed since the snapshot and the
// stripe's k latest locations are the ones read — no-overwrite means a
// location's bytes change only after a commit releases it — and, for a
// delta entry, the stripe is still trusted. Allocated once — the served
// process runs no GC cycle in a benchmark window, so per-commit buffers
// would all stay resident.
type prefold struct {
	commits int64         // the shard's stats.Commits at the snapshot
	devs    *[]device.Dev // the device table at the snapshot: what the reads went to
	stripes []int64       // the folded stripes, ascending: stripes[:n] (the dirty ones at the snapshot until run compacts it)
	comm    []Loc         // the k committed locations, per dirty stripe, at the snapshot
	trusted []bool        // per dirty stripe, its trust bit at the snapshot
	n       int           // entries folded: stripes[:n]
	delta   []bool        // per entry, whether the delta rule folded it
	locs    []Loc         // the k latest locations, per entry, loaded after the snapshot
	parity  [][]byte      // the m parity chunks, per entry (then the k read buffers)
	shards  [][]byte      // the read buffers and the m headers of the stripe being encoded
	reads   int64         // chunk reads issued
	span    device.Span   // their virtual time
}

// foldTableCap is the stripes a prefold or foldReady table holds: one
// shard's stripes, at most prefoldCap.
func (e *EPLog) foldTableCap() int {
	ns := int64(e.nShards)
	return int(min((e.geo.Stripes+ns-1)/ns, prefoldCap))
}

func newPrefold(e *EPLog) *prefold {
	k, m, n := e.geo.K, e.geo.M(), e.foldTableCap()
	p := &prefold{
		stripes: make([]int64, 0, n),
		comm:    make([]Loc, n*k),
		trusted: make([]bool, n),
		delta:   make([]bool, n),
		locs:    make([]Loc, n*k),
		parity:  make([][]byte, n*m+k),
		shards:  make([][]byte, k+m),
	}
	buf := make([]byte, len(p.parity)*e.csize)
	for i := range p.parity {
		p.parity[i] = buf[i*e.csize : (i+1)*e.csize]
	}
	copy(p.shards, p.parity[n*m:])
	return p
}

// run fills the table for sh; only the snapshot takes its lock, shared.
//
//eplog:hotpath
func (p *prefold) run(sh *shard) {
	e := sh.e
	k, m := e.geo.K, e.geo.M()
	p.n, p.reads = 0, 0
	p.span.Reset(0)
	sh.mu.RLock()
	p.commits = sh.stats.Commits
	p.devs = e.devTab.Load()
	p.stripes = p.stripes[:0]
	for s := range sh.dirty {
		if len(p.stripes) == cap(p.stripes) {
			break
		}
		if _, ok := sh.ready.slotOf(s); !ok { // a stale slot folds under the lock
			p.stripes = append(p.stripes, s)
		}
	}
	slices.Sort(p.stripes)
	for i, s := range p.stripes {
		for j := 0; j < k; j++ {
			p.comm[i*k+j] = e.loadComm(e.geo.LBA(s, j))
		}
		p.trusted[i] = sh.isTrusted(s)
	}
	sh.mu.RUnlock()
	code, err := e.code(k)
	if err != nil {
		return
	}
	var deltas int64
	// Dirty stripe i fills entry n <= i, so the entries it overwrites
	// belong to stripes already folded or left out.
	for i, s := range p.stripes {
		n := p.n
		locs, comm, parity := p.locs[n*k:(n+1)*k], p.comm[i*k:(i+1)*k], p.parity[n*m:(n+1)*m]
		changed := 0
		for j := range locs {
			locs[j] = e.loadLatest(e.geo.LBA(s, j))
			if locs[j] != comm[j] {
				changed++
			}
		}
		delta, err := p.foldStripe(e, code, s, locs, comm, parity, p.trusted[i], changed)
		if errors.Is(err, device.ErrFailed) {
			continue // both rules need the failed SSD: the stripe folds under the lock
		}
		if err != nil {
			break
		}
		p.stripes[n], p.delta[n] = s, delta
		p.n++
		if delta {
			deltas++
		}
	}
	p.stripes = p.stripes[:p.n]
	e.cPrefoldDelta.Add(deltas)
}

// foldStripe folds stripe s, with changed of its chunks moved since the
// snapshot, into parity by the rule that reads fewer chunks — the delta
// rule when the stripe is trusted and m+2·changed <= k — and, when that
// rule's reads meet a failed SSD, by the other one, which for the delta
// rule needs the stripe trusted. It reports whether the delta rule produced
// the entry; an error is the last rule's.
//
//eplog:hotpath
func (p *prefold) foldStripe(e *EPLog, code *erasure.Code, s int64, locs, comm []Loc, parity [][]byte, trusted bool, changed int) (delta bool, err error) {
	delta = trusted && e.geo.M()+2*changed <= e.geo.K
	for tries := 0; ; tries++ {
		var reads int64
		if delta {
			reads, err = p.foldDelta(e, code, s, locs, comm, parity)
		} else {
			copy(p.shards[e.geo.K:], parity)
			reads, err = e.foldEncode(&p.span, code, s, p.shards, locs, *p.devs)
		}
		p.reads += reads
		if !errors.Is(err, device.ErrFailed) {
			return delta, err
		}
		p.span.ClearErr() // the span records a failed read until cleared
		if tries == 1 || !trusted {
			return delta, err
		}
		delta = !delta
	}
}

// foldDelta is the prefold's delta rule for stripe s: its m home parity
// chunks into parity, then for each chunk j whose latest location differs
// from its committed one, parity ^= G[·][j]·(committed ⊕ latest). By
// linearity that is the encode of the latest chunks when the home parity
// is the encode of the committed ones — when s is trusted. It reads through
// the snapshotted device table into the first two read buffers, stops at
// any device error, and returns the reads issued.
//
//eplog:hotpath
func (p *prefold) foldDelta(e *EPLog, code *erasure.Code, s int64, locs, comm []Loc, parity [][]byte) (reads int64, err error) {
	devs, home := *p.devs, e.geo.HomeChunk(s)
	for q, buf := range parity {
		if err = p.span.Read(devs[e.geo.ParityDev(s, q)], home, buf); err != nil {
			return reads, err
		}
		reads++
	}
	old, cur := p.shards[0], p.shards[1]
	for j, loc := range locs {
		if loc == comm[j] {
			continue
		}
		if err = p.span.Read(devs[comm[j].Dev], comm[j].Chunk, old); err != nil {
			return reads, err
		}
		reads++
		if err = p.span.Read(devs[loc.Dev], loc.Chunk, cur); err != nil {
			return reads, err
		}
		reads++
		gf.XORSlice(cur, old)
		if err = code.UpdateParity(j, old, parity); err != nil {
			return reads, err
		}
	}
	return reads, nil
}

// isTrusted reports whether stripe s's home parity is the encode of its
// committed chunks (DESIGN.md §5 invariant 7). Every fold and every direct
// stripe write sets the bit; a fold clears it ahead of its parity writes, so
// a torn or failed one leaves it clear. A new or restored engine trusts no
// stripe: a torn publish before the checkpoint it restores from would
// otherwise be carried forward by every delta. sh owns s; sh.mu is held,
// shared at least.
//
//eplog:hotpath
func (sh *shard) isTrusted(s int64) bool {
	i := s / int64(sh.e.nShards)
	return sh.trusted[i/64]&(1<<(i%64)) != 0
}

// setTrusted sets or clears stripe s's trust bit; sh.mu is held exclusively.
//
//eplog:hotpath
func (sh *shard) setTrusted(s int64, ok bool) {
	i := s / int64(sh.e.nShards)
	if ok {
		sh.trusted[i/64] |= 1 << (i % 64)
	} else {
		sh.trusted[i/64] &^= 1 << (i % 64)
	}
}

// foldReady is a shard's write-time parity table (DESIGN.md §9), the first
// of the fold's three parity sources. A whole-stripe request flushes as its
// own log stripe, k′ = k with its members in slot order, so the log chunks
// flushGroup encodes are the stripe's new parity:
// they go straight into a slot here, and the k locations written with
// them. foldStripes publishes a slot whose locations are all still the
// latest — the prefold's check — and the prefold skips stripes that have
// one. The table is dropped at every commit, the only place chunks are
// released. Allocated on the first whole stripe and a slot's parity on its
// first use; a shard with more whole stripes pending than slots flushes
// the rest through the arena, and its fold reads them.
type foldReady struct {
	at     map[int64]int // stripe -> its slot
	n      int           // slots in use
	locs   []Loc         // the k member locations, per slot
	parity [][]byte      // the m parity chunks, per slot
}

func newFoldReady(e *EPLog, slots int) *foldReady {
	return &foldReady{
		at:     make(map[int64]int, slots),
		locs:   make([]Loc, slots*e.geo.K),
		parity: make([][]byte, slots*e.geo.M()),
	}
}

// claimReady returns the foldReady slot a flushing group's log chunks are
// encoded into — the stripe's own if it has one, else the next free — and
// its parity buffers, which are nil unless the group is a whole stripe in
// slot order and a slot is free.
//
//eplog:hotpath
func (sh *shard) claimReady(group []pendingChunk) (stripe int64, slot int, parity [][]byte) {
	e := sh.e
	k, m := e.geo.K, e.geo.M()
	stripe, j := e.geo.Stripe(group[0].lba)
	if len(group) != k || j != 0 {
		return 0, 0, nil
	}
	for i, c := range group {
		if c.lba != group[0].lba+int64(i) {
			return 0, 0, nil
		}
	}
	if sh.ready == nil {
		sh.ready = newFoldReady(e, e.foldTableCap())
	}
	r := sh.ready
	slot, ok := r.at[stripe]
	if !ok {
		if r.n == len(r.parity)/m {
			return 0, 0, nil
		}
		slot, r.n = r.n, r.n+1
		r.at[stripe] = slot
	}
	return stripe, slot, r.slotParity(slot, m, e.csize)
}

// slotParity returns a slot's m parity buffers, allocated on its first use.
func (r *foldReady) slotParity(slot, m, csize int) [][]byte {
	parity := r.parity[slot*m : (slot+1)*m]
	if parity[0] == nil {
		buf := make([]byte, m*csize)
		for p := range parity {
			parity[p] = buf[p*csize : (p+1)*csize]
		}
	}
	return parity
}

// record stores the locations a slot's parity was encoded for.
func (r *foldReady) record(slot int, members []member) {
	for j, mb := range members {
		r.locs[slot*len(members)+j] = mb.loc
	}
}

// slotOf returns stripe s's slot, if it has one. Nil-safe.
func (r *foldReady) slotOf(s int64) (int, bool) {
	if r == nil {
		return 0, false
	}
	slot, ok := r.at[s]
	return slot, ok
}

// reset empties the table, keeping its buffers. Nil-safe.
func (r *foldReady) reset() {
	if r != nil {
		clear(r.at)
		r.n = 0
	}
}

// releaseLoc returns a superseded chunk to its device's free pool,
// optionally trimming it on the SSD.
//
//eplog:hotpath
func (sh *shard) releaseLoc(l Loc) {
	sh.alloc[l.Dev].release(l.Chunk)
	if sh.e.cfg.TrimOnCommit {
		// Best effort: a failed device cannot be trimmed, which is fine
		// because its contents are rebuilt wholesale.
		_ = sh.e.devs()[l.Dev].Trim(l.Chunk, 1)
	}
}

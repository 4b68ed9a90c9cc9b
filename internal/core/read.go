package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// ReadChunks implements store.Store. Reads return the latest acknowledged
// contents: buffered chunks come straight from memory, and chunks on
// failed devices are reconstructed through whichever stripe protects their
// latest version — the data stripe (committed) or a log stripe (pending).
//
// The call is a batch of one on the caller's stack (see batch.go), served
// by readGroup over every shard the request touches, so a multi-stripe
// read keeps its whole-request snapshot and the steady state allocates
// nothing.
func (e *EPLog) ReadChunks(start float64, lba int64, p []byte) (float64, error) {
	_, set, err := e.classify(lba, len(p))
	if err != nil {
		return start, err
	}
	ops := [1]ReadOp{{LBA: lba, Buf: p, Start: start}}
	var spans [1]device.Span
	e.readGroup(set, ops[:], []int{0}, spans[:])
	return ops[0].End, ops[0].Err
}

// readGroup is the read executor: it serves ops[idxs], whose stripes all
// belong to the shards in set, under one snapshot of those shards. On an
// engine without RAM buffers it first tries the lock-free pass — a read
// overlapping no writer never touches a shard lock, so clean reads cannot
// contend with writers on other stripes of the same shard, and a committed
// chunk on a failed SSD is decoded inside that pass. Any overlap with a
// writer, any buffered state, any device error but a failed SSD, or a lost
// chunk protected by a log stripe redoes the group under the shards' locks.
// spans is the per-op device-span table parallel to ops; the group touches
// only its own ops' entries, so concurrent groups share it safely.
func (e *EPLog) readGroup(set shardSet, ops []ReadOp, idxs []int, spans []device.Span) {
	if !e.fastReads || !e.readGroupFast(set, ops, idxs, spans) {
		e.lockSet(set)
		e.cReadBatchLocked.Inc()
		for _, i := range idxs {
			op, sp := &ops[i], &spans[i]
			sp.Reset(op.Start)
			for off := 0; off < len(op.Buf) && op.Err == nil; off += e.csize {
				var decoded bool
				decoded, op.Err = e.readLBA(sp, op.LBA+int64(off/e.csize), op.Buf[off:off+e.csize])
				if decoded && op.Err == nil {
					e.mDegradedReads.Inc()
				}
			}
			// Partial-failure contract: the span's progress (not start)
			// comes back with an error, covering the reads already issued.
			op.End = sp.End()
		}
		e.unlockSet(set)
	}
	// The envelopes are recorded after the snapshot is released: the
	// recorder is internally locked and the times are explicit, so the
	// trees are the same and the locks are held for the device work only.
	for _, i := range idxs {
		if ops[i].Err == nil {
			e.finishRead(&ops[i])
		}
	}
}

// readGroupFast is the optimistic lock-free pass: epoch-validated
// (seqlock) and never taking a shard lock. It samples the set's epochs
// (an odd epoch means a writer is inside its critical section — give up
// immediately), reads every chunk through the packed atomic location
// words, and re-validates that no sampled epoch moved. A changed epoch
// means a writer overlapped the pass and may have relocated or released a
// chunk mid-flight, so the buffer contents are untrusted: the pass reports
// false and the caller redoes the group under the locks. One sample and
// one validation cover the whole group — every op of a batch group, every
// touched shard of a spanning op — which is both the batching payoff and
// what preserves the cross-chunk snapshot the locked pass provides.
//
// Only called when e.fastReads: no RAM buffers to consult (their maps
// cannot be read without the lock). A chunk whose SSD has failed and whose
// protector is its data stripe is decoded in the pass, from k survivors read
// through the device table the pass loaded (decodeChunk): only exclusive
// holds change home parity, commLoc and latestProt, and each makes the epoch
// odd, so the one validation below covers the decode as it covers a plain
// read (DESIGN.md §7). A chunk protected by a log stripe falls back — the
// log-stripe map needs the lock — as does any other device error. A decode
// is counted in core.degraded_reads only once the pass validates. An
// abandoned pass needs a concurrent writer and leaves no trace; its
// device-clock advance is the same class of nondeterminism concurrent
// callers already accept for lock contention.
//
//eplog:hotpath
//eplog:seqlock-read
func (e *EPLog) readGroupFast(set shardSet, ops []ReadOp, idxs []int, spans []device.Span) bool {
	var stack [8]uint64
	epochs := stack[:0]
	// Epoch order is irrelevant, so the set is walked from its first shard;
	// do-while, because a set is never empty and the protocol (and the
	// seqlock analyzer) needs at least one sample on every path.
	for j := 0; ; j++ {
		ep := e.shards[(set.first+j)%e.nShards].epoch.Load()
		if ep&1 != 0 {
			return false
		}
		epochs = append(epochs, ep)
		if j == set.n-1 {
			break
		}
	}
	devs := e.devs()
	var decoded int64
	for _, i := range idxs {
		op, sp := &ops[i], &spans[i]
		sp.Reset(op.Start)
		for off := 0; off < len(op.Buf); off += e.csize {
			lba, out := op.LBA+int64(off/e.csize), op.Buf[off:off+e.csize]
			loc := e.loadLatest(lba)
			if err := sp.Read(devs[loc.Dev], loc.Chunk, out); err != nil {
				if !errors.Is(err, device.ErrFailed) || e.loadProt(lba) != committed {
					return false
				}
				sp.ClearErr()
				if e.decodeChunk(sp, devs, lba, out) != nil {
					return false
				}
				decoded++
			}
		}
	}
	for j := 0; ; j++ {
		if e.shards[(set.first+j)%e.nShards].epoch.Load() != epochs[j] {
			return false
		}
		if j == set.n-1 {
			break
		}
	}
	if decoded > 0 { // a clean pass touches no shared counter
		e.mDegradedReads.Add(decoded)
	}
	for _, i := range idxs {
		ops[i].End = spans[i].End()
	}
	return true
}

// lockSet takes the shared lock of every shard in set, in ascending index
// order, each counted in ReadLockAcquisitions.
//
//eplog:lockall
func (e *EPLog) lockSet(set shardSet) {
	for i, sh := range e.shards {
		if set.has(i, e.nShards) {
			sh.mu.RLock()
			e.readLockAcqs.Add(1)
			e.cReadLocks.Inc()
		}
	}
}

//eplog:lockall
func (e *EPLog) unlockSet(set shardSet) {
	for i, sh := range e.shards {
		if set.has(i, e.nShards) {
			sh.mu.RUnlock()
		}
	}
}

// finishRead is the read completion envelope of one successful op: latency
// observation and SpanRead root.
func (e *EPLog) finishRead(op *ReadOp) {
	nChunks := int64(len(op.Buf) / e.csize)
	e.bumpVnow(op.End)
	e.mReadLat.Observe(op.End - op.Start)
	rsh := e.shardOfLBA(op.LBA)
	root := rsh.rec.Start(obs.SpanRead, rsh.idx, op.Start, op.LBA, nChunks)
	rsh.rec.Finish(root, op.End)
}

// readLBA reads the latest contents of one logical chunk, and reports
// whether its SSD had failed and it was decoded. The lock of the shard
// owning the LBA's stripe must be held (shared suffices).
func (e *EPLog) readLBA(span *device.Span, lba int64, out []byte) (decoded bool, err error) {
	sh := e.shardOfLBA(lba)
	// Pending writes in memory win.
	if sh.devBufs != nil {
		dev := e.loadLatest(lba).Dev
		if data, ok := sh.devBufs[dev].get(lba); ok {
			copy(out, data)
			return false, nil
		}
	}
	if sh.stripeBuf != nil {
		s, _ := e.geo.Stripe(lba)
		if data, ok := sh.stripeBuf.peek(s, lba); ok {
			copy(out, data)
			return false, nil
		}
	}

	devs := e.devs()
	loc := e.loadLatest(lba)
	err = span.Read(devs[loc.Dev], loc.Chunk, out)
	if err == nil {
		return false, nil
	}
	if !errors.Is(err, device.ErrFailed) {
		return false, err
	}
	span.ClearErr()
	return true, e.degradedRead(span, devs, lba, out)
}

// degradedRead reconstructs the latest version of an LBA whose device has
// failed, through whichever stripe protects it; the shard lock is held.
func (e *EPLog) degradedRead(span *device.Span, devs []device.Dev, lba int64, out []byte) error {
	if prot := e.loadProt(lba); prot != committed {
		ls, ok := e.shardOfLBA(lba).logStripes[prot]
		if !ok {
			return fmt.Errorf("core: protector log stripe %d missing for lba %d", prot, lba)
		}
		shard, err := e.decodeLogStripe(span, ls, lba)
		if err != nil {
			return err
		}
		copy(out, shard)
		bufpool.Default.Put(shard)
		return nil
	}
	return e.decodeChunk(span, devs, lba, out)
}

// decodeChunk decodes the committed version of lba from its data stripe
// into out, reading through devs. The locked read pass calls it with the
// shard lock held, readGroupFast with none, under its epoch validation.
func (e *EPLog) decodeChunk(span *device.Span, devs []device.Dev, lba int64, out []byte) error {
	s, slot := e.geo.Stripe(lba)
	t, err := e.decodeCommitted(span, devs, s)
	if err != nil {
		return err
	}
	copy(out, t.shards[slot])
	t.put()
	return nil
}

// decodeTable is a decode's k+m shard-header table. Pooled, not shard
// scratch: degraded reads decode under the shared lock or in the lock-free
// pass, several at once.
type decodeTable struct{ shards [][]byte }

var decodePool = sync.Pool{New: func() any { return new(decodeTable) }}

// getDecodeTable returns a table of n nil headers.
func getDecodeTable(n int) *decodeTable {
	t := decodePool.Get().(*decodeTable)
	t.shards = grow(t.shards, n)
	clear(t.shards)
	return t
}

// put returns every buffer still in the table to the arena (which nils the
// entries) and the table to the pool.
func (t *decodeTable) put() {
	bufpool.Default.PutSlices(t.shards)
	decodePool.Put(t)
}

// readSurvivor reads one chunk of a stripe being decoded into an arena
// buffer at shards[i]; a failed device leaves the slot nil — an erasure
// for ReconstructData.
func (e *EPLog) readSurvivor(span *device.Span, shards [][]byte, i int, dev device.Dev, chunk int64) error {
	buf := bufpool.Default.Get(e.csize)
	if err := span.Read(dev, chunk, buf); err != nil {
		bufpool.Default.Put(buf)
		if !errors.Is(err, device.ErrFailed) {
			return err
		}
		span.ClearErr()
		return nil
	}
	shards[i] = buf
	return nil
}

// decodeLogStripe reconstructs the version of wantLBA protected by log
// stripe ls, reading the surviving members from the SSDs and the log
// chunks from the log devices. The returned shard is an arena buffer the
// caller must Put once its contents are consumed; every other buffer is
// returned internally.
func (e *EPLog) decodeLogStripe(span *device.Span, ls *logStripe, wantLBA int64) ([]byte, error) {
	kPrime, m := len(ls.members), e.geo.M()
	t := getDecodeTable(kPrime + m)
	defer t.put()
	shards, devs := t.shards, e.devs()
	want := -1
	for i, mb := range ls.members {
		if mb.lba == wantLBA {
			want = i
		}
		if err := e.readSurvivor(span, shards, i, devs[mb.loc.Dev], mb.loc.Chunk); err != nil {
			return nil, err
		}
	}
	if want < 0 {
		return nil, fmt.Errorf("core: lba %d not a member of log stripe %d", wantLBA, ls.id)
	}
	for i := 0; i < m; i++ {
		if err := e.readSurvivor(span, shards, kPrime+i, e.logDevs[i], ls.logPos); err != nil {
			return nil, err
		}
	}
	code, err := e.code(kPrime)
	if err != nil {
		return nil, err
	}
	if err := code.ReconstructData(shards); err != nil {
		return nil, fmt.Errorf("%w: log stripe %d: %v", ErrTooManyFailures, ls.id, err)
	}
	out := shards[want]
	shards[want] = nil
	return out, nil
}

// decodeCommitted reconstructs the committed contents of every data slot
// of a stripe from its committed chunks and home parity, read through devs
// in slot order — data, then parity — until k have survived: k reads when
// no data chunk is lost, and at most k+1 attempts with one SSD failed. It is
// the one decoder of a data stripe: the locked read pass, the lock-free one
// and Rebuild all use it. It returns the full k+m shard table: the data
// slots [0,k) are all populated with arena buffers, the parity slots hold
// whatever parity was read (possibly nil). The caller owns the table and
// every buffer in it, and returns them with put.
func (e *EPLog) decodeCommitted(span *device.Span, devs []device.Dev, stripe int64) (*decodeTable, error) {
	k, m := e.geo.K, e.geo.M()
	home := e.geo.HomeChunk(stripe)
	t := getDecodeTable(k + m)
	shards := t.shards
	err := func() error {
		for i, have := 0, 0; i < k+m && have < k; i++ {
			var loc Loc
			if i < k {
				loc = e.loadComm(e.geo.LBA(stripe, i))
			} else {
				loc = Loc{Dev: e.geo.ParityDev(stripe, i-k), Chunk: home}
			}
			if err := e.readSurvivor(span, shards, i, devs[loc.Dev], loc.Chunk); err != nil {
				return err
			}
			if shards[i] != nil {
				have++
			}
		}
		code, err := e.code(k)
		if err != nil {
			return err
		}
		if err := code.ReconstructData(shards); err != nil {
			return fmt.Errorf("%w: stripe %d: %v", ErrTooManyFailures, stripe, err)
		}
		return nil
	}()
	if err != nil {
		t.put()
		return nil, err
	}
	return t, nil
}

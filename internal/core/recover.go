package core

import (
	"fmt"
	"slices"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/erasure"
	"github.com/eplog/eplog/internal/obs"
)

// Rebuild reconstructs every chunk of a failed main-array SSD onto a
// replacement device and swaps it in. Committed versions are decoded from
// their data stripes; pending versions are decoded from their log stripes
// (which reads the log devices — the only time EPLog does). All location
// metadata stays valid because the replacement inherits the device index
// and chunk numbering.
func (e *EPLog) Rebuild(devIdx int, replacement device.Dev) error {
	// Whole-array operation: stop the world by taking every shard lock.
	e.lockAll()
	defer e.unlockAll()
	if devIdx < 0 || devIdx >= e.geo.N {
		return fmt.Errorf("core: device index %d out of range", devIdx)
	}
	if replacement.ChunkSize() != e.csize || replacement.Chunks() < e.devs()[devIdx].Chunks() {
		return fmt.Errorf("core: replacement geometry mismatch")
	}
	// The replacement stays in the device table, where every device is
	// lock-wrapped.
	replacement = device.NewLocked(replacement)
	span := device.NewSpan(0)
	// Root span for the rebuild (recorded on shard 0: the rebuild is a
	// stop-the-world whole-array operation, not a per-shard one). A
	// one-shard engine records the reconstruction reads and replacement
	// writes as I/O leaves, as it does a fold's.
	op := e.shards[0].rec.Start(obs.SpanRebuild, 0, 0, int64(devIdx), 0)
	defer func() { e.shards[0].rec.Finish(op, span.End()) }()
	if e.nShards == 1 {
		span.SetRecorder(op)
	}
	code, err := e.code(e.geo.K)
	if err != nil {
		return err
	}

	// Committed data and parity, stripe by stripe.
	var written int64
	for s := int64(0); s < e.geo.Stripes; s++ {
		if e.virgin[s] {
			continue // all zeroes; nothing to restore
		}
		n, err := e.rebuildStripe(span, code, s, devIdx, replacement)
		if err != nil {
			return err
		}
		written += n
	}

	// Pending versions written since the last commit (members of one log
	// stripe live on distinct devices, so at most one per stripe is on
	// devIdx).
	for _, sh := range e.shards {
		for _, ls := range sh.logStripes {
			for _, mb := range ls.members {
				if mb.loc.Dev != devIdx {
					continue
				}
				shard, err := e.decodeLogStripe(span, ls, mb.lba)
				if err != nil {
					return err
				}
				err = span.Write(replacement, mb.loc.Chunk, shard)
				bufpool.Default.Put(shard)
				if err != nil {
					return err
				}
				written++
			}
		}
	}

	// Copy-on-write: lock-free readers and a running prefold keep the table
	// they loaded.
	devs := slices.Clone(e.devs())
	devs[devIdx] = replacement
	e.devTab.Store(&devs)
	op.SetN(written)
	return nil
}

// rebuildStripe restores stripe s's committed chunks on devIdx — at most
// one data slot and one parity slot — onto replacement, and returns how
// many it wrote.
func (e *EPLog) rebuildStripe(span *device.Span, code *erasure.Code, s int64, devIdx int, replacement device.Dev) (int64, error) {
	k, m := e.geo.K, e.geo.M()
	dataSlot, paritySlot := -1, -1
	for j := 0; j < k; j++ {
		if e.loadComm(e.geo.LBA(s, j)).Dev == devIdx {
			dataSlot = j
			break
		}
	}
	for p := 0; p < m; p++ {
		if e.geo.ParityDev(s, p) == devIdx {
			paritySlot = p
			break
		}
	}
	if dataSlot < 0 && paritySlot < 0 {
		return 0, nil
	}
	t, err := e.decodeCommitted(span, e.devs(), s)
	if err != nil {
		return 0, err
	}
	defer t.put()
	decoded := t.shards
	var written int64
	if dataSlot >= 0 {
		loc := e.loadComm(e.geo.LBA(s, dataSlot))
		if err := span.Write(replacement, loc.Chunk, decoded[dataSlot]); err != nil {
			return 0, err
		}
		written++
	}
	if paritySlot >= 0 {
		// Re-encode the stripe's parity from the decoded data into fresh
		// arena buffers ([k:] of decoded holds the read — not recomputed —
		// parity).
		shards := make([][]byte, k+m)
		copy(shards, decoded[:k])
		parity := bufpool.Default.GetSlices(shards[k:], e.csize)
		defer bufpool.Default.PutSlices(parity)
		if err := code.Encode(shards); err != nil {
			return 0, err
		}
		if err := span.Write(replacement, e.geo.HomeChunk(s), parity[paritySlot]); err != nil {
			return 0, err
		}
		written++
	}
	return written, nil
}

// RecoverLogDevice replaces a failed log device. Because parity commit
// never reads the log devices, the recovery is simply a commit (making all
// log chunks unnecessary) followed by the swap.
func (e *EPLog) RecoverLogDevice(dim int, replacement device.Dev) error {
	// Whole-array operation: stop the world by taking every shard lock.
	e.lockAll()
	defer e.unlockAll()
	if dim < 0 || dim >= e.geo.M() {
		return fmt.Errorf("core: log device index %d out of range", dim)
	}
	if replacement.ChunkSize() != e.csize {
		return fmt.Errorf("core: replacement chunk size mismatch")
	}
	for _, sh := range e.shards {
		if err := sh.commit(); err != nil {
			return err
		}
	}
	e.logDevs[dim] = device.NewLocked(replacement)
	return nil
}

package core

import (
	"fmt"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/device"
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
	if replacement.ChunkSize() != e.csize || replacement.Chunks() < e.devs[devIdx].Chunks() {
		return fmt.Errorf("core: replacement geometry mismatch")
	}
	if e.shared {
		// The rebuild tasks below share the replacement across pool
		// goroutines, and it stays in e.devs afterwards — where the
		// sharded engine requires lock-wrapped devices.
		replacement = device.NewLocked(replacement)
	}
	span := device.NewSpan(0)
	// Root span for the rebuild (recorded on shard 0: the rebuild is a
	// stop-the-world whole-array operation, not a per-shard one). Serial
	// rebuilds record the reconstruction reads and replacement writes as
	// I/O leaves.
	op := e.shards[0].rec.Start(obs.SpanRebuild, 0, 0, int64(devIdx), 0)
	defer func() { e.shards[0].rec.Finish(op, span.End()) }()
	if e.workers <= 1 {
		span.SetRecorder(op)
	}
	k, m := e.geo.K, e.geo.M()
	code, err := e.code(k)
	if err != nil {
		return err
	}

	// Committed data and parity, one pool task per affected stripe; each
	// stripe decodes and writes independently. Per-task write counts are
	// folded after the join.
	var stripes []int64
	for s := int64(0); s < e.geo.Stripes; s++ {
		if e.virgin[s] {
			continue // all zeroes; nothing to restore
		}
		affected := false
		for j := 0; j < k; j++ {
			if e.commLoc[e.geo.LBA(s, j)].Dev == devIdx {
				affected = true
				break
			}
		}
		for i := 0; !affected && i < m; i++ {
			affected = e.geo.ParityDev(s, i) == devIdx
		}
		if affected {
			stripes = append(stripes, s)
		}
	}
	counts := make([]int64, len(stripes))
	tasks := make([]func(*device.Span) error, len(stripes))
	for i, s := range stripes {
		tasks[i] = func(sp *device.Span) error {
			home := e.geo.HomeChunk(s)
			// The one data slot of this stripe on devIdx, if any.
			dataSlot := -1
			for j := 0; j < k; j++ {
				if e.commLoc[e.geo.LBA(s, j)].Dev == devIdx {
					dataSlot = j
					break
				}
			}
			paritySlot := -1
			for p := 0; p < m; p++ {
				if e.geo.ParityDev(s, p) == devIdx {
					paritySlot = p
					break
				}
			}
			decoded, err := e.decodeCommitted(sp, s)
			if err != nil {
				return err
			}
			defer bufpool.Default.PutSlices(decoded)
			if dataSlot >= 0 {
				loc := e.commLoc[e.geo.LBA(s, dataSlot)]
				if err := replacement.WriteChunk(loc.Chunk, decoded[dataSlot]); err != nil {
					return err
				}
				counts[i]++
			}
			if paritySlot >= 0 {
				// Re-encode the stripe's parity from the decoded data into
				// fresh arena buffers ([k:] of decoded holds the read — not
				// recomputed — parity).
				shards := make([][]byte, k+m)
				copy(shards, decoded[:k])
				parity := bufpool.Default.GetSlices(shards[k:], e.csize)
				defer bufpool.Default.PutSlices(parity)
				if err := code.Encode(shards); err != nil {
					return err
				}
				if err := replacement.WriteChunk(home, parity[paritySlot]); err != nil {
					return err
				}
				counts[i]++
			}
			return nil
		}
	}
	if err := e.fanOut(span, tasks); err != nil {
		return err
	}
	var written int64
	for _, c := range counts {
		written += c
	}

	// Pending versions written since the last commit, one task per
	// affected log-stripe member (members of one log stripe live on
	// distinct devices, so at most one per stripe is on devIdx).
	type pendingMember struct {
		ls *logStripe
		mb member
	}
	var pend []pendingMember
	for _, sh := range e.shards {
		for _, ls := range sh.logStripes {
			for _, mb := range ls.members {
				if mb.loc.Dev == devIdx {
					pend = append(pend, pendingMember{ls: ls, mb: mb})
				}
			}
		}
	}
	ptasks := make([]func(*device.Span) error, len(pend))
	for i, pm := range pend {
		ptasks[i] = func(sp *device.Span) error {
			shard, err := e.decodeLogStripe(sp, pm.ls, pm.mb.lba)
			if err != nil {
				return err
			}
			err = replacement.WriteChunk(pm.mb.loc.Chunk, shard)
			bufpool.Default.Put(shard)
			return err
		}
	}
	if err := e.fanOut(span, ptasks); err != nil {
		return err
	}
	written += int64(len(pend))

	e.devs[devIdx] = replacement
	e.obs.Emit(obs.Event{Kind: obs.KindRebuild, Dur: span.End(), Dev: devIdx, N: written})
	return nil
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
	if e.shared {
		replacement = device.NewLocked(replacement)
	}
	e.logDevs[dim] = replacement
	// Aux=1 distinguishes log-device recovery from main-array rebuilds.
	e.obs.Emit(obs.Event{Kind: obs.KindRebuild, Dev: dim, Aux: 1})
	return nil
}

package core

import (
	"slices"

	"github.com/eplog/eplog/internal/bufpool"
)

// Shard-owned scratch. The write and commit hot paths used to allocate
// their grouping slices, shard-header tables and device-membership sets on
// every operation; with the buffer arena (internal/bufpool) supplying the
// chunk payloads, these per-shard structures remove the remaining
// steady-state allocations. Everything here is guarded by the owning
// shard's mu.
//
// flushGroup and updatePath are reentrant — a flush can trigger a parity
// commit whose own flush phase runs updatePath and flushGroup again — so
// their scratch comes from a small stack of frames rather than dedicated
// fields. Recursion depth is bounded (a commit never nests inside a
// commit), so the stack stays at two or three frames for the life of the
// shard. Non-reentrant paths (WriteChunks segmentation, direct stripe
// writes, the commit fold) use dedicated fields on shard.

// opScratch is one frame of reentrancy-safe scratch for the grouping and
// log-flush paths.
type opScratch struct {
	// group accumulates one round's log-stripe members.
	group []pendingChunk
	// rest holds the chunks deferred to later rounds, so grouping never
	// reorders the caller's slice (callers keep it to return arena
	// buffers after the flush).
	rest []pendingChunk
	// taken marks destination devices claimed this round (grouping) or
	// already holding a member (flushGroup's invariant check).
	taken []bool
	// shards is the k'+m shard-header table for log-stripe encoding.
	shards [][]byte
	// writes is the log-stripe flush's per-device write list.
	writes []devWrite
}

// getScratch pops a scratch frame, allocating one on first use at each
// reentrancy depth.
func (sh *shard) getScratch() *opScratch {
	if n := len(sh.scratchFree); n > 0 {
		s := sh.scratchFree[n-1]
		sh.scratchFree = sh.scratchFree[:n-1]
		return s
	}
	return &opScratch{taken: make([]bool, sh.e.geo.N)}
}

// putScratch returns a frame, dropping buffer references so pooled headers
// cannot pin chunk data.
func (sh *shard) putScratch(s *opScratch) {
	clearPending(s.group)
	s.group = s.group[:0]
	clearPending(s.rest[:cap(s.rest)])
	s.rest = s.rest[:0]
	clear(s.shards)
	s.shards = s.shards[:0]
	clear(s.writes)
	s.writes = s.writes[:0]
	sh.scratchFree = append(sh.scratchFree, s)
}

// resetTaken clears the frame's device-set for a new round.
func (s *opScratch) resetTaken() {
	for i := range s.taken {
		s.taken[i] = false
	}
}

// shardTable returns the frame's shard-header table resized to n entries,
// all nil.
func (s *opScratch) shardTable(n int) [][]byte {
	if cap(s.shards) < n {
		s.shards = make([][]byte, n)
	}
	s.shards = s.shards[:n]
	clear(s.shards)
	return s.shards
}

// clearPending nils the data references of a pendingChunk slice.
func clearPending(cs []pendingChunk) {
	for i := range cs {
		cs[i] = pendingChunk{}
	}
}

// putPendingData returns every chunk's arena buffer and clears the
// entries. Only for slices whose data the caller owns (stripe-buffer and
// device-buffer copies), never for chunks referencing a writer's payload.
func putPendingData(cs []pendingChunk) {
	for i := range cs {
		bufpool.Default.Put(cs[i].data)
		cs[i] = pendingChunk{}
	}
}

// getLogStripe pops a recycled logStripe (members emptied) or allocates
// one. Log stripes live from flushGroup until the commit that folds them,
// which returns them via putLogStripe.
func (sh *shard) getLogStripe() *logStripe {
	if n := len(sh.lsFree); n > 0 {
		ls := sh.lsFree[n-1]
		sh.lsFree = sh.lsFree[:n-1]
		return ls
	}
	return &logStripe{}
}

func (sh *shard) putLogStripe(ls *logStripe) {
	ls.members = ls.members[:0]
	ls.id, ls.logPos = 0, 0
	sh.lsFree = append(sh.lsFree, ls)
}

// grow returns s resized to n entries; contents are unspecified. A short
// capacity grows as append does, not to exactly n: these maxima creep (ops
// per group, p.spans), and the served process runs no GC cycle inside a
// benchmark window, so every exact-n step left its dead copy resident.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

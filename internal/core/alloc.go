package core

import (
	"errors"
	"math/bits"

	"github.com/eplog/eplog/internal/obs"
)

// ErrNoSpace is returned when a device has no free chunk for a no-overwrite
// update and a parity commit did not reclaim any.
var ErrNoSpace = errors.New("core: device out of update space")

// allocator hands out free chunks of one SSD for no-overwrite updates,
// always the lowest free chunk its shard owns. Placement therefore depends
// only on the free set: a chunk released by a commit is reused before
// untouched media, so the chunks ever written stay few (the SSD simulator
// keeps pages per logical chunk, so that bounds its memory), and a restored
// engine places exactly as the engine that stopped would have.
type allocator struct {
	free  []uint64 // bit c%64 of word c/64 is set iff chunk c is free
	hint  int      // no word below hint has a free bit
	nFree int64
	// mark is one past the highest headroom chunk handed out, or in use at
	// construction. Lowest-free-first has touched every owned headroom
	// chunk below it, so an allocation at or above it is the chunk's first
	// (touched counts it).
	mark    int64
	touched *obs.Counter
}

// newAllocator builds shard i's allocator over a device of total chunks.
// The shard owns its partitionRange slice of the update headroom and the
// home chunks of its own stripes (its commits release and re-allocate
// them); an owned chunk starts free unless used reports it in use. Chunks
// the shard does not own start allocated.
func (e *EPLog) newAllocator(total int64, i int, used func(c int64) bool) *allocator {
	lo, hi := partitionRange(total, e.geo.Stripes, e.nShards, i)
	a := &allocator{free: make([]uint64, (total+63)/64), mark: lo, touched: e.cUpdateTouched}
	own := func(c int64) {
		if !used(c) {
			a.release(c)
		} else if c >= lo {
			a.mark = c + 1
		}
	}
	for c := int64(i); c < e.geo.Stripes; c += int64(e.nShards) {
		own(c)
	}
	for c := lo; c < hi; c++ {
		own(c)
	}
	return a
}

// alloc returns the lowest free chunk, or ErrNoSpace.
func (a *allocator) alloc() (int64, error) {
	for w := a.hint; w < len(a.free); w++ {
		if x := a.free[w]; x != 0 {
			a.hint = w
			a.free[w] = x & (x - 1)
			a.nFree--
			c := int64(w)<<6 + int64(bits.TrailingZeros64(x))
			if c >= a.mark {
				a.mark = c + 1
				a.touched.Inc()
			}
			return c, nil
		}
	}
	a.hint = len(a.free)
	return 0, ErrNoSpace
}

// release returns a chunk to the free pool.
func (a *allocator) release(c int64) {
	w, b := int(c>>6), uint64(1)<<(c&63)
	if a.free[w]&b == 0 {
		a.free[w] |= b
		a.nFree++
		a.hint = min(a.hint, w)
	}
}

// freeCount returns the number of free chunks.
func (a *allocator) freeCount() int64 { return a.nFree }

// Package erasure implements systematic k-of-n Reed-Solomon erasure coding
// over GF(2^8), the coding module of EPLog. A stripe of k equal-size data
// shards is encoded into m = n-k parity shards such that any k of the n
// shards reconstruct the stripe. Both Cauchy and Vandermonde generator
// constructions are provided; Cauchy is the default, matching the paper's
// use of Cauchy Reed-Solomon codes via Jerasure.
//
// The package also provides incremental parity updates (the read-modify-write
// primitive of conventional RAID) and a Cache for the per-k' codes that
// EPLog's elastic log stripes require.
package erasure

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/gf"
)

// Construction selects how the generator matrix is built.
type Construction int

const (
	// Cauchy builds the parity rows from a Cauchy matrix (default).
	Cauchy Construction = iota + 1
	// Vandermonde builds a systematic generator from an extended
	// Vandermonde matrix.
	Vandermonde
)

// Errors returned by coding operations.
var (
	ErrInvalidShardCount = errors.New("erasure: invalid shard count")
	ErrShardSizeMismatch = errors.New("erasure: shards differ in size")
	ErrTooFewShards      = errors.New("erasure: too few shards to reconstruct")
	ErrShardSize         = errors.New("erasure: empty shard")
)

// Code is a k-of-(k+m) systematic erasure code. Its coding parameters are
// immutable; internal caches make it safe for concurrent use.
type Code struct {
	k int
	m int
	// parity is the m-by-k coefficient matrix: parity row j of a stripe
	// equals sum_i parity[j][i] * data_i.
	parity matrix
	// xorOnly reports that m == 1 and the single parity row is all ones,
	// enabling the pure-XOR fast path (RAID-4/5 parity).
	xorOnly bool

	// views pools k-entry [][]byte scratch (source rows for
	// reconstruction) so the hot paths stay allocation-free.
	views sync.Pool

	// decCache memoizes inverted decode matrices by the present-shard
	// bitmask. A rebuild reconstructs every stripe with the same erasure
	// pattern, so after the first stripe the Gauss-Jordan inversion is a
	// map hit. Only usable when k+m <= 64 bits of mask; larger codes
	// invert cold every time.
	decMu    sync.RWMutex
	decCache map[uint64]matrix
}

// New returns a Code with k data shards and m parity shards using the given
// construction. New returns an error unless k >= 1, m >= 0 and k+m <= 256.
func New(k, m int, c Construction) (*Code, error) {
	if k < 1 || m < 0 || k+m > gf.Order {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrInvalidShardCount, k, m)
	}
	code := &Code{k: k, m: m}
	code.views.New = func() any { s := make([][]byte, k); return &s }
	code.decCache = make(map[uint64]matrix)
	if m == 0 {
		return code, nil
	}
	if m == 1 {
		// A single parity shard is plain XOR (RAID-4/5) under every
		// construction: appending an all-ones row to the identity
		// keeps every k-row submatrix nonsingular, and XOR parity is
		// what the paper's RAID-5 arrays compute.
		row := make([]byte, k)
		for i := range row {
			row[i] = 1
		}
		code.parity = matrix{row}
		code.xorOnly = true
		return code, nil
	}
	switch c {
	case Cauchy:
		code.parity = cauchy(m, k)
	case Vandermonde:
		// Build the (k+m)-by-k Vandermonde generator and normalize its
		// top square to the identity; the bottom m rows become the
		// parity coefficients. Every k-row subset of the result stays
		// nonsingular, preserving the MDS property.
		v := vandermonde(k+m, k)
		top := v.subMatrix(0, k, 0, k)
		topInv, err := top.invert()
		if err != nil {
			return nil, fmt.Errorf("erasure: vandermonde top square singular: %w", err)
		}
		full := v.mul(topInv)
		code.parity = full.subMatrix(k, k+m, 0, k)
	default:
		return nil, fmt.Errorf("erasure: unknown construction %d", c)
	}
	// m == 1 returned above with xorOnly set; multi-parity codes never
	// take the XOR-only path.
	return code, nil
}

// K returns the number of data shards.
func (c *Code) K() int { return c.k }

// M returns the number of parity shards.
func (c *Code) M() int { return c.m }

// N returns the total number of shards (k + m).
func (c *Code) N() int { return c.k + c.m }

// Encode computes the parity shards of a stripe with gf's multi-source
// kernels, one call per parity shard for all k sources: on amd64 that is
// one vector pass per source over the L1-resident parity shard, on the
// portable word tier one fused pass. shards must contain k+m slices of
// identical nonzero length; the first k hold data and the final m are
// overwritten with parity.
//
//eplog:hotpath
func (c *Code) Encode(shards [][]byte) error {
	if err := c.checkShards(shards, false); err != nil {
		return err
	}
	data, parity := shards[:c.k], shards[c.k:]
	if c.xorOnly {
		clear(parity[0])
		gf.XORSlices(data, parity[0])
		return nil
	}
	for j, out := range parity {
		clear(out)
		gf.MulAddSlices(c.parity[j], data, out)
	}
	return nil
}

// getViews borrows a k-entry [][]byte scratch from the per-code pool.
func (c *Code) getViews() *[][]byte { return c.views.Get().(*[][]byte) }

func (c *Code) putViews(v *[][]byte) {
	clear(*v) // drop references so pooled headers don't pin shard data
	c.views.Put(v)
}

// UpdateParity applies an incremental parity update for a single data shard
// change: given the XOR delta of the old and new contents of data shard
// dataIdx, it updates all m parity shards in place. This is the small-write
// (read-modify-write) primitive used by conventional RAID. Every argument is
// checked before any parity shard changes, so an error leaves parity as it
// was.
//
//eplog:hotpath
func (c *Code) UpdateParity(dataIdx int, delta []byte, parity [][]byte) error {
	if dataIdx < 0 || dataIdx >= c.k {
		return fmt.Errorf("%w: data index %d out of range [0,%d)", ErrInvalidShardCount, dataIdx, c.k)
	}
	if len(parity) != c.m {
		return fmt.Errorf("%w: got %d parity shards, want %d", ErrInvalidShardCount, len(parity), c.m)
	}
	for _, p := range parity {
		if len(p) != len(delta) {
			return ErrShardSizeMismatch
		}
	}
	for j, p := range parity {
		gf.MulAddSlice(c.parity[j][dataIdx], delta, p)
	}
	return nil
}

// Reconstruct recomputes every missing shard in place. Missing shards are
// nil entries; present shards must all have the same length. Reconstructed
// shards are allocated by Reconstruct. It returns ErrTooFewShards if fewer
// than k shards are present.
func (c *Code) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, false)
}

// ReconstructData recomputes only the missing data shards, leaving missing
// parity shards nil. It is cheaper than Reconstruct when parity is not
// needed (e.g. a degraded read).
func (c *Code) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, true)
}

func (c *Code) reconstruct(shards [][]byte, dataOnly bool) error {
	if err := c.checkShards(shards, true); err != nil {
		return err
	}
	size := presentSize(shards)
	present := 0
	var mask uint64
	for i, s := range shards {
		if s != nil {
			present++
			if i < 64 {
				mask |= 1 << uint(i)
			}
		}
	}
	if present == c.N() {
		return nil
	}
	if present < c.k {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, present, c.k)
	}

	inv, err := c.decodeMatrix(mask, shards)
	if err != nil {
		return err
	}

	// Collect the k surviving source shards in decode-row order (data
	// shards first, then parity), matching decodeMatrix's row selection.
	vp := c.getViews()
	src := *vp
	row := 0
	for i := 0; i < c.N() && row < c.k; i++ {
		if shards[i] != nil {
			src[row] = shards[i]
			row++
		}
	}

	// Recover missing data shards: data_i = (inv * src)_i, fused across
	// all k source rows. Output buffers come from the arena so callers on
	// the rebuild path can return them after use.
	for i := 0; i < c.k; i++ {
		if shards[i] != nil {
			continue
		}
		out := bufpool.Default.GetZero(size)
		gf.MulAddSlices(inv[i], src, out)
		shards[i] = out
	}
	c.putViews(vp)
	if dataOnly {
		return nil
	}
	// Recompute missing parity shards from the (now complete) data.
	for j := 0; j < c.m; j++ {
		if shards[c.k+j] != nil {
			continue
		}
		out := bufpool.Default.GetZero(size)
		gf.MulAddSlices(c.parity[j], shards[:c.k], out)
		shards[c.k+j] = out
	}
	return nil
}

// decodeMatrix returns the inverted decode matrix for the erasure pattern
// described by mask (bit i set when shards[i] is present), memoized per
// pattern. The decode matrix stacks k surviving generator rows — an
// identity row per surviving data shard, then coding rows — and inverts
// them; reconstruction of every stripe in a device rebuild shares one
// pattern, so the Gauss-Jordan cost is paid once. Codes wider than 64
// shards skip the cache and invert cold.
func (c *Code) decodeMatrix(mask uint64, shards [][]byte) (matrix, error) {
	cacheable := c.N() <= 64
	if cacheable {
		c.decMu.RLock()
		inv, ok := c.decCache[mask]
		c.decMu.RUnlock()
		if ok {
			return inv, nil
		}
	}
	dec := newMatrix(c.k, c.k)
	row := 0
	for i := 0; i < c.k && row < c.k; i++ {
		if shards[i] != nil {
			dec[row][i] = 1
			row++
		}
	}
	for j := 0; j < c.m && row < c.k; j++ {
		if shards[c.k+j] != nil {
			copy(dec[row], c.parity[j])
			row++
		}
	}
	inv, err := dec.invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: decode matrix inversion: %w", err)
	}
	if cacheable {
		c.decMu.Lock()
		c.decCache[mask] = inv
		c.decMu.Unlock()
	}
	return inv, nil
}

// Verify reports whether the parity shards match the data shards. All k+m
// shards must be present. The expected parity is recomputed into pooled
// scratch and compared 8 bytes at a time with early exit on the first
// mismatching word.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	if err := c.checkShards(shards, false); err != nil {
		return false, err
	}
	size := len(shards[0])
	buf := bufpool.Default.Get(size)
	defer bufpool.Default.Put(buf)
	for j := 0; j < c.m; j++ {
		clear(buf)
		gf.MulAddSlices(c.parity[j], shards[:c.k], buf)
		if !equalWords(buf, shards[c.k+j]) {
			return false, nil
		}
	}
	return true, nil
}

// equalWords reports a == b, comparing 8-byte words with early exit. Both
// slices must have equal length.
func equalWords(a, b []byte) bool {
	n := len(a) &^ 7
	for i := 0; i < n; i += 8 {
		if binary.LittleEndian.Uint64(a[i:]) != binary.LittleEndian.Uint64(b[i:]) {
			return false
		}
	}
	for i := n; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkShards validates shard count and sizes. If allowNil is true, nil
// entries mark missing shards.
func (c *Code) checkShards(shards [][]byte, allowNil bool) error {
	if len(shards) != c.N() {
		return fmt.Errorf("%w: got %d shards, want %d", ErrInvalidShardCount, len(shards), c.N())
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if !allowNil {
				return fmt.Errorf("%w: shard %d is nil", ErrShardSize, i)
			}
			continue
		}
		if len(s) == 0 {
			return ErrShardSize
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSizeMismatch
		}
	}
	if size < 0 {
		return ErrTooFewShards
	}
	return nil
}

func presentSize(shards [][]byte) int {
	for _, s := range shards {
		if s != nil {
			return len(s)
		}
	}
	return 0
}

// Cache memoizes Codes by (k, m). EPLog's elastic log stripes use a
// different k' per log stripe, so codes are requested repeatedly for a small
// set of parameters. Cache is safe for concurrent use.
type Cache struct {
	construction Construction

	mu    sync.RWMutex
	codes map[[2]int]*Code
}

// NewCache returns a Cache producing codes with the given construction.
func NewCache(c Construction) *Cache {
	return &Cache{construction: c, codes: make(map[[2]int]*Code)}
}

// Get returns the memoized code for (k, m), constructing it on first use.
// The steady-state path — every flush and fold looks its code up — takes
// only the read lock; the write lock is held solely while inserting a
// newly built code.
func (cc *Cache) Get(k, m int) (*Code, error) {
	key := [2]int{k, m}
	cc.mu.RLock()
	code, ok := cc.codes[key]
	cc.mu.RUnlock()
	if ok {
		return code, nil
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if code, ok := cc.codes[key]; ok {
		return code, nil
	}
	code, err := New(k, m, cc.construction)
	if err != nil {
		return nil, err
	}
	cc.codes[key] = code
	return code, nil
}

// Package raid implements conventional software RAID over an SSD array —
// the paper's MD baseline (Linux mdadm). Data and parity live together on
// the main array with rotated placement; partial-stripe writes update
// parity immediately using read-modify-write for single-parity arrays
// (RAID-5) and reconstruct-write for multi-parity arrays (RAID-6 in the
// paper's kernel-3.13 md, which lacked RAID-6 RMW). The array supports
// degraded reads, degraded writes, and full rebuild onto a replacement
// device.
package raid

import (
	"errors"
	"fmt"
	"sync"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/erasure"
	"github.com/eplog/eplog/internal/gf"
	"github.com/eplog/eplog/internal/store"
)

// ErrTooManyFailures is returned when a stripe cannot be decoded.
var ErrTooManyFailures = errors.New("raid: too many failed devices")

// Stats counts the parity-update I/O the scheme generated beyond the user
// data itself.
type Stats struct {
	// PreReadChunks counts chunks read on the write path (old data, old
	// parity, or untouched data for reconstruct-writes).
	PreReadChunks int64
	// ParityWriteChunks counts parity chunks written.
	ParityWriteChunks int64
	// FullStripeWrites counts stripes written without any pre-read.
	FullStripeWrites int64
	// RMWWrites and ReconstructWrites count partial-stripe strategies.
	RMWWrites         int64
	ReconstructWrites int64
}

// Array is a conventional RAID array. It implements store.Store. Exported
// methods serialize on an internal mutex, so an Array is safe for
// concurrent use — keeping the baseline's external contract identical to
// EPLog's for apples-to-apples comparisons.
type Array struct {
	mu    sync.Mutex
	geo   store.Geometry
	code  *erasure.Code
	devs  []device.Dev
	csize int
	stats Stats
}

var _ store.Store = (*Array)(nil)

// New builds an array over devs with k data chunks per stripe; the number
// of parity chunks is len(devs)-k. Every device must have identical
// geometry and at least stripes chunks.
func New(devs []device.Dev, k int, stripes int64) (*Array, error) {
	if len(devs) < 2 {
		return nil, fmt.Errorf("raid: need at least 2 devices, got %d", len(devs))
	}
	geo, err := store.NewGeometry(len(devs), k, stripes)
	if err != nil {
		return nil, err
	}
	csize := devs[0].ChunkSize()
	for i, d := range devs {
		if d.ChunkSize() != csize {
			return nil, fmt.Errorf("raid: device %d chunk size %d != %d", i, d.ChunkSize(), csize)
		}
		if d.Chunks() < stripes {
			return nil, fmt.Errorf("raid: device %d has %d chunks, need %d", i, d.Chunks(), stripes)
		}
	}
	code, err := erasure.New(k, geo.M(), erasure.Cauchy)
	if err != nil {
		return nil, err
	}
	return &Array{geo: geo, code: code, devs: devs, csize: csize}, nil
}

// Chunks implements store.Store.
func (a *Array) Chunks() int64 { return a.geo.Chunks() }

// ChunkSize implements store.Store.
func (a *Array) ChunkSize() int { return a.csize }

// Commit implements store.Store; conventional RAID has nothing to flush.
func (a *Array) Commit() error { return nil }

// Stats returns the parity-update counters.
func (a *Array) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Geometry exposes the layout for tests and tools.
func (a *Array) Geometry() store.Geometry { return a.geo }

// WriteChunks implements store.Store. The request is split per stripe; all
// pre-reads across the affected stripes proceed in parallel (phase 1),
// then all data and parity writes (phase 2), matching a request-parallel
// software-RAID implementation with a barrier between the phases.
func (a *Array) WriteChunks(start float64, lba int64, data []byte) (float64, error) {
	nChunks := int64(len(data) / a.csize)
	if int(nChunks)*a.csize != len(data) || nChunks == 0 {
		return start, fmt.Errorf("raid: data length %d not a positive chunk multiple", len(data))
	}
	if lba < 0 || lba+nChunks > a.geo.Chunks() {
		return start, fmt.Errorf("%w: [%d,%d) of %d", store.ErrWriteTooLarge, lba, lba+nChunks, a.geo.Chunks())
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	type stripeUpdate struct {
		stripe int64
		slots  []int
		chunks [][]byte
	}
	var ups []stripeUpdate
	for off := int64(0); off < nChunks; {
		s, _ := a.geo.Stripe(lba + off)
		u := stripeUpdate{stripe: s}
		for ; off < nChunks; off++ {
			s2, j2 := a.geo.Stripe(lba + off)
			if s2 != s {
				break
			}
			u.slots = append(u.slots, j2)
			u.chunks = append(u.chunks, data[off*int64(a.csize):(off+1)*int64(a.csize)])
		}
		ups = append(ups, u)
	}

	pre := device.NewSpan(start)
	parities := make([][][]byte, 0, len(ups))
	for _, u := range ups {
		parity, err := a.planStripe(pre, u.stripe, u.slots, u.chunks)
		if err != nil {
			return start, err
		}
		parities = append(parities, parity)
	}
	if pre.Err() != nil {
		return start, pre.Err()
	}

	wr := pre.Next()
	for i, u := range ups {
		if err := a.writeStripe(wr, u.stripe, u.slots, u.chunks, parities[i]); err != nil {
			return start, err
		}
	}
	if wr.Err() != nil {
		return start, wr.Err()
	}
	// The parity buffers came from the arena (planStripe); they are dead
	// once written out.
	for _, p := range parities {
		bufpool.Default.PutSlices(p)
	}
	return wr.End(), nil
}

// planStripe performs the pre-read phase for one stripe and returns the
// new parity chunks. The parity buffers come from the arena; the caller
// returns them once the write phase is done. All pre-read scratch is
// arena-backed and returned before planStripe exits.
func (a *Array) planStripe(pre *device.Span, stripe int64, slots []int, chunks [][]byte) ([][]byte, error) {
	k, m := a.geo.K, a.geo.M()
	c := len(slots)
	home := a.geo.HomeChunk(stripe)

	// Full-stripe write: parity from the new data alone.
	if c == k {
		shards := make([][]byte, k+m)
		for i, ch := range chunks {
			shards[slots[i]] = ch
		}
		parity := bufpool.Default.GetSlices(make([][]byte, m), a.csize)
		copy(shards[k:], parity)
		if err := a.code.Encode(shards); err != nil {
			bufpool.Default.PutSlices(parity)
			return nil, err
		}
		a.stats.FullStripeWrites++
		return parity, nil
	}

	// Read-modify-write for single-parity arrays when few chunks change.
	if m == 1 && c <= k/2 {
		parity := make([][]byte, 1)
		parity[0] = bufpool.Default.Get(a.csize)
		rmwOK := false
		if err := pre.Read(a.devs[a.geo.ParityDev(stripe, 0)], home, parity[0]); err == nil {
			rmwOK = true
			old := bufpool.Default.Get(a.csize)
			delta := bufpool.Default.Get(a.csize)
			var uerr error
			for i, j := range slots {
				if err := pre.Read(a.devs[a.geo.DataDev(stripe, j)], home, old); err != nil {
					rmwOK = false
					break
				}
				copy(delta, old)
				gf.XORSlice(chunks[i], delta)
				if uerr = a.code.UpdateParity(j, delta, parity); uerr != nil {
					break
				}
				a.stats.PreReadChunks++
			}
			bufpool.Default.Put(old)
			bufpool.Default.Put(delta)
			if uerr != nil {
				bufpool.Default.Put(parity[0])
				return nil, uerr
			}
		}
		if rmwOK {
			a.stats.PreReadChunks++ // the parity pre-read
			a.stats.RMWWrites++
			return parity, nil
		}
		bufpool.Default.Put(parity[0])
		if err := pre.Err(); err != nil && !errors.Is(err, device.ErrFailed) {
			return nil, err
		}
		// A device needed by RMW has failed; fall through to the
		// reconstruct path, which can tolerate it.
		pre.ClearErr()
	}

	// Reconstruct-write: read the untouched data chunks and re-encode.
	// Pre-read and reconstructed buffers are arena-owned; the caller's
	// chunks (tracked in updated) must never be returned to the arena.
	updated := make(map[int][]byte, c)
	for i, j := range slots {
		updated[j] = chunks[i]
	}
	shards := make([][]byte, k+m)
	readShard := func(i, dev int) (bool, error) {
		buf := bufpool.Default.Get(a.csize)
		if err := pre.Read(a.devs[dev], home, buf); err != nil {
			bufpool.Default.Put(buf)
			if !errors.Is(err, device.ErrFailed) {
				return false, err
			}
			pre.ClearErr()
			return false, nil
		}
		shards[i] = buf
		a.stats.PreReadChunks++
		return true, nil
	}
	putScratch := func() {
		for j := 0; j < k+m; j++ {
			if _, ok := updated[j]; ok && j < k {
				continue // caller-owned (or nil)
			}
			if shards[j] != nil {
				bufpool.Default.Put(shards[j])
				shards[j] = nil
			}
		}
	}
	failed := false
	for j := 0; j < k; j++ {
		if _, ok := updated[j]; ok {
			continue
		}
		ok, err := readShard(j, a.geo.DataDev(stripe, j))
		if err != nil {
			putScratch()
			return nil, err
		}
		if !ok {
			failed = true
		}
	}
	if failed {
		// Degraded: the pre-update value of a missing untouched slot
		// must be decoded against the stripe's pre-update state, so
		// read the old contents of the updated slots and the parity
		// too, decode, and only then overlay the new data.
		for j := range updated {
			if _, err := readShard(j, a.geo.DataDev(stripe, j)); err != nil {
				putScratch()
				return nil, err
			}
		}
		for i := 0; i < m; i++ {
			if _, err := readShard(k+i, a.geo.ParityDev(stripe, i)); err != nil {
				putScratch()
				return nil, err
			}
		}
		if err := a.code.ReconstructData(shards); err != nil {
			putScratch()
			return nil, fmt.Errorf("%w: %v", ErrTooManyFailures, err)
		}
		// Overlay the new data, releasing the old contents read (or
		// reconstructed) for the updated slots.
		for j, ch := range updated {
			if shards[j] != nil {
				bufpool.Default.Put(shards[j])
			}
			shards[j] = ch
		}
		// Old parity read for the decode is dead now.
		bufpool.Default.PutSlices(shards[k:])
	} else {
		for j, ch := range updated {
			shards[j] = ch
		}
	}
	parity := bufpool.Default.GetSlices(make([][]byte, m), a.csize)
	copy(shards[k:], parity)
	if err := a.code.Encode(shards); err != nil {
		bufpool.Default.PutSlices(parity)
		clear(shards[k:])
		putScratch()
		return nil, err
	}
	a.stats.ReconstructWrites++
	clear(shards[k:]) // keep putScratch away from the returned parity
	putScratch()
	return parity, nil
}

// writeStripe issues the data and parity writes for one stripe within the
// write span, skipping failed devices (their chunks are restored by
// Rebuild).
func (a *Array) writeStripe(wr *device.Span, stripe int64, slots []int, chunks [][]byte, parity [][]byte) error {
	home := a.geo.HomeChunk(stripe)
	for i, j := range slots {
		if err := wr.Write(a.devs[a.geo.DataDev(stripe, j)], home, chunks[i]); err != nil {
			if !errors.Is(err, device.ErrFailed) {
				return err
			}
			wr.ClearErr()
		}
	}
	for i, p := range parity {
		if err := wr.Write(a.devs[a.geo.ParityDev(stripe, i)], home, p); err != nil {
			if !errors.Is(err, device.ErrFailed) {
				return err
			}
			wr.ClearErr()
		}
		a.stats.ParityWriteChunks++
	}
	return nil
}

// ReadChunks implements store.Store, reconstructing chunks on failed
// devices from the rest of their stripes.
func (a *Array) ReadChunks(start float64, lba int64, p []byte) (float64, error) {
	nChunks := int64(len(p) / a.csize)
	if int(nChunks)*a.csize != len(p) || nChunks == 0 {
		return start, fmt.Errorf("raid: buffer length %d not a positive chunk multiple", len(p))
	}
	if lba < 0 || lba+nChunks > a.geo.Chunks() {
		return start, fmt.Errorf("%w: [%d,%d) of %d", store.ErrWriteTooLarge, lba, lba+nChunks, a.geo.Chunks())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	span := device.NewSpan(start)
	for off := int64(0); off < nChunks; off++ {
		s, j := a.geo.Stripe(lba + off)
		buf := p[off*int64(a.csize) : (off+1)*int64(a.csize)]
		err := span.Read(a.devs[a.geo.DataDev(s, j)], a.geo.HomeChunk(s), buf)
		if err == nil {
			continue
		}
		if !errors.Is(err, device.ErrFailed) {
			return start, err
		}
		span.ClearErr()
		if err := a.degradedRead(span, s, j, buf); err != nil {
			return start, err
		}
	}
	if span.Err() != nil {
		return start, span.Err()
	}
	return span.End(), nil
}

// degradedRead decodes slot j of a stripe from its surviving chunks: the
// other data chunks, then parity, until k have survived — k reads with one
// SSD failed, as EPLog's decoder.
func (a *Array) degradedRead(span *device.Span, stripe int64, slot int, out []byte) error {
	k, m := a.geo.K, a.geo.M()
	home := a.geo.HomeChunk(stripe)
	shards := make([][]byte, k+m)
	defer bufpool.Default.PutSlices(shards)
	for i, have := 0, 0; i < k+m && have < k; i++ {
		if i == slot {
			continue
		}
		var dev int
		if i < k {
			dev = a.geo.DataDev(stripe, i)
		} else {
			dev = a.geo.ParityDev(stripe, i-k)
		}
		buf := bufpool.Default.Get(a.csize)
		if err := span.Read(a.devs[dev], home, buf); err != nil {
			bufpool.Default.Put(buf)
			if !errors.Is(err, device.ErrFailed) {
				return err
			}
			span.ClearErr()
			continue
		}
		shards[i] = buf
		have++
	}
	if err := a.code.ReconstructData(shards); err != nil {
		return fmt.Errorf("%w: %v", ErrTooManyFailures, err)
	}
	copy(out, shards[slot])
	return nil
}

// Rebuild reconstructs the full contents of device devIdx onto replacement,
// then swaps it into the array. The replacement must match the array
// geometry.
func (a *Array) Rebuild(devIdx int, replacement device.Dev) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if devIdx < 0 || devIdx >= a.geo.N {
		return fmt.Errorf("raid: device index %d out of range", devIdx)
	}
	if replacement.ChunkSize() != a.csize || replacement.Chunks() < a.geo.Stripes {
		return fmt.Errorf("raid: replacement geometry mismatch")
	}
	k, m := a.geo.K, a.geo.M()
	for s := int64(0); s < a.geo.Stripes; s++ {
		home := a.geo.HomeChunk(s)
		// Which slot of this stripe lives on devIdx?
		target := -1
		isParity := false
		for j := 0; j < k; j++ {
			if a.geo.DataDev(s, j) == devIdx {
				target, isParity = j, false
				break
			}
		}
		if target < 0 {
			for i := 0; i < m; i++ {
				if a.geo.ParityDev(s, i) == devIdx {
					target, isParity = i, true
					break
				}
			}
		}
		if target < 0 {
			continue
		}
		shards := make([][]byte, k+m)
		readShard := func(i, d int) error {
			buf := bufpool.Default.Get(a.csize)
			if err := a.devs[d].ReadChunk(home, buf); err != nil {
				bufpool.Default.Put(buf)
				if !errors.Is(err, device.ErrFailed) {
					return err
				}
				return nil
			}
			shards[i] = buf
			return nil
		}
		for j := 0; j < k; j++ {
			if d := a.geo.DataDev(s, j); d != devIdx {
				if err := readShard(j, d); err != nil {
					bufpool.Default.PutSlices(shards)
					return err
				}
			}
		}
		for i := 0; i < m; i++ {
			if d := a.geo.ParityDev(s, i); d != devIdx {
				if err := readShard(k+i, d); err != nil {
					bufpool.Default.PutSlices(shards)
					return err
				}
			}
		}
		if err := a.code.Reconstruct(shards); err != nil {
			bufpool.Default.PutSlices(shards)
			return fmt.Errorf("%w: stripe %d: %v", ErrTooManyFailures, s, err)
		}
		out := shards[target]
		if isParity {
			out = shards[k+target]
		}
		err := replacement.WriteChunk(home, out)
		bufpool.Default.PutSlices(shards)
		if err != nil {
			return err
		}
	}
	a.devs[devIdx] = replacement
	return nil
}

// Verify scrubs the array: every stripe's parity is checked against its
// data. It returns the stripes whose redundancy does not match.
func (a *Array) Verify() ([]int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	k, m := a.geo.K, a.geo.M()
	var bad []int64
	shards := bufpool.Default.GetSlices(make([][]byte, k+m), a.csize)
	defer bufpool.Default.PutSlices(shards)
	for s := int64(0); s < a.geo.Stripes; s++ {
		home := a.geo.HomeChunk(s)
		for j := 0; j < k; j++ {
			if err := a.devs[a.geo.DataDev(s, j)].ReadChunk(home, shards[j]); err != nil {
				return nil, fmt.Errorf("raid: verify stripe %d slot %d: %w", s, j, err)
			}
		}
		for i := 0; i < m; i++ {
			if err := a.devs[a.geo.ParityDev(s, i)].ReadChunk(home, shards[k+i]); err != nil {
				return nil, fmt.Errorf("raid: verify stripe %d parity %d: %w", s, i, err)
			}
		}
		ok, err := a.code.Verify(shards)
		if err != nil {
			return nil, err
		}
		if !ok {
			bad = append(bad, s)
		}
	}
	return bad, nil
}

// Package ssd implements a page-mapped flash-translation-layer (FTL)
// simulator in the mould of Microsoft's SSD extension to DiskSim, which the
// paper uses to measure garbage-collection overhead (Experiment 2). The
// device exposes a logical chunk space; writes are out-of-place at flash
// level, stale pages are reclaimed by greedy garbage collection, and the
// simulator records host traffic, GC activity, erase counts, and write
// amplification. A simple latency model (page read/program, block erase)
// supports the throughput experiments.
//
// Defaults follow the paper's simulator configuration: 64 pages of 4KB per
// block, 15% over-provisioning, GC triggered when clean blocks drop below
// 5%, greedy victim selection, wear-leveling migration disabled.
package ssd

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// Params configures the simulated SSD.
type Params struct {
	// PageSize is the flash page size in bytes; it is also the device
	// chunk size.
	PageSize int
	// PagesPerBlock is the number of pages per erase block.
	PagesPerBlock int
	// Blocks is the number of physical erase blocks (raw capacity =
	// Blocks * PagesPerBlock * PageSize).
	Blocks int
	// OverProvision is the fraction of raw capacity hidden from the
	// logical space and reserved for garbage collection.
	OverProvision float64
	// GCThreshold triggers garbage collection when the fraction of clean
	// blocks drops below it.
	GCThreshold float64
	// WearLevelThreshold enables static wear leveling when > 0: whenever
	// the spread between the most- and least-erased blocks exceeds the
	// threshold, the coldest block's contents are migrated so it rejoins
	// the erase rotation. Zero disables wear leveling (the paper's
	// simulator configuration).
	WearLevelThreshold int

	// PageReadTime, PageWriteTime and BlockEraseTime parameterize the
	// latency model (virtual seconds per operation).
	PageReadTime   float64
	PageWriteTime  float64
	BlockEraseTime float64
	// Channels models the SSD's internal parallelism: operations on
	// different channels overlap in time. Blocks are striped across
	// channels; 0 or 1 means a single channel.
	Channels int
}

// DefaultParams returns the paper's simulator configuration scaled to the
// given raw capacity in bytes.
func DefaultParams(rawBytes int64) Params {
	p := Params{
		PageSize:       4096,
		PagesPerBlock:  64,
		OverProvision:  0.15,
		GCThreshold:    0.05,
		PageReadTime:   60e-6,
		PageWriteTime:  180e-6,
		BlockEraseTime: 2e-3,
		Channels:       1,
	}
	blockBytes := int64(p.PageSize * p.PagesPerBlock)
	p.Blocks = int(rawBytes / blockBytes)
	return p
}

// Stats aggregates the endurance and traffic counters of a simulated SSD.
type Stats struct {
	// HostReads and HostWrites count chunk operations issued by the host.
	HostReads  int64
	HostWrites int64
	// HostWriteBytes is the total host write traffic (the paper's "write
	// size to SSDs" metric).
	HostWriteBytes int64
	// GCInvocations counts garbage-collection victim cleanings (the
	// paper's "GC requests").
	GCInvocations int64
	// PagesMoved counts valid pages relocated by GC.
	PagesMoved int64
	// Erases counts block erase operations.
	Erases int64
	// Trims counts trimmed logical pages.
	Trims int64
	// WearLevelMoves counts blocks recycled by static wear leveling.
	WearLevelMoves int64
}

// WriteAmplification returns (host pages + moved pages) / host pages, the
// flash-level write amplification factor.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 1
	}
	return float64(s.HostWrites+s.PagesMoved) / float64(s.HostWrites)
}

const (
	pageFree int8 = iota
	pageValid
	pageStale
)

// ErrNoSpace is returned when garbage collection cannot reclaim a free page
// (the logical space is overcommitted against physical capacity).
var ErrNoSpace = errors.New("ssd: no reclaimable space")

// Device is a simulated SSD. It implements device.Dev.
type Device struct {
	params Params
	chunks int64 // logical pages exposed

	// data holds page contents by logical page: a relocation remaps a
	// page without copying it, so only l2p says where it sits in flash.
	data      []byte
	l2p       []int32 // logical page -> physical page, -1 if unmapped
	p2l       []int32 // physical page -> logical page, -1 if not valid
	pageState []int8
	blockWPtr []int32 // next free page slot within each block
	blockLive []int32 // valid pages per block
	eraseCnt  []int32 // erases per block

	freeBlocks  []int32 // clean blocks (fully erased, unwritten)
	activeBlock int32   // block accepting host writes, -1 if none
	gcBlock     int32   // block accepting GC relocations, -1 if none

	chanFree []float64 // per-channel next-idle virtual times
	stats    Stats

	mGCRuns *obs.Counter // nil-safe unless SetObserver was called
	mMoved  *obs.Counter
	mErases *obs.Counter
	mWear   *obs.Counter
}

var _ device.Dev = (*Device)(nil)

// New returns a simulated SSD with the given parameters.
func New(params Params) (*Device, error) {
	if params.PageSize <= 0 || params.PagesPerBlock <= 0 || params.Blocks <= 1 {
		return nil, fmt.Errorf("ssd: invalid geometry %+v", params)
	}
	if params.OverProvision <= 0 || params.OverProvision >= 1 {
		return nil, fmt.Errorf("ssd: over-provisioning %v must be in (0,1)", params.OverProvision)
	}
	if params.GCThreshold <= 0 || params.GCThreshold >= 1 {
		return nil, fmt.Errorf("ssd: GC threshold %v must be in (0,1)", params.GCThreshold)
	}
	physPages := params.Blocks * params.PagesPerBlock
	logical := int64(float64(physPages) * (1 - params.OverProvision))
	if logical < 1 {
		return nil, fmt.Errorf("ssd: no logical capacity")
	}
	channels := params.Channels
	if channels < 1 {
		channels = 1
	}
	d := &Device{
		params:      params,
		chunks:      logical,
		chanFree:    make([]float64, channels),
		data:        make([]byte, logical*int64(params.PageSize)),
		l2p:         make([]int32, logical),
		p2l:         make([]int32, physPages),
		pageState:   make([]int8, physPages),
		blockWPtr:   make([]int32, params.Blocks),
		blockLive:   make([]int32, params.Blocks),
		eraseCnt:    make([]int32, params.Blocks),
		freeBlocks:  make([]int32, 0, params.Blocks),
		activeBlock: -1,
		gcBlock:     -1,
	}
	for i := range d.l2p {
		d.l2p[i] = -1
	}
	for i := range d.p2l {
		d.p2l[i] = -1
	}
	for b := params.Blocks - 1; b >= 0; b-- {
		d.freeBlocks = append(d.freeBlocks, int32(b))
	}
	return d, nil
}

// Params returns the device configuration.
func (d *Device) Params() Params { return d.params }

// SetObserver attaches an observability sink to the device as array member
// dev: garbage-collection and wear-leveling runs then maintain the
// ssd.<dev>.* counters. A nil sink detaches.
func (d *Device) SetObserver(sink *obs.Sink, dev int) {
	prefix := "ssd." + strconv.Itoa(dev) + "."
	d.mGCRuns = sink.Counter(prefix + "gc_runs")
	d.mMoved = sink.Counter(prefix + "pages_moved")
	d.mErases = sink.Counter(prefix + "erases")
	d.mWear = sink.Counter(prefix + "wear_level_moves")
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the counters without touching device contents, so
// experiments can exclude preconditioning traffic.
func (d *Device) ResetStats() { d.stats = Stats{} }

// Chunks implements device.Dev.
func (d *Device) Chunks() int64 { return d.chunks }

// ChunkSize implements device.Dev.
func (d *Device) ChunkSize() int { return d.params.PageSize }

// ReadChunk implements device.Dev. Reading a never-written chunk returns
// zeroes, as a fully trimmed flash device would.
func (d *Device) ReadChunk(idx int64, p []byte) error {
	_, err := d.read(idx, p)
	return err
}

// ReadChunkAt implements device.Dev.
func (d *Device) ReadChunkAt(start float64, idx int64, p []byte) (float64, error) {
	phys, err := d.read(idx, p)
	if err != nil {
		return start, err
	}
	return d.occupy(d.channelOf(phys), start, d.params.PageReadTime), nil
}

// channelOf maps a physical page to its flash channel (block-striped);
// unmapped reads use channel 0.
func (d *Device) channelOf(phys int32) int {
	if phys < 0 || len(d.chanFree) == 1 {
		return 0
	}
	return int(phys/int32(d.params.PagesPerBlock)) % len(d.chanFree)
}

// occupy schedules dur of work on a channel at or after start and returns
// the completion time.
func (d *Device) occupy(ch int, start, dur float64) float64 {
	begin := max(start, d.chanFree[ch])
	d.chanFree[ch] = begin + dur
	return d.chanFree[ch]
}

func (d *Device) read(idx int64, p []byte) (int32, error) {
	if idx < 0 || idx >= d.chunks {
		return -1, fmt.Errorf("%w: %d not in [0,%d)", device.ErrOutOfRange, idx, d.chunks)
	}
	if len(p) != d.params.PageSize {
		return -1, fmt.Errorf("%w: got %d, want %d", device.ErrSizeChunk, len(p), d.params.PageSize)
	}
	d.stats.HostReads++
	phys := d.l2p[idx]
	if phys < 0 {
		clear(p)
		return phys, nil
	}
	copy(p, d.page(idx))
	return phys, nil
}

// page returns the contents of logical page idx.
func (d *Device) page(idx int64) []byte {
	off := idx * int64(d.params.PageSize)
	return d.data[off : off+int64(d.params.PageSize)]
}

// WriteChunk implements device.Dev.
func (d *Device) WriteChunk(idx int64, p []byte) error {
	_, err := d.writeTimed(idx, p)
	return err
}

// WriteChunkAt implements device.Dev. The returned completion time includes
// any garbage-collection work the write triggered; the page program lands
// on the written page's channel, while GC work (which spans channels) is
// charged to the busiest-fitting channel serially after it.
func (d *Device) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	cost, err := d.writeTimed(idx, p)
	if err != nil {
		return start, err
	}
	ch := d.channelOf(d.l2p[idx])
	return d.occupy(ch, start, cost), nil
}

// writeTimed performs the write and returns its service time.
func (d *Device) writeTimed(idx int64, p []byte) (float64, error) {
	if idx < 0 || idx >= d.chunks {
		return 0, fmt.Errorf("%w: %d not in [0,%d)", device.ErrOutOfRange, idx, d.chunks)
	}
	if len(p) != d.params.PageSize {
		return 0, fmt.Errorf("%w: got %d, want %d", device.ErrSizeChunk, len(p), d.params.PageSize)
	}
	cost := d.params.PageWriteTime

	// Invalidate the previous version.
	if old := d.l2p[idx]; old >= 0 {
		d.invalidate(old)
	}
	phys, gcCost, err := d.allocPage()
	if err != nil {
		return 0, err
	}
	cost += gcCost
	copy(d.page(idx), p)
	d.l2p[idx] = phys
	d.p2l[phys] = int32(idx)
	d.pageState[phys] = pageValid
	d.blockLive[phys/int32(d.params.PagesPerBlock)]++

	d.stats.HostWrites++
	d.stats.HostWriteBytes += int64(len(p))

	// Background watermark GC: keep the clean-block pool above the
	// threshold; the cost lands on the triggering write, which is how a
	// real drive's foreground latency spikes show up.
	moreGC, err := d.collectToWatermark()
	if err != nil {
		return 0, err
	}
	cost += moreGC
	if d.params.WearLevelThreshold > 0 {
		wlCost, err := d.wearLevel()
		if err != nil {
			return 0, err
		}
		cost += wlCost
	}
	return cost, nil
}

// Trim implements device.Dev, unmapping logical pages and marking their
// physical pages stale so GC can reclaim them without relocation.
func (d *Device) Trim(idx, n int64) error {
	if n < 0 || idx < 0 || idx+n > d.chunks {
		return fmt.Errorf("%w: trim [%d,%d) not in [0,%d)", device.ErrOutOfRange, idx, idx+n, d.chunks)
	}
	for i := idx; i < idx+n; i++ {
		if phys := d.l2p[i]; phys >= 0 {
			d.invalidate(phys)
			d.l2p[i] = -1
			d.stats.Trims++
		}
	}
	return nil
}

func (d *Device) invalidate(phys int32) {
	if d.pageState[phys] == pageValid {
		d.pageState[phys] = pageStale
		d.p2l[phys] = -1
		d.blockLive[phys/int32(d.params.PagesPerBlock)]--
	}
}

// allocPage returns the next free physical page for a host write, running
// garbage collection if the device has no clean block to activate. It
// returns the GC latency incurred, if any.
func (d *Device) allocPage() (int32, float64, error) {
	var gcCost float64
	ppb := int32(d.params.PagesPerBlock)
	if d.activeBlock < 0 || d.blockWPtr[d.activeBlock] == ppb {
		// Collect until a clean block is available for the host
		// stream; each collection erases one victim, so progress is
		// bounded by the block count.
		for i := 0; len(d.freeBlocks) == 0; i++ {
			if i > d.params.Blocks {
				return -1, 0, ErrNoSpace
			}
			cost, err := d.collectOne()
			if err != nil {
				return -1, 0, err
			}
			gcCost += cost
		}
		d.activeBlock = d.freeBlocks[len(d.freeBlocks)-1]
		d.freeBlocks = d.freeBlocks[:len(d.freeBlocks)-1]
	}
	phys := d.activeBlock*ppb + d.blockWPtr[d.activeBlock]
	d.blockWPtr[d.activeBlock]++
	return phys, gcCost, nil
}

// gcAllocPage returns the next page of the GC relocation stream, which is
// kept separate from the host stream (relocated-together pages tend to die
// together). It never triggers further collection.
func (d *Device) gcAllocPage() (int32, error) {
	ppb := int32(d.params.PagesPerBlock)
	if d.gcBlock < 0 || d.blockWPtr[d.gcBlock] == ppb {
		if len(d.freeBlocks) == 0 {
			return -1, ErrNoSpace
		}
		d.gcBlock = d.freeBlocks[len(d.freeBlocks)-1]
		d.freeBlocks = d.freeBlocks[:len(d.freeBlocks)-1]
	}
	phys := d.gcBlock*ppb + d.blockWPtr[d.gcBlock]
	d.blockWPtr[d.gcBlock]++
	return phys, nil
}

// collectToWatermark runs greedy GC until the clean-block fraction is at or
// above the configured threshold.
func (d *Device) collectToWatermark() (float64, error) {
	watermark := int(d.params.GCThreshold * float64(d.params.Blocks))
	// Always hold back at least two clean blocks: one for the host
	// stream to activate and one for GC relocation, so collection can
	// always make progress.
	if watermark < 2 {
		watermark = 2
	}
	var cost float64
	for len(d.freeBlocks) < watermark {
		c, err := d.collectOne()
		if err != nil {
			if errors.Is(err, ErrNoSpace) {
				// Nothing reclaimable right now; stop rather
				// than livelock. The next stale write will
				// make progress.
				return cost, nil
			}
			return cost, err
		}
		cost += c
	}
	return cost, nil
}

// collectOne erases the fullest-of-stale victim block (greedy: minimum
// valid pages), relocating its live pages into the GC stream first. It
// returns the virtual time consumed.
func (d *Device) collectOne() (float64, error) {
	ppb := int32(d.params.PagesPerBlock)
	victim := int32(-1)
	bestLive := ppb // a fully live block is never worth collecting
	for b := int32(0); b < int32(d.params.Blocks); b++ {
		if b == d.activeBlock || b == d.gcBlock || d.blockWPtr[b] == 0 {
			continue // active, GC stream, or already clean
		}
		if live := d.blockLive[b]; live < bestLive {
			bestLive = live
			victim = b
			if live == 0 {
				break
			}
		}
	}
	if victim < 0 || !d.gcFits(victim) {
		return 0, ErrNoSpace
	}
	moved, cost, err := d.migrate(victim)
	if err != nil {
		return cost, err
	}
	d.stats.GCInvocations++
	d.mGCRuns.Inc()
	d.mMoved.Add(moved)
	return cost, nil
}

// gcFits reports whether block b's live pages fit in the GC block plus at
// most one clean block; erasing b afterwards returns a block, so the pool
// never shrinks below where it started.
func (d *Device) gcFits(b int32) bool {
	gcSpace := int32(0)
	if d.gcBlock >= 0 {
		gcSpace = int32(d.params.PagesPerBlock) - d.blockWPtr[d.gcBlock]
	}
	return d.blockLive[b] <= gcSpace || len(d.freeBlocks) > 0
}

// migrate relocates block b's live pages into the GC stream and erases it,
// returning the pages moved and the virtual time consumed. Page contents
// are held by logical page, so a relocation moves only the mapping — as in
// DiskSim's SSD extension, which models page moves without holding data —
// while every move is still charged a page read and a page program.
func (d *Device) migrate(b int32) (int64, float64, error) {
	ppb := int32(d.params.PagesPerBlock)
	var moved int64
	var cost float64
	for s := int32(0); s < d.blockWPtr[b]; s++ {
		phys := b*ppb + s
		if d.pageState[phys] != pageValid {
			continue
		}
		logical := d.p2l[phys]
		dst, err := d.gcAllocPage()
		if err != nil {
			return moved, cost, err
		}
		d.l2p[logical] = dst
		d.p2l[dst] = logical
		d.pageState[dst] = pageValid
		d.blockLive[dst/ppb]++
		d.pageState[phys] = pageStale
		d.p2l[phys] = -1
		d.blockLive[b]--
		d.stats.PagesMoved++
		moved++
		cost += d.params.PageReadTime + d.params.PageWriteTime
	}
	base := b * ppb
	for s := int32(0); s < ppb; s++ {
		d.pageState[base+s] = pageFree
		d.p2l[base+s] = -1
	}
	d.blockWPtr[b] = 0
	d.blockLive[b] = 0
	d.eraseCnt[b]++
	d.freeBlocks = append(d.freeBlocks, b)
	d.stats.Erases++
	d.mErases.Inc()
	return moved, cost + d.params.BlockEraseTime, nil
}

// wearLevel performs one static wear-leveling step if the erase-count
// spread exceeds the configured threshold: the least-erased non-clean
// block (which holds the coldest data) is collected regardless of its
// staleness, putting it back into the erase rotation.
func (d *Device) wearLevel() (float64, error) {
	minB, maxB := int32(-1), int32(-1)
	var minE, maxE int32
	for b := int32(0); b < int32(d.params.Blocks); b++ {
		if e := d.eraseCnt[b]; maxB < 0 || e > maxE {
			maxE, maxB = e, b
		}
		if b == d.activeBlock || b == d.gcBlock || d.blockWPtr[b] == 0 {
			continue
		}
		if e := d.eraseCnt[b]; minB < 0 || e < minE {
			minE, minB = e, b
		}
	}
	if minB < 0 || int(maxE-minE) <= d.params.WearLevelThreshold {
		return 0, nil
	}
	// Migrate the cold block's contents: unlike greedy GC the victim is
	// chosen by wear, not staleness.
	if !d.gcFits(minB) {
		return 0, nil // no room to migrate right now
	}
	_, cost, err := d.migrate(minB)
	if err != nil {
		return cost, err
	}
	d.stats.WearLevelMoves++
	d.mWear.Inc()
	return cost, nil
}

// EraseSpread returns the difference between the maximum and minimum
// per-block erase counts, a wear-leveling quality metric.
func (d *Device) EraseSpread() int {
	minE, maxE := d.eraseCnt[0], d.eraseCnt[0]
	for _, e := range d.eraseCnt[1:] {
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	return int(maxE - minE)
}

// CleanBlocks returns the number of fully erased blocks, exposed for tests
// and introspection.
func (d *Device) CleanBlocks() int { return len(d.freeBlocks) }

// EraseCount returns the erase counter of physical block b (wear tracking).
func (d *Device) EraseCount(b int) int { return int(d.eraseCnt[b]) }

// MaxErase returns the maximum per-block erase count, a wear proxy.
func (d *Device) MaxErase() int {
	m := int32(0)
	for _, e := range d.eraseCnt {
		if e > m {
			m = e
		}
	}
	return int(m)
}

// checkInvariants validates internal FTL consistency; it is used by tests.
func (d *Device) checkInvariants() error {
	ppb := int32(d.params.PagesPerBlock)
	for l, phys := range d.l2p {
		if phys < 0 {
			continue
		}
		if d.p2l[phys] != int32(l) {
			return fmt.Errorf("ssd: l2p/p2l mismatch at logical %d", l)
		}
		if d.pageState[phys] != pageValid {
			return fmt.Errorf("ssd: mapped page %d not valid", phys)
		}
	}
	for b := int32(0); b < int32(d.params.Blocks); b++ {
		var live int32
		for s := int32(0); s < ppb; s++ {
			if d.pageState[b*ppb+s] == pageValid {
				live++
			}
		}
		if live != d.blockLive[b] {
			return fmt.Errorf("ssd: block %d live count %d, recorded %d", b, live, d.blockLive[b])
		}
	}
	return nil
}

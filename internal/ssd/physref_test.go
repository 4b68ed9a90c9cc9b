package ssd

import (
	"errors"
	"fmt"
)

// physRef is the FTL as it stood before Device kept page contents by
// logical page: the same mapping, victim choice and latency model, with
// contents held by physical page and copied on every GC and wear-leveling
// relocation. It is frozen here as the reference Device must match
// (TestLogicalStoreMatchesPhysicalReference); observability is left out.
type physRef struct {
	params Params
	chunks int64

	data      []byte // physical page contents
	l2p       []int32
	p2l       []int32
	pageState []int8
	blockWPtr []int32
	blockLive []int32
	eraseCnt  []int32

	freeBlocks  []int32
	activeBlock int32
	gcBlock     int32

	chanFree []float64
	stats    Stats
}

func newPhysRef(params Params) *physRef {
	physPages := params.Blocks * params.PagesPerBlock
	logical := int64(float64(physPages) * (1 - params.OverProvision))
	d := &physRef{
		params:      params,
		chunks:      logical,
		chanFree:    make([]float64, max(params.Channels, 1)),
		data:        make([]byte, int64(physPages)*int64(params.PageSize)),
		l2p:         make([]int32, logical),
		p2l:         make([]int32, physPages),
		pageState:   make([]int8, physPages),
		blockWPtr:   make([]int32, params.Blocks),
		blockLive:   make([]int32, params.Blocks),
		eraseCnt:    make([]int32, params.Blocks),
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
	return d
}

func (d *physRef) channelOf(phys int32) int {
	if phys < 0 || len(d.chanFree) == 1 {
		return 0
	}
	return int(phys/int32(d.params.PagesPerBlock)) % len(d.chanFree)
}

func (d *physRef) occupy(ch int, start, dur float64) float64 {
	begin := max(start, d.chanFree[ch])
	d.chanFree[ch] = begin + dur
	return d.chanFree[ch]
}

func (d *physRef) ReadChunkAt(start float64, idx int64, p []byte) (float64, error) {
	if idx < 0 || idx >= d.chunks || len(p) != d.params.PageSize {
		return start, fmt.Errorf("physRef: bad read %d", idx)
	}
	d.stats.HostReads++
	phys := d.l2p[idx]
	if phys < 0 {
		clear(p)
	} else {
		off := int64(phys) * int64(d.params.PageSize)
		copy(p, d.data[off:off+int64(d.params.PageSize)])
	}
	return d.occupy(d.channelOf(phys), start, d.params.PageReadTime), nil
}

func (d *physRef) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	cost, err := d.writeTimed(idx, p)
	if err != nil {
		return start, err
	}
	return d.occupy(d.channelOf(d.l2p[idx]), start, cost), nil
}

func (d *physRef) writeTimed(idx int64, p []byte) (float64, error) {
	if idx < 0 || idx >= d.chunks || len(p) != d.params.PageSize {
		return 0, fmt.Errorf("physRef: bad write %d", idx)
	}
	cost := d.params.PageWriteTime
	if old := d.l2p[idx]; old >= 0 {
		d.invalidate(old)
	}
	phys, gcCost, err := d.allocPage()
	if err != nil {
		return 0, err
	}
	cost += gcCost
	off := int64(phys) * int64(d.params.PageSize)
	copy(d.data[off:off+int64(d.params.PageSize)], p)
	d.l2p[idx] = phys
	d.p2l[phys] = int32(idx)
	d.pageState[phys] = pageValid
	d.blockLive[phys/int32(d.params.PagesPerBlock)]++
	d.stats.HostWrites++
	d.stats.HostWriteBytes += int64(len(p))
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

func (d *physRef) Trim(idx, n int64) error {
	if n < 0 || idx < 0 || idx+n > d.chunks {
		return fmt.Errorf("physRef: bad trim [%d,%d)", idx, idx+n)
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

func (d *physRef) invalidate(phys int32) {
	if d.pageState[phys] == pageValid {
		d.pageState[phys] = pageStale
		d.p2l[phys] = -1
		d.blockLive[phys/int32(d.params.PagesPerBlock)]--
	}
}

func (d *physRef) allocPage() (int32, float64, error) {
	var gcCost float64
	ppb := int32(d.params.PagesPerBlock)
	if d.activeBlock < 0 || d.blockWPtr[d.activeBlock] == ppb {
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

func (d *physRef) gcAllocPage() (int32, error) {
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

func (d *physRef) collectToWatermark() (float64, error) {
	watermark := max(int(d.params.GCThreshold*float64(d.params.Blocks)), 2)
	var cost float64
	for len(d.freeBlocks) < watermark {
		c, err := d.collectOne()
		if err != nil {
			if errors.Is(err, ErrNoSpace) {
				return cost, nil
			}
			return cost, err
		}
		cost += c
	}
	return cost, nil
}

func (d *physRef) collectOne() (float64, error) {
	ppb := int32(d.params.PagesPerBlock)
	victim := int32(-1)
	bestLive := ppb
	for b := int32(0); b < int32(d.params.Blocks); b++ {
		if b == d.activeBlock || b == d.gcBlock || d.blockWPtr[b] == 0 {
			continue
		}
		if live := d.blockLive[b]; live < bestLive {
			bestLive = live
			victim = b
			if live == 0 {
				break
			}
		}
	}
	if victim < 0 {
		return 0, ErrNoSpace
	}
	gcSpace := int32(0)
	if d.gcBlock >= 0 {
		gcSpace = ppb - d.blockWPtr[d.gcBlock]
	}
	if bestLive > gcSpace && len(d.freeBlocks) == 0 {
		return 0, ErrNoSpace
	}
	cost, err := d.relocateAndErase(victim)
	if err != nil {
		return cost, err
	}
	d.stats.GCInvocations++
	return cost, nil
}

func (d *physRef) wearLevel() (float64, error) {
	ppb := int32(d.params.PagesPerBlock)
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
	gcSpace := int32(0)
	if d.gcBlock >= 0 {
		gcSpace = ppb - d.blockWPtr[d.gcBlock]
	}
	if d.blockLive[minB] > gcSpace && len(d.freeBlocks) == 0 {
		return 0, nil
	}
	cost, err := d.relocateAndErase(minB)
	if err != nil {
		return cost, err
	}
	d.stats.WearLevelMoves++
	return cost, nil
}

// relocateAndErase copies block b's live pages into the GC stream, then
// erases it.
func (d *physRef) relocateAndErase(b int32) (float64, error) {
	ppb := int32(d.params.PagesPerBlock)
	ps := int64(d.params.PageSize)
	var cost float64
	for s := int32(0); s < d.blockWPtr[b]; s++ {
		phys := b*ppb + s
		if d.pageState[phys] != pageValid {
			continue
		}
		logical := d.p2l[phys]
		dst, err := d.gcAllocPage()
		if err != nil {
			return cost, err
		}
		copy(d.data[int64(dst)*ps:int64(dst+1)*ps], d.data[int64(phys)*ps:int64(phys+1)*ps])
		d.l2p[logical] = dst
		d.p2l[dst] = logical
		d.pageState[dst] = pageValid
		d.blockLive[dst/ppb]++
		d.pageState[phys] = pageStale
		d.p2l[phys] = -1
		d.blockLive[b]--
		d.stats.PagesMoved++
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
	return cost + d.params.BlockEraseTime, nil
}

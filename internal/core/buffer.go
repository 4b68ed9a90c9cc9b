package core

import "github.com/eplog/eplog/internal/bufpool"

// pendingChunk is a buffered chunk write.
type pendingChunk struct {
	lba  int64
	data []byte
	// whole marks the first chunk of a whole-stripe request segment in an
	// update set: it and the k−1 chunks after it flush as their own log
	// stripe (writeStripes, updatePath).
	whole bool
}

// deviceBuffer caches pending update chunks destined to one SSD,
// absorbing repeated updates to the same chunk in place (Section III-D).
// Eviction is FIFO by default; with hot/cold grouping enabled (the
// related-work extension the paper suggests incorporating), the coldest
// entry — fewest absorbed re-writes, oldest on ties — is evicted instead,
// keeping write-hot chunks buffered longer.
type deviceBuffer struct {
	cap     int
	hotCold bool
	seq     int64
	order   []int64 // FIFO of LBAs (maintained in both modes)
	byLBA   map[int64]*bufEntry
}

// bufEntry is one buffered chunk with its absorption statistics.
type bufEntry struct {
	data []byte
	hits int
	at   int64 // insertion sequence, for FIFO ties
}

func newDeviceBuffer(capacity int) *deviceBuffer {
	return &deviceBuffer{cap: capacity, byLBA: make(map[int64]*bufEntry, capacity)}
}

// put inserts or overwrites a pending chunk; it reports whether the write
// was absorbed by an existing entry. Copies live in arena buffers; pop
// hands ownership to the caller, who returns them once flushed.
func (b *deviceBuffer) put(lba int64, data []byte) bool {
	if e, ok := b.byLBA[lba]; ok {
		copy(e.data, data)
		e.hits++
		return true
	}
	cp := bufpool.Default.Get(len(data))
	copy(cp, data)
	b.seq++
	b.byLBA[lba] = &bufEntry{data: cp, at: b.seq}
	b.order = append(b.order, lba)
	return false
}

// get returns the buffered contents of an LBA, if present.
func (b *deviceBuffer) get(lba int64) ([]byte, bool) {
	e, ok := b.byLBA[lba]
	if !ok {
		return nil, false
	}
	return e.data, true
}

// full reports whether the buffer reached capacity.
func (b *deviceBuffer) full() bool { return len(b.order) >= b.cap }

// empty reports whether the buffer holds nothing.
func (b *deviceBuffer) empty() bool { return len(b.order) == 0 }

// pop removes and returns the next eviction victim: the FIFO head, or the
// coldest entry under hot/cold grouping.
func (b *deviceBuffer) pop() (pendingChunk, bool) {
	if len(b.order) == 0 {
		return pendingChunk{}, false
	}
	idx := 0
	if b.hotCold {
		best := b.byLBA[b.order[0]]
		for i := 1; i < len(b.order); i++ {
			e := b.byLBA[b.order[i]]
			if e.hits < best.hits || (e.hits == best.hits && e.at < best.at) {
				best, idx = e, i
			}
		}
	}
	lba := b.order[idx]
	b.order = append(b.order[:idx], b.order[idx+1:]...)
	e := b.byLBA[lba]
	delete(b.byLBA, lba)
	return pendingChunk{lba: lba, data: e.data}, true
}

// stripeBuffer caches new-write chunks so full data stripes can be formed
// and written directly to the main array (Section III-D). Chunks are
// grouped by their destination stripe.
type stripeBuffer struct {
	cap      int
	count    int
	order    []int64 // FIFO of stripe ids (first arrival)
	byStripe map[int64][]pendingChunk
}

func newStripeBuffer(capacity int) *stripeBuffer {
	return &stripeBuffer{cap: capacity, byStripe: make(map[int64][]pendingChunk)}
}

// put buffers a new-write chunk, copying it into an arena buffer the
// stripeBuffer owns until take transfers ownership to the caller. It
// returns the id of any stripe that is now fully assembled (k chunks
// present), or -1.
func (b *stripeBuffer) put(stripe, lba int64, data []byte, k int) int64 {
	cs, ok := b.byStripe[stripe]
	if !ok {
		b.order = append(b.order, stripe)
	}
	// Absorb a pending chunk for the same LBA rather than duplicating.
	replaced := false
	for i := range cs {
		if cs[i].lba == lba {
			copy(cs[i].data, data)
			replaced = true
			break
		}
	}
	if !replaced {
		cp := bufpool.Default.Get(len(data))
		copy(cp, data)
		cs = append(cs, pendingChunk{lba: lba, data: cp})
		b.count++
	}
	b.byStripe[stripe] = cs
	if len(cs) == k {
		return stripe
	}
	return -1
}

// peek returns the buffered contents of an LBA within a stripe, if any.
func (b *stripeBuffer) peek(stripe, lba int64) ([]byte, bool) {
	for _, c := range b.byStripe[stripe] {
		if c.lba == lba {
			return c.data, true
		}
	}
	return nil, false
}

// take removes and returns a stripe's pending chunks.
func (b *stripeBuffer) take(stripe int64) []pendingChunk {
	cs, ok := b.byStripe[stripe]
	if !ok {
		return nil
	}
	delete(b.byStripe, stripe)
	b.count -= len(cs)
	for i, s := range b.order {
		if s == stripe {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	return cs
}

// overCap reports whether the buffer exceeds its capacity.
func (b *stripeBuffer) overCap() bool { return b.count > b.cap }

// oldest returns the stripe id that has waited longest, or -1.
func (b *stripeBuffer) oldest() int64 {
	if len(b.order) == 0 {
		return -1
	}
	return b.order[0]
}

// empty reports whether the buffer holds nothing.
func (b *stripeBuffer) empty() bool { return b.count == 0 }

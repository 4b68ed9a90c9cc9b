package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Geometry of the served array: cmd/eplogserve's flag defaults. The stack
// equivalence test reads the real defaults out of cmd/eplogserve/main.go
// and fails when these drift from them.
const (
	arrayK      = 6
	arrayM      = 2
	arrayStripe = 1024
	chunkSize   = 4096
)

// Load shape, the same for every workload (README "Load shape").
const (
	loadConns = 2
	loadDepth = 16
	// hotFraction is the repo's skew (internal/workload): half the traffic
	// lands on the first 1/hotFraction of a connection's range.
	hotFraction = 8
)

// workloadSpec is one traffic mix. Names are fixed; later issues cite them.
type workloadSpec struct {
	name string
	why  string
	// readPct is the share of single-chunk READs, in percent.
	readPct int
	// stripeWrites makes every write a K-chunk stripe-aligned overwrite
	// instead of a single-chunk update.
	stripeWrites bool
	// degraded fails main-array device 1 after set-up.
	degraded bool
	// openRate is the fixed arrival rate (ops/s over all connections) of
	// the open-loop diagnostic window.
	openRate int
}

var workloads = []workloadSpec{
	{
		name:     "update_skewed",
		why:      "95% 1-chunk updates with locality, the paper's target: every op forms a k'=1 log stripe and feeds fold, dirty window and gate",
		readPct:  5,
		openRate: 5000,
	},
	{
		name:     "read_clean",
		why:      "95% 1-chunk reads: per-frame cost (wire, read batching, seqlock fast path, obs); erasure and gf idle",
		readPct:  95,
		openRate: 40000,
	},
	{
		name:     "read_degraded",
		why:      "read_clean's stream with main device 1 failed: ~1/8 of reads need k survivors and ReconstructData",
		readPct:  95,
		degraded: true,
		openRate: 30000,
	},
	{
		name:         "stripe_overwrite",
		why:          "100% 24 KiB stripe overwrites: bytes dominate ops (payload copies, k'=6 encode, 8 device writes per op)",
		stripeWrites: true,
		openRate:     4000,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// op is one generated request: a single-chunk READ, or a WRITE of chunks
// chunks (1 or K) at lba.
type op struct {
	read   bool
	lba    int64
	chunks int
}

// opGen is a connection's deterministic op stream over its stripe-aligned
// range [lo, lo+chunks). The stream depends on the seed, the connection
// index and the mix only — read_degraded and read_clean share theirs.
type opGen struct {
	spec   workloadSpec
	rng    *rand.Rand
	lo     int64
	chunks int64
}

func newOpGen(spec workloadSpec, seed int64, conn int) *opGen {
	per := int64(arrayStripe / loadConns * arrayK)
	return &opGen{
		spec:   spec,
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(conn))),
		lo:     int64(conn) * per,
		chunks: per,
	}
}

// skewed draws an index in [0, n): half the draws from the first
// 1/hotFraction of the range.
func skewed(rng *rand.Rand, n int64) int64 {
	if rng.Intn(2) == 0 {
		return rng.Int63n(max(n/hotFraction, 1))
	}
	return rng.Int63n(n)
}

func (g *opGen) next() op {
	read := g.rng.Intn(100) < g.spec.readPct
	if !read && g.spec.stripeWrites {
		return op{lba: g.lo + skewed(g.rng, g.chunks/arrayK)*arrayK, chunks: arrayK}
	}
	return op{read: read, lba: g.lo + skewed(g.rng, g.chunks), chunks: 1}
}

// streamHash digests the first n ops of every connection's stream.
func streamHash(spec workloadSpec, seed int64, n int) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for c := 0; c < loadConns; c++ {
		g := newOpGen(spec, seed, c)
		for i := 0; i < n; i++ {
			o := g.next()
			b[0] = 0
			if o.read {
				b[0] = 1
			}
			binary.BigEndian.PutUint64(b[1:], uint64(o.lba))
			binary.BigEndian.PutUint64(b[9:], uint64(o.chunks))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// payloads makes and checks chunk contents. A chunk written as (lba,
// version) is a slice of one pre-generated random body, picked by (lba,
// version), with the 16-byte stamp (lba, version) written over its first
// and its last 16 bytes — so a reader can tell which write it sees, that
// the chunk is not torn, and that every byte in between is right.
type payloads struct {
	body []byte
}

const stampSize = 16

func newPayloads(seed int64) *payloads {
	p := &payloads{body: make([]byte, 1<<20+chunkSize)}
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(p.body)
	return p
}

func (p *payloads) offset(lba int64, ver uint32) int {
	x := uint64(lba)*0x9E3779B97F4A7C15 ^ uint64(ver)*0xC2B2AE3D27D4EB4F
	x ^= x >> 29
	return int(x%(1<<20)) &^ 7
}

// fill writes chunk (lba, ver) into dst, which is one chunk long.
func (p *payloads) fill(dst []byte, lba int64, ver uint32) {
	off := p.offset(lba, ver)
	copy(dst, p.body[off:off+chunkSize])
	binary.BigEndian.PutUint64(dst[0:], uint64(lba))
	binary.BigEndian.PutUint64(dst[8:], uint64(ver))
	copy(dst[chunkSize-stampSize:], dst[:stampSize])
}

// fault classifies a verification failure.
type fault uint8

const (
	faultNone        fault = iota
	faultMisdirected       // the chunk carries another LBA's stamp
	faultTorn              // head and tail stamps differ
	faultStale             // older than the last write acknowledged before the read was sent
	faultFuture            // newer than anything sent
	faultCorrupt           // stamps agree but the body is not that write's
	faultError             // the server answered with an error
	faultKinds
)

var faultNames = [faultKinds]string{"none", "misdirected", "torn", "stale", "future", "corrupt", "error"}

func (f fault) String() string { return faultNames[f] }

// check verifies one chunk read at lba: its version must lie in [lo, hi].
func (p *payloads) check(chunk []byte, lba int64, lo, hi uint32) fault {
	head := chunk[:stampSize]
	if !bytes.Equal(head, chunk[chunkSize-stampSize:]) {
		return faultTorn
	}
	if int64(binary.BigEndian.Uint64(head)) != lba {
		return faultMisdirected
	}
	v := binary.BigEndian.Uint64(head[8:])
	switch {
	case v < uint64(lo):
		return faultStale
	case v > uint64(hi):
		return faultFuture
	}
	off := p.offset(lba, uint32(v))
	if !bytes.Equal(chunk[stampSize:chunkSize-stampSize], p.body[off+stampSize:off+chunkSize-stampSize]) {
		return faultCorrupt
	}
	return faultNone
}

// model is a connection's exact record of what its range must hold. The
// connection owns its LBAs, and never has two writes to one LBA in flight
// (the wire protocol leaves their order open), so for each chunk the
// stored version is known exactly once writes drain, and bounded by
// [acked, issued] while one is in flight.
type model struct {
	lo      int64
	issued  []uint32 // version of the latest write sent
	acked   []uint32 // version of the latest write acknowledged
	writing []bool   // a write is in flight
}

func newModel(lo, chunks int64) *model {
	return &model{
		lo:      lo,
		issued:  make([]uint32, chunks),
		acked:   make([]uint32, chunks),
		writing: make([]bool, chunks),
	}
}

// busy reports whether any chunk of [lba, lba+n) has a write in flight.
func (m *model) busy(lba int64, n int) bool {
	for i := lba - m.lo; i < lba-m.lo+int64(n); i++ {
		if m.writing[i] {
			return true
		}
	}
	return false
}

// beginWrite bumps and returns the version of every chunk in the range
// (they advance together only for stripe writes, but each chunk keeps its
// own counter).
func (m *model) beginWrite(lba int64, i int) uint32 {
	j := lba - m.lo + int64(i)
	m.issued[j]++
	m.writing[j] = true
	return m.issued[j]
}

func (m *model) endWrite(lba int64, n int) {
	for j := lba - m.lo; j < lba-m.lo+int64(n); j++ {
		m.acked[j] = m.issued[j]
		m.writing[j] = false
	}
}

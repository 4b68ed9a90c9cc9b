// Package workload generates the skewed synthetic update/read stream used
// by the soak tools (cmd/eplogsoak, the server soak tests):
// single-chunk updates with a hot set taking half the traffic, periodic
// full-stripe writes, and periodic reads. The stream is deterministic per
// seed, and write payloads are regenerable from per-op seeds — so a
// client-side op log can be replayed bit-identically without recording a
// single payload byte.
package workload

import (
	"fmt"
	"math/rand"
)

// Kind classifies one generated operation.
type Kind uint8

const (
	// Write is a single-chunk update at Op.LBA.
	Write Kind = iota
	// Read is a single-chunk read at Op.LBA.
	Read
	// FullStripe is a full-stripe write: K chunks starting at the
	// stripe-aligned Op.LBA.
	FullStripe
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Write:
		return "write"
	case Read:
		return "read"
	case FullStripe:
		return "full-stripe"
	}
	return "kind-?"
}

// Op is one generated operation. Seed regenerates a write's payload via
// Fill; reads carry Seed 0.
type Op struct {
	Kind   Kind
	LBA    int64
	Chunks int
	Seed   uint64
}

// Config parameterizes a generator.
type Config struct {
	// Lo is the first LBA of the generator's range. For full-stripe ops it
	// must be stripe-aligned (a multiple of K).
	Lo int64
	// Chunks is the range width in chunks; ops stay inside [Lo, Lo+Chunks).
	// For full-stripe ops it must be a multiple of K.
	Chunks int64
	// K is the stripe width in chunks, used by full-stripe ops.
	K int
	// Seed seeds the deterministic stream.
	Seed int64
	// StripeEvery makes every StripeEvery-th op a full-stripe write
	// (<= 0 disables; the soak default is 64).
	StripeEvery int
	// ReadEvery makes every ReadEvery-th op a read (<= 0 disables; the
	// soak default is 16).
	ReadEvery int
	// HotFraction skews the stream: 1/HotFraction of the range takes half
	// the traffic (<= 0 selects 8, the soak skew).
	HotFraction int
}

// DefaultMix applies the soak mix to zero fields: a full-stripe
// write every 64 ops, a read every 16, half the traffic on the first
// eighth of the range.
func (c Config) DefaultMix() Config {
	if c.StripeEvery == 0 {
		c.StripeEvery = 64
	}
	if c.ReadEvery == 0 {
		c.ReadEvery = 16
	}
	if c.HotFraction <= 0 {
		c.HotFraction = 8
	}
	return c
}

// Gen is a deterministic op-stream generator. Not safe for concurrent
// use; give each goroutine its own.
type Gen struct {
	cfg Config
	rng *rand.Rand
	ops uint64
}

// New validates cfg and returns a generator.
func New(cfg Config) (*Gen, error) {
	if cfg.Chunks <= 0 {
		return nil, fmt.Errorf("workload: range of %d chunks", cfg.Chunks)
	}
	if cfg.Lo < 0 {
		return nil, fmt.Errorf("workload: negative range start %d", cfg.Lo)
	}
	if cfg.StripeEvery > 0 {
		if cfg.K <= 0 {
			return nil, fmt.Errorf("workload: full-stripe ops need K > 0")
		}
		if cfg.Lo%int64(cfg.K) != 0 || cfg.Chunks%int64(cfg.K) != 0 {
			return nil, fmt.Errorf("workload: range [%d,+%d) not stripe-aligned for K=%d", cfg.Lo, cfg.Chunks, cfg.K)
		}
	}
	if cfg.HotFraction <= 0 {
		cfg.HotFraction = 8
	}
	return &Gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Next returns the stream's next op.
func (g *Gen) Next() Op {
	n := g.ops
	g.ops++
	if se := g.cfg.StripeEvery; se > 0 && n%uint64(se) == uint64(se-1) {
		stripes := g.cfg.Chunks / int64(g.cfg.K)
		s := g.rng.Int63n(stripes)
		return Op{Kind: FullStripe, LBA: g.cfg.Lo + s*int64(g.cfg.K), Chunks: g.cfg.K, Seed: g.rng.Uint64()}
	}
	// Skew: half the traffic lands on the first 1/HotFraction of the range.
	var lba int64
	if g.rng.Intn(2) == 0 {
		lba = g.rng.Int63n(max(g.cfg.Chunks/int64(g.cfg.HotFraction), 1))
	} else {
		lba = g.rng.Int63n(g.cfg.Chunks)
	}
	lba += g.cfg.Lo
	if re := g.cfg.ReadEvery; re > 0 && n%uint64(re) == uint64(re-1) {
		return Op{Kind: Read, LBA: lba, Chunks: 1}
	}
	return Op{Kind: Write, LBA: lba, Chunks: 1, Seed: g.rng.Uint64()}
}

// Fill fills p with the deterministic payload bytes of a write op's seed —
// an xorshift64* stream, cheap enough for the soak hot loop and stable
// across runs, so a replay regenerates identical payloads from the op log.
func Fill(p []byte, seed uint64) {
	x := seed | 1 // xorshift needs a nonzero state
	for i := 0; i < len(p); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := x * 0x2545F4914F6CDD1D
		for j := i; j < i+8 && j < len(p); j++ {
			p[j] = byte(v)
			v >>= 8
		}
	}
}

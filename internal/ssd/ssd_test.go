package ssd

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/eplog/eplog/internal/device"
)

// smallParams returns a tiny SSD: 32 blocks of 4 pages of 64 bytes,
// over-provisioned 25% -> 96 logical pages.
func smallParams() Params {
	return Params{
		PageSize:       64,
		PagesPerBlock:  4,
		Blocks:         32,
		OverProvision:  0.25,
		GCThreshold:    0.10,
		PageReadTime:   1e-5,
		PageWriteTime:  2e-5,
		BlockEraseTime: 1e-3,
	}
}

func mustNew(t *testing.T, p Params) *Device {
	t.Helper()
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero page size", func(p *Params) { p.PageSize = 0 }},
		{"zero pages per block", func(p *Params) { p.PagesPerBlock = 0 }},
		{"one block", func(p *Params) { p.Blocks = 1 }},
		{"no overprovision", func(p *Params) { p.OverProvision = 0 }},
		{"full overprovision", func(p *Params) { p.OverProvision = 1 }},
		{"zero threshold", func(p *Params) { p.GCThreshold = 0 }},
		{"unit threshold", func(p *Params) { p.GCThreshold = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := smallParams()
			tt.mutate(&p)
			if _, err := New(p); err == nil {
				t.Error("invalid params accepted")
			}
		})
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(20 << 30)
	if p.Blocks != 20<<30/(4096*64) {
		t.Errorf("Blocks = %d", p.Blocks)
	}
	// Instantiate a small one to confirm the defaults are accepted.
	small, err := New(DefaultParams(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	wantLogical := int64(float64(small.Params().Blocks*small.Params().PagesPerBlock) * 0.85)
	if small.Chunks() != wantLogical {
		t.Errorf("logical chunks = %d, want %d", small.Chunks(), wantLogical)
	}
}

func TestReadUnwrittenReturnsZeroes(t *testing.T) {
	d := mustNew(t, smallParams())
	p := bytes.Repeat([]byte{0xFF}, 64)
	if err := d.ReadChunk(10, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, 64)) {
		t.Fatal("unwritten chunk did not read as zeroes")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := mustNew(t, smallParams())
	w := bytes.Repeat([]byte{0x5A}, 64)
	if err := d.WriteChunk(7, w); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := d.ReadChunk(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, w) {
		t.Fatal("read back wrong data")
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteReturnsLatest(t *testing.T) {
	d := mustNew(t, smallParams())
	got := make([]byte, 64)
	for v := 0; v < 10; v++ {
		w := bytes.Repeat([]byte{byte(v)}, 64)
		if err := d.WriteChunk(3, w); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadChunk(3, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("after overwrite %d: wrong data", v)
		}
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsAndSizes(t *testing.T) {
	d := mustNew(t, smallParams())
	p := make([]byte, 64)
	if err := d.ReadChunk(d.Chunks(), p); !errors.Is(err, device.ErrOutOfRange) {
		t.Errorf("out-of-range read error = %v", err)
	}
	if err := d.WriteChunk(-1, p); !errors.Is(err, device.ErrOutOfRange) {
		t.Errorf("negative write error = %v", err)
	}
	if err := d.ReadChunk(0, make([]byte, 63)); !errors.Is(err, device.ErrSizeChunk) {
		t.Errorf("short read buffer error = %v", err)
	}
	if err := d.WriteChunk(0, make([]byte, 65)); !errors.Is(err, device.ErrSizeChunk) {
		t.Errorf("long write buffer error = %v", err)
	}
	if err := d.Trim(0, d.Chunks()+1); !errors.Is(err, device.ErrOutOfRange) {
		t.Errorf("out-of-range trim error = %v", err)
	}
}

func TestGeometry(t *testing.T) {
	p := smallParams()
	d := mustNew(t, p)
	wantLogical := int64(float64(p.Blocks*p.PagesPerBlock) * (1 - p.OverProvision))
	if d.Chunks() != wantLogical {
		t.Errorf("Chunks = %d, want %d", d.Chunks(), wantLogical)
	}
	if d.ChunkSize() != p.PageSize {
		t.Errorf("ChunkSize = %d, want %d", d.ChunkSize(), p.PageSize)
	}
	if d.Params().Blocks != p.Blocks {
		t.Error("Params not round-tripped")
	}
}

// TestGCPreservesData fills the logical space, then overwrites it several
// times over, forcing heavy garbage collection; every chunk must still read
// back its latest value.
func TestGCPreservesData(t *testing.T) {
	d := mustNew(t, smallParams())
	n := d.Chunks()
	r := rand.New(rand.NewSource(1))
	shadow := make([][]byte, n)
	buf := make([]byte, 64)

	// Initial fill.
	for i := int64(0); i < n; i++ {
		r.Read(buf)
		shadow[i] = bytes.Clone(buf)
		if err := d.WriteChunk(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Random overwrites: 4x the logical space.
	for w := int64(0); w < 4*n; w++ {
		i := int64(r.Intn(int(n)))
		r.Read(buf)
		shadow[i] = bytes.Clone(buf)
		if err := d.WriteChunk(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().GCInvocations == 0 {
		t.Fatal("workload did not trigger GC; test is not exercising the FTL")
	}
	for i := int64(0); i < n; i++ {
		if err := d.ReadChunk(i, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[i]) {
			t.Fatalf("chunk %d corrupted after GC", i)
		}
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCWatermarkMaintained(t *testing.T) {
	p := smallParams()
	d := mustNew(t, p)
	buf := make([]byte, 64)
	r := rand.New(rand.NewSource(2))
	for w := 0; w < int(6*d.Chunks()); w++ {
		r.Read(buf)
		if err := d.WriteChunk(int64(r.Intn(int(d.Chunks()))), buf); err != nil {
			t.Fatal(err)
		}
		watermark := int(p.GCThreshold * float64(p.Blocks))
		if d.CleanBlocks() < watermark-1 {
			t.Fatalf("clean blocks %d below watermark %d", d.CleanBlocks(), watermark)
		}
	}
}

func TestSequentialBeatsRandomOnGC(t *testing.T) {
	// Sequential overwrites generate fully stale victim blocks (no page
	// movement); random overwrites of the same volume move pages. This
	// is the mechanism behind EPLog's GC advantage over PL (no-overwrite
	// sequential logical writes).
	run := func(sequential bool) Stats {
		d, err := New(smallParams())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		r := rand.New(rand.NewSource(3))
		n := int(d.Chunks())
		for i := 0; i < n; i++ {
			if err := d.WriteChunk(int64(i), buf); err != nil {
				t.Fatal(err)
			}
		}
		for w := 0; w < 5*n; w++ {
			var idx int64
			if sequential {
				idx = int64(w % n)
			} else {
				idx = int64(r.Intn(n))
			}
			if err := d.WriteChunk(idx, buf); err != nil {
				t.Fatal(err)
			}
		}
		return d.Stats()
	}
	seq, rnd := run(true), run(false)
	if seq.PagesMoved >= rnd.PagesMoved {
		t.Errorf("sequential moved %d pages, random moved %d; expected fewer for sequential",
			seq.PagesMoved, rnd.PagesMoved)
	}
	if seq.WriteAmplification() >= rnd.WriteAmplification() {
		t.Errorf("sequential WA %.3f >= random WA %.3f", seq.WriteAmplification(), rnd.WriteAmplification())
	}
}

func TestTrimReducesGCWork(t *testing.T) {
	run := func(trim bool) Stats {
		d, err := New(smallParams())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n := int(d.Chunks())
		r := rand.New(rand.NewSource(4))
		for i := 0; i < n; i++ {
			if err := d.WriteChunk(int64(i), buf); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 6; round++ {
			if trim {
				// Drop the colder half before rewriting it.
				if err := d.Trim(int64(n/2), int64(n/2)); err != nil {
					t.Fatal(err)
				}
			}
			for w := 0; w < n/2; w++ {
				if err := d.WriteChunk(int64(n/2+r.Intn(n/2)), buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		return d.Stats()
	}
	with, without := run(true), run(false)
	if with.PagesMoved >= without.PagesMoved {
		t.Errorf("trim moved %d pages, no-trim moved %d; expected fewer with trim",
			with.PagesMoved, without.PagesMoved)
	}
}

func TestTrimmedChunkReadsZero(t *testing.T) {
	d := mustNew(t, smallParams())
	w := bytes.Repeat([]byte{1}, 64)
	if err := d.WriteChunk(2, w); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(2, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := d.ReadChunk(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("trimmed chunk did not read as zeroes")
	}
	if d.Stats().Trims != 1 {
		t.Errorf("Trims = %d, want 1", d.Stats().Trims)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := mustNew(t, smallParams())
	buf := make([]byte, 64)
	for i := 0; i < 5; i++ {
		if err := d.WriteChunk(int64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ReadChunk(0, buf); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.HostWrites != 5 || s.HostWriteBytes != 5*64 || s.HostReads != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.WriteAmplification() != 1 {
		t.Errorf("WA with no GC = %v, want 1", s.WriteAmplification())
	}
	d.ResetStats()
	if d.Stats().HostWrites != 0 {
		t.Error("ResetStats did not clear counters")
	}
	// WA of an empty device is defined as 1.
	if (Stats{}).WriteAmplification() != 1 {
		t.Error("zero-stats WA != 1")
	}
}

func TestLatencyAccumulates(t *testing.T) {
	p := smallParams()
	d := mustNew(t, p)
	buf := make([]byte, 64)
	end1, err := d.WriteChunkAt(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if end1 != p.PageWriteTime {
		t.Fatalf("first write end = %v, want %v", end1, p.PageWriteTime)
	}
	// Submitted in the past: starts when the device frees up.
	end2, err := d.WriteChunkAt(0, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if end2 != 2*p.PageWriteTime {
		t.Fatalf("second write end = %v, want %v", end2, 2*p.PageWriteTime)
	}
	// Submitted after an idle gap: starts at the submission time.
	end3, err := d.ReadChunkAt(1.0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if end3 != 1.0+p.PageReadTime {
		t.Fatalf("read end = %v, want %v", end3, 1.0+p.PageReadTime)
	}
}

func TestGCLatencyCharged(t *testing.T) {
	d := mustNew(t, smallParams())
	buf := make([]byte, 64)
	var now float64
	var maxCost float64
	for w := 0; w < int(5*d.Chunks()); w++ {
		end, err := d.WriteChunkAt(now, int64(w%int(d.Chunks())), buf)
		if err != nil {
			t.Fatal(err)
		}
		if cost := end - now; cost > maxCost {
			maxCost = cost
		}
		now = end
	}
	if d.Stats().GCInvocations == 0 {
		t.Fatal("no GC triggered")
	}
	if maxCost < smallParams().BlockEraseTime {
		t.Errorf("max write cost %v never included an erase (%v)", maxCost, smallParams().BlockEraseTime)
	}
}

// TestQuickFTLConsistency drives random operations and checks the full
// internal invariant set plus read-your-writes.
func TestQuickFTLConsistency(t *testing.T) {
	d := mustNew(t, smallParams())
	shadow := make(map[int64][]byte)
	n := d.Chunks()
	prop := func(op uint8, idxRaw uint16, fill byte) bool {
		idx := int64(idxRaw) % n
		buf := bytes.Repeat([]byte{fill}, 64)
		switch op % 3 {
		case 0: // write
			if err := d.WriteChunk(idx, buf); err != nil {
				return false
			}
			shadow[idx] = bytes.Clone(buf)
		case 1: // read
			got := make([]byte, 64)
			if err := d.ReadChunk(idx, got); err != nil {
				return false
			}
			want, ok := shadow[idx]
			if !ok {
				want = make([]byte, 64)
			}
			if !bytes.Equal(got, want) {
				return false
			}
		case 2: // trim
			if err := d.Trim(idx, 1); err != nil {
				return false
			}
			delete(shadow, idx)
		}
		return d.checkInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkRandomOverwrite(b *testing.B) {
	p := DefaultParams(64 << 20) // 64MB device
	d, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, p.PageSize)
	n := int(d.Chunks())
	// Precondition: fill once.
	for i := 0; i < n; i++ {
		if err := d.WriteChunk(int64(i), buf); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(6))
	b.SetBytes(int64(p.PageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteChunk(int64(r.Intn(n)), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWearLevelingNarrowsSpread runs a skewed workload (a few hot chunks)
// with and without static wear leveling: enabling it must shrink the
// erase-count spread while preserving data.
func TestWearLevelingNarrowsSpread(t *testing.T) {
	run := func(threshold int) (spread int, moves int64, d *Device) {
		p := smallParams()
		p.WearLevelThreshold = threshold
		d, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n := int(d.Chunks())
		for i := 0; i < n; i++ {
			if err := d.WriteChunk(int64(i), buf); err != nil {
				t.Fatal(err)
			}
		}
		// Hammer a tiny hot set; the cold majority pins its blocks.
		for w := 0; w < 20*n; w++ {
			if err := d.WriteChunk(int64(w%8), buf); err != nil {
				t.Fatal(err)
			}
		}
		return d.EraseSpread(), d.Stats().WearLevelMoves, d
	}
	spreadOff, movesOff, _ := run(0)
	spreadOn, movesOn, d := run(4)
	if movesOff != 0 {
		t.Errorf("wear leveling ran while disabled: %d moves", movesOff)
	}
	if movesOn == 0 {
		t.Fatal("wear leveling never triggered")
	}
	if spreadOn >= spreadOff {
		t.Errorf("erase spread with WL %d >= without %d", spreadOn, spreadOff)
	}
	// Data still correct after migrations.
	got := make([]byte, 64)
	for i := int64(0); i < d.Chunks(); i++ {
		if err := d.ReadChunk(i, got); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChannelParallelism: reads hitting different channels overlap in
// virtual time; a single channel serializes them.
func TestChannelParallelism(t *testing.T) {
	mk := func(channels int) *Device {
		p := smallParams()
		p.Channels = channels
		d, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		// Fill enough chunks to span several blocks (4 pages per block).
		for i := int64(0); i < 16; i++ {
			if err := d.WriteChunk(i, buf); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	read16 := func(d *Device) float64 {
		buf := make([]byte, 64)
		end := 0.0
		for i := int64(0); i < 16; i++ {
			e, err := d.ReadChunkAt(0, i, buf)
			if err != nil {
				t.Fatal(err)
			}
			if e > end {
				end = e
			}
		}
		return end
	}

	serial := read16(mk(1))
	parallel := read16(mk(4))
	if parallel >= serial {
		t.Errorf("4-channel reads (%v) not faster than 1-channel (%v)", parallel, serial)
	}
	// With 4 channels and the fill striped across 4 blocks, reads should
	// approach a 4x overlap.
	if parallel > serial/2 {
		t.Errorf("4-channel speedup too small: %v vs %v", parallel, serial)
	}
}

// TestLogicalStoreMatchesPhysicalReference drives seeded streams of writes,
// reads and trims — enough to run GC many times over, with wear leveling on
// in some — through Device and through physRef, the physical-page store it
// replaced. Remapping instead of copying must leave everything observable
// unchanged: every op's completion time, the Stats, and every chunk's
// contents.
func TestLogicalStoreMatchesPhysicalReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		wear     int
		channels int
		trims    bool
	}{
		{"gc", 0, 1, false},
		{"gc+trim", 0, 1, true},
		{"gc+wear", 4, 1, false},
		{"gc+wear+trim/4ch", 3, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := smallParams()
			p.WearLevelThreshold, p.Channels = tc.wear, tc.channels
			d, ref := mustNew(t, p), newPhysRef(p)
			if got, want := len(d.data), int(d.Chunks())*p.PageSize; got != want {
				t.Fatalf("len(data) = %d, want logical pages x page size = %d", got, want)
			}
			n := int(d.Chunks())
			r := rand.New(rand.NewSource(int64(len(tc.name))))
			buf, got, want := make([]byte, p.PageSize), make([]byte, p.PageSize), make([]byte, p.PageSize)
			var now float64
			for op := 0; op < 40*n; op++ {
				now += float64(r.Intn(3)) * p.PageWriteTime
				idx := int64(r.Intn(n))
				if r.Intn(4) > 0 {
					idx = int64(r.Intn(n / 8)) // a hot eighth keeps cold blocks pinned for wear leveling
				}
				switch x := r.Intn(10); {
				case x < 7:
					r.Read(buf)
					endD, errD := d.WriteChunkAt(now, idx, buf)
					endR, errR := ref.WriteChunkAt(now, idx, buf)
					if endD != endR || (errD == nil) != (errR == nil) {
						t.Fatalf("op %d: write of %d ends at %v (%v), reference at %v (%v)", op, idx, endD, errD, endR, errR)
					}
				case x < 9 || !tc.trims:
					endD, errD := d.ReadChunkAt(now, idx, got)
					endR, errR := ref.ReadChunkAt(now, idx, want)
					if endD != endR || errD != nil || errR != nil || !bytes.Equal(got, want) {
						t.Fatalf("op %d: read of %d ends at %v (%v), reference at %v (%v), same bytes %v",
							op, idx, endD, errD, endR, errR, bytes.Equal(got, want))
					}
				default:
					span := min(int64(1+r.Intn(4)), int64(n)-idx)
					if errD, errR := d.Trim(idx, span), ref.Trim(idx, span); errD != nil || errR != nil {
						t.Fatalf("op %d: trim: %v, reference %v", op, errD, errR)
					}
				}
				if d.Stats() != ref.stats {
					t.Fatalf("op %d: stats diverged:\n logical   %+v\n reference %+v", op, d.Stats(), ref.stats)
				}
			}
			s := d.Stats()
			if s.GCInvocations == 0 || s.PagesMoved == 0 || (tc.wear > 0 && s.WearLevelMoves == 0) || (tc.trims && s.Trims == 0) {
				t.Fatalf("stream did not exercise the FTL: %+v", s)
			}
			for i := int64(0); i < int64(n); i++ {
				if _, err := d.ReadChunkAt(0, i, got); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.ReadChunkAt(0, i, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("chunk %d reads back differently from the reference", i)
				}
			}
			if err := d.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

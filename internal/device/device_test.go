package device

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/eplog/eplog/internal/obs"
)

func TestMemReadWriteRoundTrip(t *testing.T) {
	m := NewMem(8, 16)
	p := make([]byte, 16)
	for i := range p {
		p[i] = byte(i)
	}
	if err := m.WriteChunk(3, p); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := m.ReadChunk(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatalf("read back %v, want %v", got, p)
	}
	// Neighbouring chunks are untouched.
	if err := m.ReadChunk(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatal("write bled into neighbouring chunk")
	}
}

func TestMemBoundsAndSize(t *testing.T) {
	m := NewMem(4, 8)
	p := make([]byte, 8)
	if err := m.ReadChunk(4, p); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range read error = %v", err)
	}
	if err := m.WriteChunk(-1, p); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative-index write error = %v", err)
	}
	if err := m.WriteChunk(0, make([]byte, 7)); !errors.Is(err, ErrSizeChunk) {
		t.Errorf("short-buffer write error = %v", err)
	}
	if err := m.Trim(2, 3); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range trim error = %v", err)
	}
}

func TestMemTrimZeroes(t *testing.T) {
	m := NewMem(4, 4)
	p := []byte{1, 2, 3, 4}
	if err := m.WriteChunk(1, p); err != nil {
		t.Fatal(err)
	}
	if err := m.Trim(0, 4); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := m.ReadChunk(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Fatal("trim did not clear data")
	}
}

func TestMemQuickRoundTrip(t *testing.T) {
	m := NewMem(64, 32)
	shadow := make(map[int64][]byte)
	prop := func(idxRaw uint16, data [32]byte) bool {
		idx := int64(idxRaw % 64)
		if err := m.WriteChunk(idx, data[:]); err != nil {
			return false
		}
		shadow[idx] = bytes.Clone(data[:])
		// Verify every chunk written so far.
		got := make([]byte, 32)
		for i, want := range shadow {
			if err := m.ReadChunk(i, got); err != nil {
				return false
			}
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := OpenFile(path, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{0xAB}, 32)
	if err := d.WriteChunk(5, p); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Data persists across reopen.
	d2, err := OpenFile(path, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	if err := d2.ReadChunk(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("file device lost data across reopen")
	}
	if err := d2.Trim(0, 16); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	// Operations after close fail.
	if err := d2.ReadChunk(0, got); err == nil {
		t.Fatal("read after close succeeded")
	}
	if err := d2.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close error = %v", err)
	}
}

func TestCounting(t *testing.T) {
	c := NewCounting(NewMem(8, 16))
	p := make([]byte, 16)
	for i := 0; i < 3; i++ {
		if err := c.WriteChunk(int64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ReadChunk(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteChunkAt(0, 4, p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadChunkAt(0, 4, p); err != nil {
		t.Fatal(err)
	}
	if err := c.Trim(0, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := c.WriteOps(), int64(4); got != want {
		t.Errorf("WriteOps = %d, want %d", got, want)
	}
	if got, want := c.ReadOps(), int64(2); got != want {
		t.Errorf("ReadOps = %d, want %d", got, want)
	}
	if got, want := c.WriteBytes(), int64(64); got != want {
		t.Errorf("WriteBytes = %d, want %d", got, want)
	}
	if got, want := c.ReadBytes(), int64(32); got != want {
		t.Errorf("ReadBytes = %d, want %d", got, want)
	}
	if got, want := c.TrimOps(), int64(1); got != want {
		t.Errorf("TrimOps = %d, want %d", got, want)
	}
	// Failed operations are not counted.
	if err := c.WriteChunk(100, p); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if got := c.WriteOps(); got != 4 {
		t.Errorf("failed write was counted: WriteOps = %d", got)
	}
	c.Reset()
	if c.WriteOps() != 0 || c.ReadBytes() != 0 || c.TrimOps() != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestTraced(t *testing.T) {
	sink := obs.NewSink()
	d := NewTraced(WithLatency(NewMem(8, 16), 0.25, 1.0), "t0", sink)
	if d.Name() != "t0" {
		t.Fatalf("Name = %q, want t0", d.Name())
	}
	if d.Chunks() != 8 || d.ChunkSize() != 16 {
		t.Fatal("geometry not forwarded")
	}
	p := make([]byte, 16)
	for i := 0; i < 3; i++ {
		if err := d.WriteChunk(int64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ReadChunk(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteChunkAt(100, 4, p); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadChunkAt(200, 4, p); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(0, 2); err != nil {
		t.Fatal(err)
	}
	// Failed operations are not counted.
	if err := d.WriteChunk(100, p); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	snap := sink.Snapshot()
	for name, want := range map[string]int64{
		"dev.t0.write_ops":   4,
		"dev.t0.read_ops":    2,
		"dev.t0.trim_ops":    1,
		"dev.t0.write_bytes": 64,
		"dev.t0.read_bytes":  32,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Only the timed operations observe latencies, and the latency device
	// makes them the known service times.
	wl := snap.Histograms["dev.t0.write_latency"]
	rl := snap.Histograms["dev.t0.read_latency"]
	if wl.Count != 1 || rl.Count != 1 {
		t.Fatalf("latency counts = %d write, %d read; want 1 and 1", wl.Count, rl.Count)
	}
	if wl.Sum != 1.0 || rl.Sum != 0.25 {
		t.Errorf("latency sums = %g write, %g read; want 1 and 0.25", wl.Sum, rl.Sum)
	}
	// A nil sink yields a functional pass-through wrapper.
	n := NewTraced(NewMem(2, 8), "x", nil)
	q := make([]byte, 8)
	if err := n.WriteChunk(0, q); err != nil {
		t.Fatal(err)
	}
	if err := n.ReadChunk(0, q); err != nil {
		t.Fatal(err)
	}
}

func TestFaulty(t *testing.T) {
	f := NewFaulty(NewMem(4, 8))
	p := make([]byte, 8)
	if err := f.WriteChunk(0, p); err != nil {
		t.Fatal(err)
	}
	f.Fail()
	if !f.Failed() {
		t.Fatal("Failed() = false after Fail()")
	}
	if err := f.ReadChunk(0, p); !errors.Is(err, ErrFailed) {
		t.Errorf("read on failed device error = %v", err)
	}
	if err := f.WriteChunk(0, p); !errors.Is(err, ErrFailed) {
		t.Errorf("write on failed device error = %v", err)
	}
	if _, err := f.ReadChunkAt(0, 0, p); !errors.Is(err, ErrFailed) {
		t.Errorf("timed read on failed device error = %v", err)
	}
	if _, err := f.WriteChunkAt(0, 0, p); !errors.Is(err, ErrFailed) {
		t.Errorf("timed write on failed device error = %v", err)
	}
	if err := f.Trim(0, 1); !errors.Is(err, ErrFailed) {
		t.Errorf("trim on failed device error = %v", err)
	}
	f.Repair()
	if err := f.ReadChunk(0, p); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
}

func TestMirrorSurvivesReplicaFailure(t *testing.T) {
	a := NewFaulty(NewMem(4, 8))
	b := NewFaulty(NewMem(4, 8))
	m, err := NewMirror(a, b)
	if err != nil {
		t.Fatal(err)
	}
	p := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.WriteChunk(1, p); err != nil {
		t.Fatal(err)
	}
	a.Fail()
	got := make([]byte, 8)
	if err := m.ReadChunk(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("mirror read wrong data after replica failure")
	}
	// Writes continue on the surviving replica and are visible after the
	// failed one returns (stale) — reads must still prefer a healthy copy.
	q := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	if err := m.WriteChunk(1, q); err != nil {
		t.Fatal(err)
	}
	b.Fail()
	if err := m.ReadChunk(1, got); !errors.Is(err, ErrFailed) {
		t.Fatalf("read with all replicas failed error = %v", err)
	}
	if err := m.WriteChunk(1, q); !errors.Is(err, ErrFailed) {
		t.Fatalf("write with all replicas failed error = %v", err)
	}
}

func TestMirrorValidation(t *testing.T) {
	if _, err := NewMirror(); err == nil {
		t.Error("empty mirror accepted")
	}
	if _, err := NewMirror(NewMem(4, 8), NewMem(4, 16)); err == nil {
		t.Error("mismatched replica geometry accepted")
	}
}

func TestMirrorTrimAndGeometry(t *testing.T) {
	a, b := NewMem(4, 8), NewMem(4, 8)
	m, err := NewMirror(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Chunks() != 4 || m.ChunkSize() != 8 {
		t.Fatal("mirror geometry mismatch")
	}
	if err := m.Trim(0, 4); err != nil {
		t.Fatal(err)
	}
}

func TestSpanParallelAcrossDevices(t *testing.T) {
	d1 := WithLatency(NewMem(4, 8), 1, 2)
	d2 := WithLatency(NewMem(4, 8), 1, 5)
	p := make([]byte, 8)

	s := NewSpan(10)
	if err := s.Write(d1, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(d2, 0, p); err != nil {
		t.Fatal(err)
	}
	// Both writes start at t=10 in parallel; span ends with the slower.
	if got := s.End(); got != 15 {
		t.Fatalf("span end = %v, want 15", got)
	}

	// Two ops on the same device serialize.
	s2 := s.Next()
	if s2.Start() != 15 {
		t.Fatalf("next span start = %v, want 15", s2.Start())
	}
	if err := s2.Read(d1, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s2.Read(d1, 1, p); err != nil {
		t.Fatal(err)
	}
	if got := s2.End(); got != 17 {
		t.Fatalf("serialized span end = %v, want 17", got)
	}
}

func TestSpanErrorSticks(t *testing.T) {
	d := WithLatency(NewMem(2, 8), 1, 1)
	s := NewSpan(0)
	p := make([]byte, 8)
	if err := s.Read(d, 99, p); err == nil {
		t.Fatal("out-of-range read through span succeeded")
	}
	if s.Err() == nil {
		t.Fatal("span did not record error")
	}
	// Subsequent operations short-circuit with the same error.
	if err := s.Write(d, 0, p); err == nil {
		t.Fatal("span accepted op after error")
	}
}

func TestSpanExtend(t *testing.T) {
	s := NewSpan(5)
	s.Extend(3) // earlier than start: ignored
	if s.End() != 5 {
		t.Fatalf("End = %v, want 5", s.End())
	}
	s.Extend(9)
	if s.End() != 9 {
		t.Fatalf("End = %v, want 9", s.End())
	}
}

func TestLatencyWrapper(t *testing.T) {
	l := WithLatency(NewMem(8, 16), 0.25, 1.0)
	p := make([]byte, 16)
	end, err := l.WriteChunkAt(0, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if end != 1.0 {
		t.Fatalf("write end = %v, want 1.0", end)
	}
	// Back-to-back ops serialize on the device.
	end, err = l.ReadChunkAt(0, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if end != 1.25 {
		t.Fatalf("read end = %v, want 1.25", end)
	}
	// A later submission starts at its own time.
	end, err = l.ReadChunkAt(5, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if end != 5.25 {
		t.Fatalf("idle-gap read end = %v, want 5.25", end)
	}
	if l.Free() != 5.25 {
		t.Fatalf("Free = %v", l.Free())
	}
	// Untimed operations advance the clock too.
	if err := l.WriteChunk(1, p); err != nil {
		t.Fatal(err)
	}
	if l.Free() != 6.25 {
		t.Fatalf("Free after untimed write = %v, want 6.25", l.Free())
	}
	// Errors pass through without advancing the clock.
	if _, err := l.ReadChunkAt(0, 99, p); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if l.Free() != 6.25 {
		t.Fatal("failed op advanced the clock")
	}
	if err := l.Trim(0, 2); err != nil {
		t.Fatal(err)
	}
	if l.Chunks() != 8 || l.ChunkSize() != 16 {
		t.Fatal("geometry not forwarded")
	}
}

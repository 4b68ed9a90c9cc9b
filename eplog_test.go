package eplog_test

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/eplog/eplog"
	"github.com/eplog/eplog/internal/trace"
)

const (
	chunk   = 4096
	stripes = 64
)

func newArray(t *testing.T, cfg eplog.Config) (*eplog.Array, []*eplog.FaultyDevice, []*eplog.FaultyDevice) {
	t.Helper()
	if cfg.K == 0 {
		cfg.K = 6
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = stripes
	}
	n := cfg.K + 2
	devs := make([]eplog.BlockDevice, n)
	fmain := make([]*eplog.FaultyDevice, n)
	for i := range devs {
		f := eplog.NewFaultyDevice(eplog.NewMemDevice(cfg.Stripes*3, chunk))
		fmain[i] = f
		devs[i] = f
	}
	logs := make([]eplog.BlockDevice, 2)
	flogs := make([]*eplog.FaultyDevice, 2)
	for i := range logs {
		f := eplog.NewFaultyDevice(eplog.NewMemDevice(8192, chunk))
		flogs[i] = f
		logs[i] = f
	}
	a, err := eplog.New(devs, logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, fmain, flogs
}

func TestPublicRoundTrip(t *testing.T) {
	a, _, _ := newArray(t, eplog.Config{})
	data := make([]byte, a.Chunks()*int64(chunk))
	rand.New(rand.NewSource(1)).Read(data)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if a.ChunkSize() != chunk {
		t.Errorf("ChunkSize = %d", a.ChunkSize())
	}
}

func TestPublicDegradedAndRebuild(t *testing.T) {
	a, fmain, _ := newArray(t, eplog.Config{})
	data := make([]byte, a.Chunks()*int64(chunk))
	r := rand.New(rand.NewSource(2))
	r.Read(data)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	upd := make([]byte, 3*chunk)
	r.Read(upd)
	if err := a.Write(5, upd); err != nil {
		t.Fatal(err)
	}
	copy(data[5*chunk:], upd)

	fmain[2].Fail()
	fmain[6].Fail()
	got := make([]byte, len(data))
	if err := a.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("double-degraded read mismatch")
	}
	if err := a.Rebuild(2, eplog.NewMemDevice(stripes*3, chunk)); err != nil {
		t.Fatal(err)
	}
	if err := a.Rebuild(6, eplog.NewMemDevice(stripes*3, chunk)); err != nil {
		t.Fatal(err)
	}
	if err := a.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-rebuild read mismatch")
	}
}

func TestPublicCommitAndLogRecovery(t *testing.T) {
	a, fmain, flogs := newArray(t, eplog.Config{})
	data := make([]byte, a.Chunks()*int64(chunk))
	r := rand.New(rand.NewSource(5))
	r.Read(data)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	update := func(lba int64, n int) {
		t.Helper()
		upd := make([]byte, n*chunk)
		r.Read(upd)
		if err := a.Write(lba, upd); err != nil {
			t.Fatal(err)
		}
		copy(data[lba*chunk:], upd)
	}
	update(3, 1)
	if a.PendingLogStripes() == 0 {
		t.Fatal("update produced no log stripe")
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if a.PendingLogStripes() != 0 {
		t.Error("commit left pending log stripes")
	}

	// Lose a log device while updates are pending: their only redundancy
	// is the log stripes, so recovery must commit parity before it swaps
	// in the replacement.
	update(3, 1)
	update(20, 3)
	update(41, 2)
	if a.PendingLogStripes() == 0 {
		t.Fatal("updates produced no log stripe")
	}
	flogs[0].Fail()
	if err := a.RecoverLogDevice(0, eplog.NewMemDevice(8192, chunk)); err != nil {
		t.Fatal(err)
	}
	if a.PendingLogStripes() != 0 {
		t.Error("log-device recovery left pending log stripes")
	}
	if s := a.Stats(); s.Commits < 2 {
		t.Errorf("stats = %+v", s)
	}

	// Full protection is back: a later SSD failure still decodes every byte.
	fmain[0].Fail()
	got := make([]byte, len(data))
	if err := a.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read after log-device recovery mismatch")
	}
}

func TestPublicCheckpointRestart(t *testing.T) {
	cfg := eplog.Config{K: 4, Stripes: 32}
	n := 6
	devs := make([]eplog.BlockDevice, n)
	for i := range devs {
		devs[i] = eplog.NewMemDevice(128, chunk)
	}
	logs := []eplog.BlockDevice{eplog.NewMemDevice(4096, chunk), eplog.NewMemDevice(4096, chunk)}
	a, err := eplog.New(devs, logs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Checkpoint(true); !errors.Is(err, eplog.ErrNoMetadataVolume) {
		t.Fatalf("checkpoint without volume error = %v", err)
	}

	meta := eplog.NewMemDevice(2048, chunk)
	if err := a.FormatMetadataVolume(meta, 512); err != nil {
		t.Fatal(err)
	}

	data := make([]byte, a.Chunks()*int64(chunk))
	r := rand.New(rand.NewSource(3))
	r.Read(data)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	upd := make([]byte, 2*chunk)
	r.Read(upd)
	if err := a.Write(7, upd); err != nil {
		t.Fatal(err)
	}
	copy(data[7*chunk:], upd)
	if err := a.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	pending := a.PendingLogStripes()
	if pending == 0 {
		t.Fatal("update produced no log stripe")
	}

	// "Restart": reopen from the metadata volume over the same devices.
	b, err := eplog.Open(devs, logs, cfg, meta)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := b.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reopened array returned wrong contents")
	}
	// The checkpoint carries the pending updates' recovery metadata, so
	// the reopened array can still commit them.
	if n := b.PendingLogStripes(); n != pending {
		t.Fatalf("reopened array has %d pending log stripes, want %d", n, pending)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := b.PendingLogStripes(); n != 0 {
		t.Errorf("post-restart commit left %d pending log stripes", n)
	}
	if err := b.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-restart commit changed the contents")
	}
}

// TestUnpressuredFlashEPLogCollectsNoGarbage pins the unpressured regime
// EXPERIMENTS.md's first deviation cites: an OLTP-style update stream (the
// FIN profile at 1/256 scale) on simulated flash sized so conventional RAID
// overwrites it about once. MD then garbage-collects, EPLog never does, and
// flash writes fall MD > EPLog > EPLog with 64-chunk device buffers (about
// 25 100, 17 000 and 11 700).
func TestUnpressuredFlashEPLogCollectsNoGarbage(t *testing.T) {
	const k, m = 6, 2
	profile, err := trace.LookupProfile("FIN")
	if err != nil {
		t.Fatal(err)
	}
	tr := profile.Scaled(256).Generate(chunk)
	stripes := ((tr.MaxOffset()+chunk-1)/chunk + k - 1) / k

	// replay preconditions the working set with full stripes, replays the
	// stream's requests as writes and sums the flash counters over the
	// main devices.
	replay := func(name string, bufChunks int) (flashWrites, gcOps int64) {
		devs := make([]eplog.BlockDevice, k+m)
		raw := int64(float64(stripes)*2.2/0.85) * chunk
		for i := range devs {
			if devs[i], err = eplog.NewSimulatedSSD(raw); err != nil {
				t.Fatal(err)
			}
		}
		var st eplog.Store
		if name == "MD" {
			st, err = eplog.NewRAID(devs, k, stripes)
		} else {
			logs := make([]eplog.BlockDevice, m)
			for i := range logs {
				logs[i] = eplog.NewMemDevice(stripes*16, chunk)
			}
			st, err = eplog.New(devs, logs, eplog.Config{K: k, Stripes: stripes, DeviceBufferChunks: bufChunks})
		}
		if err != nil {
			t.Fatal(err)
		}
		stripeBuf := make([]byte, k*chunk)
		for s := int64(0); s < stripes; s++ {
			if err := st.Write(s*k, stripeBuf); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 16*chunk)
		for _, r := range tr.Requests {
			lba, n := trace.ChunkSpan(r.Offset, r.Size, chunk)
			if n == 0 || lba+n > st.Chunks() {
				continue
			}
			if err := st.Write(lba, buf[:n*chunk]); err != nil {
				t.Fatal(err)
			}
		}
		if a, ok := st.(*eplog.Array); ok {
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range devs {
			hw, gc, _, _, _, _ := eplog.SSDStats(d)
			flashWrites += hw
			gcOps += gc
		}
		t.Logf("%s (buffers %d): %d flash writes, %d GC ops", name, bufChunks, flashWrites, gcOps)
		return flashWrites, gcOps
	}

	mdWrites, mdGC := replay("MD", 0)
	epWrites, epGC := replay("EPLog", 0)
	bufWrites, bufGC := replay("EPLog", 64)
	if mdGC == 0 {
		t.Error("MD collected no garbage: the flash is not sized to pressure conventional RAID")
	}
	if epGC != 0 || bufGC != 0 {
		t.Errorf("EPLog GC = %d, with buffers %d; want 0 on unpressured flash", epGC, bufGC)
	}
	if !(bufWrites < epWrites && epWrites < mdWrites) {
		t.Errorf("flash writes MD %d, EPLog %d, buffered %d; want buffered < EPLog < MD", mdWrites, epWrites, bufWrites)
	}
}

func TestBaselinesRoundTripAndRebuild(t *testing.T) {
	mk := func() []eplog.BlockDevice {
		devs := make([]eplog.BlockDevice, 6)
		for i := range devs {
			devs[i] = eplog.NewMemDevice(stripes, chunk)
		}
		return devs
	}
	logs := []eplog.BlockDevice{eplog.NewMemDevice(8192, chunk), eplog.NewMemDevice(8192, chunk)}

	raidArr, err := eplog.NewRAID(mk(), 4, stripes)
	if err != nil {
		t.Fatal(err)
	}
	plArr, err := eplog.NewParityLog(mk(), logs, 4, stripes)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]eplog.Store{"raid": raidArr, "pl": plArr} {
		data := make([]byte, s.Chunks()*int64(chunk))
		rand.New(rand.NewSource(4)).Read(data)
		if err := s.Write(0, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Write(9, data[:2*chunk]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		copy(data[9*chunk:], data[:2*chunk])
		got := make([]byte, len(data))
		if err := s.Read(0, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip mismatch", name)
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("%s commit: %v", name, err)
		}
	}
}

func TestFileDevicePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := eplog.OpenFileDevice(path, 16, chunk)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{7}, chunk)
	if err := d.WriteChunk(3, p); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := eplog.OpenFileDevice(path, 16, chunk)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]byte, chunk)
	if err := d2.ReadChunk(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("file device lost data")
	}
}

func TestSimulatedDevices(t *testing.T) {
	s, err := eplog.NewSimulatedSSD(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, s.ChunkSize())
	if err := s.WriteChunk(0, p); err != nil {
		t.Fatal(err)
	}
	hostWrites, _, _, _, wa, ok := eplog.SSDStats(s)
	if !ok || hostWrites != 1 || wa != 1 {
		t.Errorf("SSD stats = %d %v %v", hostWrites, wa, ok)
	}
	if _, _, _, _, _, ok := eplog.SSDStats(eplog.NewMemDevice(4, chunk)); ok {
		t.Error("SSDStats accepted a non-SSD device")
	}
	h, err := eplog.NewSimulatedHDD(128, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteChunkAt(0, 0, p); err != nil {
		t.Fatal(err)
	}
}

func TestArrayWithSimulatedDevices(t *testing.T) {
	// End-to-end over the simulators: EPLog on FTL SSDs + HDD logs.
	devs := make([]eplog.BlockDevice, 5)
	for i := range devs {
		d, err := eplog.NewSimulatedSSD(8 << 20)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	h, err := eplog.NewSimulatedHDD(4096, chunk)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eplog.New(devs, []eplog.BlockDevice{h}, eplog.Config{K: 4, Stripes: 128})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*chunk)
	rand.New(rand.NewSource(5)).Read(data)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("simulated-device round trip mismatch")
	}
	end, err := a.WriteAt(0, 0, data[:chunk])
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Error("timed write returned no latency")
	}
}

func TestAutoCheckpoint(t *testing.T) {
	cfg := eplog.Config{K: 4, Stripes: 32, CheckpointEvery: 5}
	devs := make([]eplog.BlockDevice, 5)
	for i := range devs {
		devs[i] = eplog.NewMemDevice(128, chunk)
	}
	logs := []eplog.BlockDevice{eplog.NewMemDevice(4096, chunk)}
	a, err := eplog.New(devs, logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := eplog.NewMemDevice(2048, chunk)
	if err := a.FormatMetadataVolume(meta, 512); err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(true); err != nil {
		t.Fatal(err)
	}

	data := make([]byte, a.Chunks()*int64(chunk))
	rand.New(rand.NewSource(9)).Read(data)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	// 12 more single-chunk writes -> at least two auto incremental
	// checkpoints; the state must be reopenable without a manual one.
	for i := 0; i < 12; i++ {
		upd := make([]byte, chunk)
		rand.New(rand.NewSource(int64(10 + i))).Read(upd)
		if err := a.Write(int64(i), upd); err != nil {
			t.Fatal(err)
		}
		copy(data[i*chunk:], upd)
	}
	b, err := eplog.Open(devs, logs, cfg, meta)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := b.Read(0, got); err != nil {
		t.Fatal(err)
	}
	// The final writes may post-date the last auto checkpoint (every 5
	// requests, so requests 1-10 = the fill plus updates 0-8 are
	// certainly covered): verify those.
	if !bytes.Equal(got[:9*chunk], data[:9*chunk]) {
		t.Fatal("auto-checkpointed state lost acknowledged writes")
	}
}

func TestBaselineVerify(t *testing.T) {
	devs := make([]eplog.BlockDevice, 5)
	for i := range devs {
		devs[i] = eplog.NewMemDevice(stripes, chunk)
	}
	r, err := eplog.NewRAID(devs, 4, stripes)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write(0, make([]byte, 8*chunk)); err != nil {
		t.Fatal(err)
	}
	bad, err := r.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("clean RAID failed scrub: %v", bad)
	}

	logs := []eplog.BlockDevice{eplog.NewMemDevice(4096, chunk)}
	devs2 := make([]eplog.BlockDevice, 5)
	for i := range devs2 {
		devs2[i] = eplog.NewMemDevice(stripes, chunk)
	}
	p, err := eplog.NewParityLog(devs2, logs, 4, stripes)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(0, make([]byte, 8*chunk)); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(2, make([]byte, chunk)); err != nil { // leaves a delta
		t.Fatal(err)
	}
	bad, err = p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("consistent PL failed scrub: %v", bad)
	}
}

func TestHDDStats(t *testing.T) {
	h, err := eplog.NewSimulatedHDD(64, chunk)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, chunk)
	if err := h.WriteChunk(0, p); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteChunk(1, p); err != nil {
		t.Fatal(err)
	}
	_, writes, streamed, positioned, ok := eplog.HDDStats(h)
	if !ok || writes != 2 || streamed+positioned != 2 {
		t.Errorf("HDD stats = writes %d, streamed %d, positioned %d, ok %v", writes, streamed, positioned, ok)
	}
	if _, _, _, _, ok := eplog.HDDStats(eplog.NewMemDevice(4, chunk)); ok {
		t.Error("HDDStats accepted a non-HDD device")
	}
}

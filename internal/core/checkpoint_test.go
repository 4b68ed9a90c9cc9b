package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/metadata"
)

// TestSnapshotRestoreRoundTrip drives a workload, snapshots the metadata,
// rebuilds a new EPLog instance over the same devices, and verifies
// contents, degraded reads, and continued operation.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	data := chunkData(1, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		nC := 1 + r.Intn(3)
		lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
		upd := chunkData(10+i, nC)
		ta.mustWrite(t, lba, upd)
		copy(data[lba*testChunk:], upd)
	}

	snap := ta.e.Snapshot()

	// "Restart": rebuild over the same devices from the snapshot.
	devs := make([]device.Dev, len(ta.main))
	for i := range devs {
		devs[i] = ta.main[i]
	}
	logs := make([]device.Dev, len(ta.logs))
	for i := range logs {
		logs[i] = ta.logs[i]
	}
	e2, err := Restore(devs, logs, Config{K: 4, Stripes: testStripes}, snap)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := e2.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored instance returned wrong contents")
	}

	// Degraded reads still work: the restored log-stripe metadata must be
	// intact.
	for d := 0; d < 5; d++ {
		ta.main[d].Fail()
		if _, err := e2.ReadChunks(0, 0, got); err != nil {
			t.Fatalf("restored degraded read, dev %d: %v", d, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("restored degraded read mismatch, dev %d", d)
		}
		ta.main[d].Repair()
	}

	// The restored allocators must not hand out chunks that hold live
	// data: keep updating and verifying.
	for i := 0; i < 60; i++ {
		nC := 1 + r.Intn(3)
		lba := int64(r.Intn(int(e2.Chunks()) - nC))
		upd := chunkData(100+i, nC)
		if _, err := e2.WriteChunks(0, lba, upd); err != nil {
			t.Fatal(err)
		}
		copy(data[lba*testChunk:], upd)
	}
	if err := e2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("contents corrupted after post-restore writes")
	}
}

// TestRestorePlacesLikeTheRunningEngine feeds two engines the same seeded
// prefix, restores one from its own snapshot over its own devices, and runs
// the same suffix on the restored engine and on the one that never stopped:
// update space is allocated from the free set alone, so both must end with
// identical metadata, every chunk placed where the other placed it. Folds
// run inline (no write-behind), so both runs are deterministic.
func TestRestorePlacesLikeTheRunningEngine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		every int
	}{
		// Folds forced by the guard band and the log region; the snapshot
		// carries pending log stripes.
		{"pending", 0},
		// CommitEvery folds too. A shard's count of writes since its last
		// fold is not persisted, so both engines commit before the snapshot.
		{"every", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 4, CommitEvery: tc.every}
			stopped, running := newTestArray(t, 5, 4, cfg), newTestArray(t, 5, 4, cfg)
			run := func(ta *testArray, seed int64, writes int) {
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < writes; i++ {
					nC := 1 + r.Intn(3)
					lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
					if _, err := ta.e.WriteChunks(0, lba, chunkData(int(seed)+i, nC)); err != nil {
						t.Fatal(err)
					}
				}
				if tc.every > 0 {
					if err := ta.e.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			run(stopped, 1, 150)
			run(running, 1, 150)

			devs := make([]device.Dev, len(stopped.main))
			for i := range devs {
				devs[i] = stopped.main[i]
			}
			logs := make([]device.Dev, len(stopped.logs))
			for i := range logs {
				logs[i] = stopped.logs[i]
			}
			cfg.K, cfg.Stripes = 4, testStripes
			restored, err := Restore(devs, logs, cfg, stopped.e.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			stopped.e = restored
			run(stopped, 2, 150)
			run(running, 2, 150)
			if !bytes.Equal(placement(stopped.e.Snapshot()).Marshal(), placement(running.e.Snapshot()).Marshal()) {
				t.Fatal("the restored engine placed chunks differently from the engine that kept running")
			}
		})
	}
}

// placement renames a snapshot's log stripes by their log positions. A
// restored engine re-derives its per-shard log-stripe ID counters from the
// one recorded high-water mark, so IDs are labels that may differ from the
// engine that stopped; positions and chunk locations may not.
func placement(s *metadata.Snapshot) *metadata.Snapshot {
	pos := make(map[int64]int64)
	for i := range s.LogStripes {
		ls := &s.LogStripes[i]
		pos[ls.ID], ls.ID = ls.LogPos, ls.LogPos
	}
	for _, rec := range s.StripeRecs {
		for j, p := range rec.Prot {
			if p != committed {
				rec.Prot[j] = pos[p]
			}
		}
	}
	sort.Slice(s.LogStripes, func(i, j int) bool { return s.LogStripes[i].LogPos < s.LogStripes[j].LogPos })
	s.NextLogID = 0
	return s
}

func TestRestoreValidation(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	snap := ta.e.Snapshot()
	devs := make([]device.Dev, 5)
	for i := range devs {
		devs[i] = device.NewMem(testDevChunks, testChunk)
	}
	logs := []device.Dev{device.NewMem(testLogChunks, testChunk)}
	if _, err := Restore(devs, logs, Config{K: 3, Stripes: testStripes}, snap); err == nil {
		t.Error("mismatched k accepted")
	}
	if _, err := Restore(devs[:4], logs, Config{K: 3, Stripes: testStripes}, snap); err == nil {
		t.Error("mismatched device count accepted")
	}
	if _, err := Restore(devs, logs, Config{K: 4, Stripes: testStripes + 1}, snap); err == nil {
		t.Error("mismatched stripes accepted")
	}

	// A snapshot is input from outside: one that addresses chunks past the
	// devices it is restored onto is an error, not a panic or a failure at
	// the first degraded read.
	for i := int64(0); i < 40; i++ {
		ta.mustWrite(t, i*7%ta.e.Chunks(), chunkData(200+int(i), 1))
	}
	snap = ta.e.Snapshot()
	if len(snap.LogStripes) < 3 {
		t.Fatalf("setup: %d log stripes pending, want some past log position 2", len(snap.LogStripes))
	}
	small := make([]device.Dev, 5)
	for i := range small {
		small[i] = device.NewMem(testStripes+4, testChunk)
	}
	if _, err := Restore(small, logs, Config{K: 4, Stripes: testStripes}, snap); err == nil {
		t.Error("locations past the end of the SSDs accepted")
	}
	tiny := []device.Dev{device.NewMem(2, testChunk)}
	if _, err := Restore(devs, tiny, Config{K: 4, Stripes: testStripes}, snap); err == nil {
		t.Error("log stripes past the end of the log devices accepted")
	}
}

// TestCheckpointThroughVolume runs the full persistence pipeline: full
// checkpoint to a mirrored metadata volume, incremental checkpoints as the
// workload continues, then a reload that must reproduce the exact state.
func TestCheckpointThroughVolume(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	data := chunkData(3, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)

	// Metadata volume on a mirror, as the paper's RAID-10 metadata
	// partition.
	mir, err := device.NewMirror(device.NewMem(512, 256), device.NewMem(512, 256))
	if err != nil {
		t.Fatal(err)
	}
	vol, err := metadata.Format(mir, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.WriteFull(ta.e.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// More updates, then an incremental checkpoint.
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		nC := 1 + r.Intn(2)
		lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
		upd := chunkData(40+i, nC)
		ta.mustWrite(t, lba, upd)
		copy(data[lba*testChunk:], upd)
	}
	if err := vol.WriteIncremental(ta.e.DirtyDelta()); err != nil {
		t.Fatal(err)
	}

	// A second batch and a second incremental.
	for i := 0; i < 20; i++ {
		upd := chunkData(80+i, 1)
		lba := int64(r.Intn(int(ta.e.Chunks())))
		ta.mustWrite(t, lba, upd)
		copy(data[lba*testChunk:], upd)
	}
	if err := vol.WriteIncremental(ta.e.DirtyDelta()); err != nil {
		t.Fatal(err)
	}

	// Reload from the volume and restore.
	vol2, err := metadata.Open(mir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := vol2.Load()
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]device.Dev, len(ta.main))
	for i := range devs {
		devs[i] = ta.main[i]
	}
	logs := make([]device.Dev, len(ta.logs))
	for i := range logs {
		logs[i] = ta.logs[i]
	}
	e2, err := Restore(devs, logs, Config{K: 4, Stripes: testStripes}, snap)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := e2.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("volume-restored instance returned wrong contents")
	}
	// Recovery metadata survived the round trip: degraded read works.
	ta.main[3].Fail()
	if _, err := e2.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("volume-restored degraded read mismatch")
	}
}

// TestDirtyDeltaIsSmallerThanSnapshot checks the incremental payload only
// carries dirtied records.
func TestDirtyDeltaIsSmallerThanSnapshot(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	ta.mustWrite(t, 0, chunkData(5, int(ta.e.Chunks())))
	snapLen := len(ta.e.Snapshot().Marshal())
	// Touch a single stripe.
	ta.mustWrite(t, 0, chunkData(6, 1))
	delta := ta.e.DirtyDelta()
	if len(delta.StripeRecs) != 1 {
		t.Fatalf("delta carries %d stripe records, want 1", len(delta.StripeRecs))
	}
	if dl := len(delta.Marshal()); dl >= snapLen {
		t.Errorf("delta (%dB) not smaller than full snapshot (%dB)", dl, snapLen)
	}
	// The tracking was cleared.
	if d2 := ta.e.DirtyDelta(); len(d2.StripeRecs) != 0 {
		t.Error("dirty tracking not cleared by DirtyDelta")
	}
}

package core

import (
	"math/rand"
	"testing"
)

func TestVerifyCleanArray(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	data := chunkData(1, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		nC := 1 + r.Intn(3)
		lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
		ta.mustWrite(t, lba, chunkData(10+i, nC))
	}
	rep, err := ta.e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean array failed scrub: %+v", rep)
	}
	if rep.DataStripes == 0 || rep.LogStripes == 0 {
		t.Fatalf("scrub checked nothing: %+v", rep)
	}
	// Still clean after a commit (log stripes gone, parity updated).
	if err := ta.e.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err = ta.e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.LogStripes != 0 {
		t.Fatalf("post-commit scrub: %+v", rep)
	}
}

func TestVerifyDetectsSilentCorruption(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	data := chunkData(3, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	ta.mustWrite(t, 5, chunkData(4, 1)) // one pending log stripe

	// Corrupt a committed chunk behind EPLog's back.
	loc := ta.e.loadComm(2)
	evil := chunkData(5, 1)
	if err := ta.e.devs()[loc.Dev].WriteChunk(loc.Chunk, evil); err != nil {
		t.Fatal(err)
	}
	rep, err := ta.e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BadDataStripes) == 0 {
		t.Error("scrub missed a corrupted committed chunk")
	}

	// Corrupt a pending version too.
	mloc := ta.e.loadLatest(5)
	if err := ta.e.devs()[mloc.Dev].WriteChunk(mloc.Chunk, evil); err != nil {
		t.Fatal(err)
	}
	rep, err = ta.e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BadLogStripes) == 0 {
		t.Error("scrub missed a corrupted pending version")
	}
}

func TestVerifySkipsVirginStripes(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	ta.mustWrite(t, 0, chunkData(6, 4)) // stripe 0 only
	rep, err := ta.e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataStripes != 1 {
		t.Errorf("scrubbed %d data stripes, want 1", rep.DataStripes)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
)

func TestTimedDevPassesDataThrough(t *testing.T) {
	tr := newTracer(nil)
	defer tr.stop()
	mem := device.NewMem(16, chunkSize)
	d := tr.wrapDev(mem, "main3", true)
	if device.DevName(d) != "main3" {
		t.Errorf("DevName = %q, want main3", device.DevName(d))
	}
	if d.Chunks() != 16 || d.ChunkSize() != chunkSize {
		t.Errorf("geometry %d x %d, want 16 x %d", d.Chunks(), d.ChunkSize(), chunkSize)
	}
	want := bytes.Repeat([]byte{0xA5}, chunkSize)
	if err := d.WriteChunk(3, want); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteChunkAt(0, 4, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, chunkSize)
	for _, idx := range []int64{3, 4} {
		if _, err := d.ReadChunkAt(0, idx, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("chunk %d changed on the way through", idx)
		}
	}
	if err := mem.ReadChunk(3, got); err != nil || !bytes.Equal(got, want) {
		t.Error("the wrapped device does not hold what was written")
	}
	if err := d.Trim(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteChunk(99, want); err == nil {
		t.Error("an out-of-range write must still fail")
	}
	s := tr.snapshot()
	if s.SSD.Calls != 6 || s.Log.Calls != 0 {
		t.Errorf("counted %d main and %d log calls, want 6 and 0", s.SSD.Calls, s.Log.Calls)
	}
	var writes int64
	for _, n := range s.SSDWrite {
		writes += n
	}
	if writes != 3 {
		t.Errorf("write-time histogram holds %d writes, want 3", writes)
	}
}

func TestTimedEngineAndSpanLog(t *testing.T) {
	re, err := newRungEngine(false, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.e.Close()
	tr := newTracer(nil)
	defer tr.stop()
	e := tr.wrapEngine(re.e)

	// Nothing is kept until spans are switched on.
	e.WriteBatch([]core.BatchOp{{LBA: 5, Data: bytes.Repeat([]byte{1}, chunkSize)}})
	tr.log.on.Store(true)
	want := bytes.Repeat([]byte{2}, chunkSize)
	wops := []core.BatchOp{{LBA: 5, Data: want}, {LBA: 700, Data: want}}
	e.WriteBatch(wops)
	rops := []core.ReadOp{{LBA: 5, Buf: make([]byte, chunkSize)}, {LBA: 700, Buf: make([]byte, chunkSize)}}
	e.ReadBatch(rops)
	for i := range rops {
		if wops[i].Err != nil || rops[i].Err != nil {
			t.Fatalf("op %d: write %v, read %v", i, wops[i].Err, rops[i].Err)
		}
		if !bytes.Equal(rops[i].Buf, want) {
			t.Errorf("op %d: data changed on the way through", i)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	s := tr.snapshot()
	if s.WriteBatch.Calls != 2 || s.WriteBatch.Ops != 3 || s.ReadBatch.Ops != 2 || s.CommitCalls.Calls != 2 {
		t.Errorf("totals %+v %+v %+v", s.WriteBatch, s.ReadBatch, s.CommitCalls)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	n, dropped, err := tr.log.appendTo(path)
	if err != nil || n != 4 || dropped != 0 {
		t.Fatalf("dump: %d spans, %d dropped, %v; want the 4 calls made while on", n, dropped, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.write_batch", "core.read_batch", "core.flush", "core.commit"} {
		if !strings.Contains(string(b), `"name":"`+name+`"`) {
			t.Errorf("trace has no %s span:\n%s", name, b)
		}
	}
}

package server

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/wire"
	"github.com/eplog/eplog/internal/workload"
)

// stubServer serves a stub engine at full pressure with HighWater 0.8.
func stubServer(t *testing.T, eng *stubEngine) (*Server, *Client, *obs.Sink) {
	t.Helper()
	sink := obs.NewSink()
	s, err := Listen("127.0.0.1:0", eng, Options{HighWater: 0.8, Sink: sink, CloseStore: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c, sink
}

func goWrite(c *Client, lba int64) chan *Call {
	done := make(chan *Call, 1)
	c.Go(wire.Frame{Type: wire.TWrite, Arg: lba, Count: testChunk, Payload: make([]byte, testChunk)}, done)
	return done
}

// TestFoldPressuredPerBatch: every dispatcher batch — write runs and flush
// barriers alike — is followed by exactly one FoldPressured(HighWater).
func TestFoldPressuredPerBatch(t *testing.T) {
	eng := &stubEngine{}
	_, c, sink := stubServer(t, eng)
	for i := int64(0); i < 5; i++ {
		if err := c.Write(i, make([]byte, testChunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Serial requests: six batches. The call follows the batch's responses.
	waitFor(t, "one FoldPressured per batch", func() bool { return len(eng.foldCalls()) == 6 })
	if n := sink.Counter("net.batches").Value(); n != 6 {
		t.Fatalf("net.batches = %d, want 6", n)
	}
	for i, th := range eng.foldCalls() {
		if th != 0.8 {
			t.Fatalf("FoldPressured call %d got threshold %g, want HighWater 0.8", i, th)
		}
	}
}

// TestReadersNotParkedByWrites: with the engine at full pressure and a
// write batch stuck inside it, a READ and a STAT still complete.
func TestReadersNotParkedByWrites(t *testing.T) {
	eng := &stubEngine{writeEntry: make(chan struct{}, 1), writeStall: make(chan struct{})}
	_, c, _ := stubServer(t, eng)
	release := sync.OnceFunc(func() { close(eng.writeStall) })
	t.Cleanup(release) // a failed test must not leave Close waiting on the batch

	wr := goWrite(c, 0)
	await(t, "the write batch to enter the engine", eng.writeEntry)
	done := make(chan *Call, 2)
	c.Go(wire.Frame{Type: wire.TRead, Arg: 8, Count: 1}, done)
	c.Go(wire.Frame{Type: wire.TStat}, done)
	for range 2 {
		call := await(t, "a READ and a STAT behind a blocked write batch", done)
		if call.Err != nil {
			t.Fatalf("%v: %v", call.Req.ReqType(), call.Err)
		}
		wire.PutPayload(&call.Resp)
	}
	select {
	case <-wr:
		t.Fatal("the write completed while its batch was blocked")
	default:
	}
	release()
	if call := await(t, "the blocked write", wr); call.Err != nil {
		t.Fatal(call.Err)
	}
}

// TestCloseDrainsBlockedBatch: Close waits for a write batch stuck in the
// engine, acknowledges it, and only then closes the engine.
func TestCloseDrainsBlockedBatch(t *testing.T) {
	eng := &stubEngine{writeEntry: make(chan struct{}, 1), writeStall: make(chan struct{})}
	s, c, _ := stubServer(t, eng)
	release := sync.OnceFunc(func() { close(eng.writeStall) })
	t.Cleanup(release)

	wr := goWrite(c, 0)
	await(t, "the write batch to enter the engine", eng.writeEntry)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	await(t, "Close to begin", s.quit)
	select {
	case <-closed:
		t.Fatal("Close returned with a write batch still in the engine")
	default:
	}
	release()
	if err := await(t, "Close", closed); err != nil {
		t.Fatal(err)
	}
	if call := await(t, "the blocked write", wr); call.Err != nil {
		t.Fatalf("the drained write was not acknowledged: %v", call.Err)
	}
	if eng.closedInOp.Load() {
		t.Fatal("the engine was closed under a running WriteBatch")
	}
}

// TestSkewedStreamFoldsInBackground drives the real engine: a write stream
// with nine tenths of its updates on one shard must be folded by the
// group committer alone — Stats.Commits moves, every commit has a trigger
// and none is manual — and every acknowledged write reads back.
func TestSkewedStreamFoldsInBackground(t *testing.T) {
	const k, n, stripes, shards = 4, 6, 64, 4
	sink := obs.NewSink()
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(stripes*8, testChunk)
	}
	logs := make([]device.Dev, n-k)
	for i := range logs {
		logs[i] = device.NewMem(stripes*8, testChunk)
	}
	e, err := core.New(devs, logs, core.Config{K: k, Stripes: stripes, Shards: shards,
		WriteBehind: true, DirtyWindowStripes: 16, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := Listen("127.0.0.1:0", e, Options{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(16))
	seeds := make(map[int64]uint64)
	buf := make([]byte, testChunk)
	const depth = 8
	done := make(chan *Call, depth)
	inflight := make(map[int64]bool) // one write per LBA at a time: no ordering hazards
	for i := 0; i < 2000 || len(inflight) > 0; {
		if i < 2000 && len(inflight) < depth {
			stripe := rng.Int63n(stripes/shards) * shards // shard 0 ...
			if rng.Intn(10) == 0 {
				stripe += 1 + rng.Int63n(shards-1) // ... or, one time in ten, another
			}
			lba := stripe*k + rng.Int63n(k)
			if !inflight[lba] {
				i++
				inflight[lba] = true
				seeds[lba] = uint64(i)
				workload.Fill(buf, seeds[lba])
				c.Go(wire.Frame{Type: wire.TWrite, Arg: lba, Count: testChunk, Payload: buf}, done)
			}
			continue
		}
		call := await(t, "a write", done)
		if call.Err != nil {
			t.Fatalf("write of %d: %v", call.Req.Arg, call.Err)
		}
		delete(inflight, call.Req.Arg)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	var triggered, manual int64
	for name, v := range sink.Snapshot().Counters {
		if strings.Contains(name, ".commit_trigger.") {
			triggered += v
			if strings.HasSuffix(name, ".manual") {
				manual += v
			}
		}
	}
	st := e.Stats()
	if st.Commits == 0 || manual != 0 || triggered != st.Commits {
		t.Fatalf("Stats.Commits = %d, Σ commit_trigger.* = %d, of which manual = %d; want background folds only",
			st.Commits, triggered, manual)
	}
	want, got := make([]byte, testChunk), make([]byte, testChunk)
	for lba, seed := range seeds {
		workload.Fill(want, seed)
		if err := c.ReadInto(lba, 1, got); err != nil {
			t.Fatalf("read of %d: %v", lba, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acknowledged write of %d does not read back", lba)
		}
	}
}

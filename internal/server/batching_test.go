package server

import (
	"bytes"
	"net"
	"testing"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/wire"
)

// TestVectoredWriterCoalesces drives a connection writer directly over a
// pipe with a pre-filled response queue: every frame must arrive intact
// and in order, and the whole backlog must ship as a single vectored
// write.
func TestVectoredWriterCoalesces(t *testing.T) {
	sink := obs.NewSink()
	s := &Server{opts: Options{WritevMax: 8}.withDefaults()}
	s.cWritev = sink.Counter("net.writev_calls")
	s.cFramesOut = sink.Counter("net.frames_out")
	s.cBytesOut = sink.Counter("net.bytes_out")

	left, right := net.Pipe()
	c := &conn{
		s:   s,
		nc:  left,
		out: make(chan wire.Frame, 16),
		sem: make(chan struct{}, 16),
	}
	const n = 6
	want := make([]wire.Frame, n)
	bytesWanted := 0
	for i := 0; i < n; i++ {
		var p []byte
		if i%2 == 0 {
			p = bufpool.Default.Get(testChunk)
			for j := range p {
				p[j] = byte(i + j)
			}
		}
		want[i] = wire.Frame{Type: wire.TRead | wire.RespFlag, ReqID: uint64(i + 1),
			Arg: int64(i), Count: uint32(len(p)), Payload: p}
		c.out <- want[i]
		c.sem <- struct{}{}
		bytesWanted += wire.HeaderSize + len(p)
	}
	close(c.out)
	wdone := make(chan struct{})
	go func() {
		c.writer()
		close(wdone)
	}()

	dec := wire.NewDecoder(right, 0)
	for i := 0; i < n; i++ {
		var f wire.Frame
		if err := dec.ReadFrame(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		w := want[i]
		if f.ReqID != w.ReqID || f.Arg != w.Arg || f.Count != w.Count {
			t.Fatalf("frame %d: got %+v, want %+v", i, f, w)
		}
		if w.Count > 0 {
			exp := make([]byte, w.Count)
			for j := range exp {
				exp[j] = byte(i + j)
			}
			if !bytes.Equal(f.Payload, exp) {
				t.Fatalf("frame %d: payload corrupted", i)
			}
		}
		wire.PutPayload(&f)
	}
	<-wdone
	if got := s.cWritev.Value(); got != 1 {
		t.Errorf("writev calls = %v, want 1 (whole backlog coalesced)", got)
	}
	if got := s.cFramesOut.Value(); got != n {
		t.Errorf("frames_out = %v, want %d", got, n)
	}
	if got := s.cBytesOut.Value(); got != int64(bytesWanted) {
		t.Errorf("bytes_out = %v, want %d", got, bytesWanted)
	}
}

// TestClientReadInto checks the caller-owned destination path end to end:
// the response payload lands in (and aliases) the caller's buffer, with no
// pool buffer to recycle.
func TestClientReadInto(t *testing.T) {
	s, _ := startServer(t, 2, 64, Options{})
	c, err := Dial(s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := make([]byte, 2*testChunk)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := c.Write(8, payload); err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, 2*testChunk)
	call := <-c.GoRead(8, 2, dst, nil).Done
	if call.Err != nil {
		t.Fatal(call.Err)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("ReadInto destination does not hold the written bytes")
	}
	if &call.Resp.Payload[0] != &dst[0] {
		t.Fatal("response payload does not alias the caller's buffer")
	}

	// And the sync wrapper.
	dst2 := make([]byte, 2*testChunk)
	if err := c.ReadInto(8, 2, dst2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst2, payload) {
		t.Fatal("ReadInto (sync) destination mismatch")
	}
}

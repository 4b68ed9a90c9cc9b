package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// encodeAll renders frames into one stream.
func encodeAll(t *testing.T, frames ...*Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(bufio.NewWriter(&buf))
	for _, f := range frames {
		if err := enc.WriteFrame(f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripAllTypes(t *testing.T) {
	payload := []byte("twelve chunks of arbitrary data")
	frames := []*Frame{
		{Type: TRead, ReqID: 1, Arg: 42, Count: 8},
		{Type: TWrite, ReqID: 2, Arg: 7, Count: uint32(len(payload)), Payload: payload},
		{Type: TFlush, ReqID: 3},
		{Type: TStat, ReqID: 4},
		{Type: TRead | RespFlag, ReqID: 1, Status: StatusOK, Count: uint32(len(payload)), Payload: payload},
		{Type: TWrite | RespFlag, ReqID: 2, Status: StatusOK, Count: uint32(len(payload))},
		{Type: TFlush | RespFlag, ReqID: 3, Status: StatusErr, Payload: []byte("boom")},
		{Type: TStat | RespFlag, ReqID: 4, Status: StatusBadRequest},
	}
	stream := encodeAll(t, frames...)
	dec := NewDecoder(bytes.NewReader(stream), 0)
	for i, want := range frames {
		var got Frame
		if err := dec.ReadFrame(&got); err != nil {
			t.Fatalf("frame %d: ReadFrame: %v", i, err)
		}
		if got.Type != want.Type || got.Status != want.Status || got.ReqID != want.ReqID ||
			got.Arg != want.Arg || got.Count != want.Count {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, *want)
		}
		if !bytes.Equal(got.Payload, want.Payload) && len(want.Payload) > 0 {
			t.Fatalf("frame %d: payload %q, want %q", i, got.Payload, want.Payload)
		}
		PutPayload(&got)
	}
	var extra Frame
	if err := dec.ReadFrame(&extra); err != io.EOF {
		t.Fatalf("after last frame: err=%v, want io.EOF", err)
	}
}

func TestDecoderTruncation(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 100)
	whole := encodeAll(t, &Frame{Type: TWrite, ReqID: 9, Arg: 3, Count: 100, Payload: payload})
	for cut := 1; cut < len(whole); cut++ {
		dec := NewDecoder(bytes.NewReader(whole[:cut]), 0)
		var f Frame
		err := dec.ReadFrame(&f)
		if err == nil {
			t.Fatalf("cut=%d: decoded a truncated frame", cut)
		}
		if err == io.EOF {
			t.Fatalf("cut=%d: truncation reported as clean EOF", cut)
		}
		// The decoder stays poisoned.
		if err2 := dec.ReadFrame(&f); err2 != err {
			t.Fatalf("cut=%d: second read %v, want latched %v", cut, err2, err)
		}
	}
}

func TestDecoderOversizedFrame(t *testing.T) {
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(headerRest+1<<30)) // 1 GiB payload claim
	binary.BigEndian.PutUint16(hdr[4:], Magic)
	hdr[6] = TWrite
	dec := NewDecoder(bytes.NewReader(hdr[:]), 1<<16)
	var f Frame
	if err := dec.ReadFrame(&f); !errors.Is(err, ErrBadSize) {
		t.Fatalf("oversized frame: err=%v, want ErrBadSize", err)
	}
	if f.Payload != nil {
		t.Fatal("oversized frame allocated a payload")
	}
}

func TestDecoderUndersizedFrame(t *testing.T) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[0:], headerRest-1)
	dec := NewDecoder(bytes.NewReader(b[:]), 0)
	var f Frame
	if err := dec.ReadFrame(&f); !errors.Is(err, ErrBadSize) {
		t.Fatalf("undersized frame: err=%v, want ErrBadSize", err)
	}
}

func TestDecoderBadMagic(t *testing.T) {
	stream := encodeAll(t, &Frame{Type: TFlush, ReqID: 1})
	stream[5] ^= 0xFF
	dec := NewDecoder(bytes.NewReader(stream), 0)
	var f Frame
	if err := dec.ReadFrame(&f); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err=%v, want ErrBadMagic", err)
	}
}

func TestDecoderBadType(t *testing.T) {
	stream := encodeAll(t, &Frame{Type: TFlush, ReqID: 1})
	stream[6] = 0x7F
	dec := NewDecoder(bytes.NewReader(stream), 0)
	var f Frame
	if err := dec.ReadFrame(&f); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad type: err=%v, want ErrBadType", err)
	}
}

func TestDecoderCountMismatch(t *testing.T) {
	payload := []byte("abcdef")
	stream := encodeAll(t, &Frame{Type: TWrite, ReqID: 1, Count: 5, Payload: payload})
	dec := NewDecoder(bytes.NewReader(stream), 0)
	var f Frame
	if err := dec.ReadFrame(&f); !errors.Is(err, ErrBadCount) {
		t.Fatalf("count mismatch: err=%v, want ErrBadCount", err)
	}
}

func TestDecoderGarbage(t *testing.T) {
	dec := NewDecoder(strings.NewReader("not a frame at all, just text flowing by"), 0)
	var f Frame
	if err := dec.ReadFrame(&f); err == nil || err == io.EOF {
		t.Fatalf("garbage stream: err=%v, want framing error", err)
	}
}

func TestStatRoundTrip(t *testing.T) {
	want := Stat{K: 6, M: 2, Shards: 4, ChunkSize: 4096, Stripes: 1024,
		Chunks: 6144, PendingLogStripes: 17, WritePressure: 0.625}
	p := AppendStat(nil, &want)
	got, err := ParseStat(p)
	if err != nil {
		t.Fatalf("ParseStat: %v", err)
	}
	if got != want {
		t.Fatalf("stat round trip: got %+v, want %+v", got, want)
	}
	if _, err := ParseStat(p[:len(p)-1]); err == nil {
		t.Fatal("short stat payload parsed")
	}
}

// TestAppendFrameHeaderMatchesWriteFrame checks the vectored-writer header
// encoder produces byte-identical headers to WriteFrame for every frame
// shape, and rejects the same oversized payloads.
func TestAppendFrameHeaderMatchesWriteFrame(t *testing.T) {
	payload := []byte("some payload bytes for the header to describe")
	frames := []*Frame{
		{Type: TRead, ReqID: 1, Arg: 42, Count: 8},
		{Type: TWrite, ReqID: 2, Arg: 7, Count: uint32(len(payload)), Payload: payload},
		{Type: TRead | RespFlag, ReqID: 9, Status: StatusOK, Arg: 3, Count: uint32(len(payload)), Payload: payload},
		{Type: TFlush | RespFlag, ReqID: 3, Status: StatusErr, Payload: []byte("boom")},
		{Type: TStat | RespFlag, ReqID: 4, Status: StatusBadRequest},
	}
	for i, f := range frames {
		want := encodeAll(t, f)[:HeaderSize]
		got, err := AppendFrameHeader(nil, f)
		if err != nil {
			t.Fatalf("frame %d: AppendFrameHeader: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: header diverges from WriteFrame:\n got %x\nwant %x", i, got, want)
		}
	}
	// Appending onto an existing prefix preserves it.
	pre := []byte{0xAA, 0xBB}
	out, err := AppendFrameHeader(pre, frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:2], pre[:2]) || len(out) != 2+HeaderSize {
		t.Fatalf("prefix not preserved: %x", out)
	}
}

// TestDecoderPayloadAlloc checks the caller-owned payload hook: a hook
// that claims a frame makes the payload land in the returned buffer
// (aliasing it, no pool involvement) while declined frames keep the
// pool-backed default.
func TestDecoderPayloadAlloc(t *testing.T) {
	p1 := []byte("first frame payload")
	p2 := []byte("second frame payload")
	stream := encodeAll(t,
		&Frame{Type: TRead | RespFlag, ReqID: 1, Status: StatusOK, Count: uint32(len(p1)), Payload: p1},
		&Frame{Type: TRead | RespFlag, ReqID: 2, Status: StatusOK, Count: uint32(len(p2)), Payload: p2},
	)
	dst := make([]byte, 64)
	dec := NewDecoder(bytes.NewReader(stream), 0)
	dec.SetPayloadAlloc(func(f *Frame, n int) []byte {
		if f.ReqID == 1 {
			return dst
		}
		return nil // too short or not ours: decline
	})
	var f1, f2 Frame
	if err := dec.ReadFrame(&f1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Payload, p1) {
		t.Fatalf("claimed payload = %q, want %q", f1.Payload, p1)
	}
	if &f1.Payload[0] != &dst[0] {
		t.Fatal("claimed payload does not alias the hook's buffer")
	}
	if err := dec.ReadFrame(&f2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f2.Payload, p2) {
		t.Fatalf("declined payload = %q, want %q", f2.Payload, p2)
	}
	if &f2.Payload[0] == &dst[0] {
		t.Fatal("declined frame landed in the hook's buffer")
	}
	PutPayload(&f2)

	// A short return falls back to the pool too.
	dec = NewDecoder(bytes.NewReader(encodeAll(t,
		&Frame{Type: TRead | RespFlag, ReqID: 3, Status: StatusOK, Count: uint32(len(p1)), Payload: p1})), 0)
	short := make([]byte, 4)
	dec.SetPayloadAlloc(func(f *Frame, n int) []byte { return short })
	var f3 Frame
	if err := dec.ReadFrame(&f3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f3.Payload, p1) {
		t.Fatal("short-hook frame corrupted")
	}
	PutPayload(&f3)
}

// TestFrameBuffered: the answer is yes exactly when header and payload of
// the next frame are both in the buffer, so a ReadFrame cannot block.
func TestFrameBuffered(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100)
	frame, err := AppendFrameHeader(nil, &Frame{Type: TWrite, ReqID: 1, Count: 100, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame, payload...)
	for n := 0; n <= len(frame); n++ {
		br := bufio.NewReader(bytes.NewReader(frame[:n]))
		br.Peek(1) // pull what the stream has into the buffer, as a socket read would
		if got, want := FrameBuffered(br), n == len(frame); got != want {
			t.Fatalf("%d of %d bytes buffered: FrameBuffered = %v, want %v", n, len(frame), got, want)
		}
	}
	// Two frames back to back: true for each in turn, false once drained.
	br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), frame...), frame...)))
	br.Peek(1)
	dec := NewDecoder(br, 0)
	for i := 0; i < 2; i++ {
		if !FrameBuffered(br) {
			t.Fatalf("frame %d of 2 is buffered whole, FrameBuffered = false", i+1)
		}
		var f Frame
		if err := dec.ReadFrame(&f); err != nil {
			t.Fatal(err)
		}
		PutPayload(&f)
	}
	if FrameBuffered(br) {
		t.Fatal("FrameBuffered = true on a drained buffer")
	}
}

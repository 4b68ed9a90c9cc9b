// Package wire defines the EPLog block-service protocol: a length-prefixed
// binary framing for READ/WRITE/FLUSH/STAT requests and their responses
// over a byte stream (TCP in practice).
//
// Every frame is
//
//	uint32  size    — bytes that follow this word (headerRest + payload)
//	uint16  magic   — 0xE91C, catches stream desync and garbage
//	uint8   type    — request kind, or request kind | RespFlag
//	uint8   status  — StatusOK, or an error code on responses
//	uint64  reqID   — client-chosen correlation id, echoed verbatim
//	int64   arg     — lba for READ/WRITE; unused otherwise (must be 0)
//	uint32  count   — chunks requested for READ; payload bytes otherwise
//	payload bytes   — WRITE data, READ response data, STAT response block,
//	                  or an error message on Status != StatusOK
//
// all big-endian. The protocol is deliberately dumb: no negotiation, no
// compression, no per-field TLV — requests pipeline freely (many reqIDs in
// flight per connection) and responses may complete out of order, so the
// reqID is the whole correlation story. Like NBD, two in-flight requests
// touching the same LBA have unspecified ordering; clients that care must
// await the first completion before issuing the second.
//
// Decoding is strict and allocation-disciplined: a frame whose size field
// is below the fixed header remainder, above the decoder's payload bound,
// or inconsistent with its count field is rejected before any payload
// buffer is taken, so a hostile peer can neither panic the decoder nor
// make it over-allocate. Payload buffers come from the shared bufpool
// arena — the caller owns the returned slice and recycles it with
// PutPayload once the bytes have crossed to the engine or the socket.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/eplog/eplog/internal/bufpool"
)

// Magic is the per-frame marker after the length word.
const Magic = 0xE91C

// HeaderSize is the fixed frame header length in bytes, including the
// leading size word.
const HeaderSize = 28

// headerRest is the header length covered by the size word (everything
// after it but before the payload).
const headerRest = HeaderSize - 4

// DefaultMaxPayload bounds frame payloads when the caller passes no
// explicit limit: 1 MiB covers a full (k<=255)-chunk stripe of 4 KiB
// chunks.
const DefaultMaxPayload = 1 << 20

// Request frame types. A response echoes its request type with RespFlag
// set.
const (
	TRead  uint8 = 0x01
	TWrite uint8 = 0x02
	TFlush uint8 = 0x03
	TStat  uint8 = 0x04

	// RespFlag marks a frame as a response.
	RespFlag uint8 = 0x80
)

// Response status codes.
const (
	// StatusOK marks a successful response.
	StatusOK uint8 = 0
	// StatusErr is a failed operation; the payload carries the error text.
	StatusErr uint8 = 1
	// StatusBadRequest is a malformed or out-of-range request the server
	// refused without touching the engine.
	StatusBadRequest uint8 = 2
	// StatusShutdown is a request refused because the server is draining.
	StatusShutdown uint8 = 3
)

// Errors returned by the decoder. Decoding errors other than io.EOF are
// fatal to the stream: the decoder latches them and refuses further reads,
// because after a framing violation the byte position is untrusted.
var (
	ErrBadMagic = errors.New("wire: bad frame magic")
	ErrBadSize  = errors.New("wire: frame size out of bounds")
	ErrBadType  = errors.New("wire: unknown frame type")
	ErrBadCount = errors.New("wire: frame count inconsistent with payload")
)

// validType reports whether t names a known request or response frame.
func validType(t uint8) bool {
	switch t &^ RespFlag {
	case TRead, TWrite, TFlush, TStat:
		return true
	}
	return false
}

// Frame is one decoded (or to-be-encoded) protocol frame. Payload is nil
// for frames without one; decoded payloads are bufpool-owned and travel
// with the frame until PutPayload.
type Frame struct {
	Type    uint8
	Status  uint8
	ReqID   uint64
	Arg     int64
	Count   uint32
	Payload []byte
}

// IsResp reports whether the frame is a response.
func (f *Frame) IsResp() bool { return f.Type&RespFlag != 0 }

// ReqType returns the request kind with the response flag stripped.
func (f *Frame) ReqType() uint8 { return f.Type &^ RespFlag }

// PutPayload recycles a decoded frame's payload buffer into the arena and
// clears the reference. Safe on frames without a payload.
func PutPayload(f *Frame) {
	if f.Payload != nil {
		bufpool.Default.Put(f.Payload)
		f.Payload = nil
	}
}

// Encoder writes frames to a byte stream. Not safe for concurrent use;
// callers serialize (the server's per-connection writer goroutine, the
// client's send mutex).
type Encoder struct {
	w   writeFlusher
	hdr [HeaderSize]byte
}

// writeFlusher is the buffered half the encoder needs; *bufio.Writer
// satisfies it. Keeping the field an interface means WriteFrame performs
// no per-call interface conversion.
type writeFlusher interface {
	io.Writer
	Flush() error
}

// NewEncoder returns an encoder over w. w should be buffered (a
// *bufio.Writer); the encoder flushes only when asked.
func NewEncoder(w writeFlusher) *Encoder { return &Encoder{w: w} }

// WriteFrame appends one frame to the stream. The payload is written
// directly from f.Payload — no copy — and is NOT recycled; ownership stays
// with the caller. Flush when the batch of frames is done.
//
//eplog:hotpath
func (e *Encoder) WriteFrame(f *Frame) error {
	if len(f.Payload) > math.MaxUint32-headerRest {
		return fmt.Errorf("wire: payload of %d bytes unencodable", len(f.Payload))
	}
	hdr := e.hdr[:HeaderSize]
	binary.BigEndian.PutUint32(hdr[0:], uint32(headerRest+len(f.Payload)))
	binary.BigEndian.PutUint16(hdr[4:], Magic)
	hdr[6] = f.Type
	hdr[7] = f.Status
	binary.BigEndian.PutUint64(hdr[8:], f.ReqID)
	binary.BigEndian.PutUint64(hdr[16:], uint64(f.Arg))
	binary.BigEndian.PutUint32(hdr[24:], f.Count)
	if _, err := e.w.Write(hdr); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := e.w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes buffered frames to the underlying stream.
func (e *Encoder) Flush() error { return e.w.Flush() }

// AppendFrameHeader appends f's encoded header — the fixed HeaderSize
// bytes covering the size word through the count field — to dst and
// returns the extended slice. It is the frame-segments half of the
// encoder: a vectored writer (net.Buffers/writev) emits the header and
// f.Payload as separate segments, so payloads cross to the socket
// zero-copy straight from their pool buffers. The byte layout is exactly
// WriteFrame's; no format change.
//
//eplog:hotpath
func AppendFrameHeader(dst []byte, f *Frame) ([]byte, error) {
	if len(f.Payload) > math.MaxUint32-headerRest {
		return dst, fmt.Errorf("wire: payload of %d bytes unencodable", len(f.Payload))
	}
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(headerRest+len(f.Payload)))
	binary.BigEndian.PutUint16(hdr[4:], Magic)
	hdr[6] = f.Type
	hdr[7] = f.Status
	binary.BigEndian.PutUint64(hdr[8:], f.ReqID)
	binary.BigEndian.PutUint64(hdr[16:], uint64(f.Arg))
	binary.BigEndian.PutUint32(hdr[24:], f.Count)
	dst = append(dst, hdr[:]...)
	return dst, nil
}

// Decoder reads frames from a byte stream, enforcing the framing bounds.
// Not safe for concurrent use.
type Decoder struct {
	r          io.Reader
	maxPayload int
	hdr        [HeaderSize]byte
	err        error // latched fatal stream error
	alloc      func(f *Frame, n int) []byte
}

// NewDecoder returns a decoder over r accepting payloads up to maxPayload
// bytes (<= 0 selects DefaultMaxPayload). r should be buffered.
func NewDecoder(r io.Reader, maxPayload int) *Decoder {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if maxPayload > math.MaxUint32-headerRest {
		maxPayload = math.MaxUint32 - headerRest
	}
	return &Decoder{r: r, maxPayload: maxPayload}
}

// fail latches a fatal stream error and returns it.
func (d *Decoder) fail(err error) error {
	d.err = err
	return err
}

// SetPayloadAlloc installs fn as the decoder's payload-buffer source:
// before reading a frame's payload, ReadFrame offers fn the fully decoded
// header (f) and the payload length n. Returning a slice with len >= n
// makes the payload land directly in that caller-owned memory — f.Payload
// aliases it, ownership stays with the caller, and PutPayload must NOT be
// called on the frame. Returning nil falls back to the bufpool arena with
// the usual ownership rules. A pipelined client uses this to decode READ
// responses straight into per-call destination buffers, eliminating the
// per-response pool round-trip.
func (d *Decoder) SetPayloadAlloc(fn func(f *Frame, n int) []byte) { d.alloc = fn }

// ReadFrame decodes the next frame into f. A non-nil f.Payload comes from
// the bufpool arena; the caller owns it and recycles it with PutPayload.
// io.EOF is returned exactly at a clean frame boundary; a frame cut off
// mid-header or mid-payload is io.ErrUnexpectedEOF. Any error except a
// clean EOF poisons the decoder: the stream position is untrusted after a
// framing violation, so every later call returns the same error.
//
//eplog:hotpath
func (d *Decoder) ReadFrame(f *Frame) error {
	if d.err != nil {
		return d.err
	}
	f.Payload = nil
	hdr := d.hdr[:HeaderSize]
	if _, err := io.ReadFull(d.r, hdr[:4]); err != nil {
		if err == io.EOF {
			return d.fail(io.EOF)
		}
		return d.fail(fmt.Errorf("wire: reading frame size: %w", err))
	}
	size := binary.BigEndian.Uint32(hdr[0:])
	if size < headerRest || size > uint32(headerRest+d.maxPayload) {
		return d.fail(fmt.Errorf("%w: %d not in [%d,%d]", ErrBadSize, size, headerRest, headerRest+d.maxPayload))
	}
	if _, err := io.ReadFull(d.r, hdr[4:HeaderSize]); err != nil {
		return d.fail(fmt.Errorf("wire: reading frame header: %w", noEOF(err)))
	}
	if m := binary.BigEndian.Uint16(hdr[4:]); m != Magic {
		return d.fail(fmt.Errorf("%w: %#04x", ErrBadMagic, m))
	}
	f.Type = hdr[6]
	f.Status = hdr[7]
	if !validType(f.Type) {
		return d.fail(fmt.Errorf("%w: %#02x", ErrBadType, f.Type))
	}
	f.ReqID = binary.BigEndian.Uint64(hdr[8:])
	f.Arg = int64(binary.BigEndian.Uint64(hdr[16:]))
	f.Count = binary.BigEndian.Uint32(hdr[24:])
	n := int(size) - headerRest
	// Data-bearing frames must keep count and payload consistent, so a
	// receiver never trusts a byte count the framing does not back: WRITE
	// requests and successful READ responses carry count == payload bytes.
	if f.Type == TWrite || (f.Type == TRead|RespFlag && f.Status == StatusOK) {
		if int(f.Count) != n {
			return d.fail(fmt.Errorf("%w: count %d, payload %d", ErrBadCount, f.Count, n))
		}
	}
	if n == 0 {
		return nil
	}
	// A caller-provided destination (SetPayloadAlloc) bypasses the arena;
	// the caller keeps ownership, so the error path must not recycle it.
	var p []byte
	pooled := true
	if d.alloc != nil {
		if dst := d.alloc(f, n); len(dst) >= n {
			p = dst[:n]
			pooled = false
		}
	}
	if pooled {
		p = bufpool.Default.Get(n)
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		if pooled {
			bufpool.Default.Put(p)
		}
		return d.fail(fmt.Errorf("wire: reading %d-byte payload: %w", n, noEOF(err)))
	}
	f.Payload = p
	return nil
}

// FrameBuffered reports whether br already holds the next frame whole —
// header and payload — so that a ReadFrame over it cannot block on the
// underlying stream. A server asks before each decode and finishes the work
// it has batched up first when the answer is no.
func FrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < HeaderSize {
		return false
	}
	size, _ := br.Peek(4) // buffered: cannot fail
	return uint64(br.Buffered()-4) >= uint64(binary.BigEndian.Uint32(size))
}

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a frame, the
// stream ending is a truncation, not a clean close.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Stat is the STAT response payload: the served array's geometry and
// live pressure, everything a client needs to size requests and build an
// equivalent in-process replay array.
type Stat struct {
	K                 uint32
	M                 uint32
	Shards            uint32
	ChunkSize         uint32
	Stripes           int64
	Chunks            int64
	PendingLogStripes int64
	WritePressure     float64
}

// statSize is the encoded Stat length.
const statSize = 48

// AppendStat appends the encoded stat block to p and returns the result.
func AppendStat(p []byte, st *Stat) []byte {
	var b [statSize]byte
	binary.BigEndian.PutUint32(b[0:], st.K)
	binary.BigEndian.PutUint32(b[4:], st.M)
	binary.BigEndian.PutUint32(b[8:], st.Shards)
	binary.BigEndian.PutUint32(b[12:], st.ChunkSize)
	binary.BigEndian.PutUint64(b[16:], uint64(st.Stripes))
	binary.BigEndian.PutUint64(b[24:], uint64(st.Chunks))
	binary.BigEndian.PutUint64(b[32:], uint64(st.PendingLogStripes))
	binary.BigEndian.PutUint64(b[40:], math.Float64bits(st.WritePressure))
	return append(p, b[:]...)
}

// ParseStat decodes a STAT response payload.
func ParseStat(p []byte) (Stat, error) {
	if len(p) != statSize {
		return Stat{}, fmt.Errorf("wire: stat payload is %d bytes, want %d", len(p), statSize)
	}
	return Stat{
		K:                 binary.BigEndian.Uint32(p[0:]),
		M:                 binary.BigEndian.Uint32(p[4:]),
		Shards:            binary.BigEndian.Uint32(p[8:]),
		ChunkSize:         binary.BigEndian.Uint32(p[12:]),
		Stripes:           int64(binary.BigEndian.Uint64(p[16:])),
		Chunks:            int64(binary.BigEndian.Uint64(p[24:])),
		PendingLogStripes: int64(binary.BigEndian.Uint64(p[32:])),
		WritePressure:     math.Float64frombits(binary.BigEndian.Uint64(p[40:])),
	}, nil
}

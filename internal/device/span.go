package device

import "github.com/eplog/eplog/internal/obs"

// Span models one dependency phase of a request in virtual time: every
// operation issued through the span starts no earlier than the span's start
// time, operations on distinct devices proceed in parallel, and the span
// ends when the slowest operation completes. RAID schemes chain spans to
// express their phase structure (e.g. conventional RAID's pre-read phase
// followed by its write phase).
//
// A span can optionally carry a causal-trace recorder (SetRecorder): each
// Read/Write then also appends an I/O leaf — device name, chunk, start,
// completion — to the attached obs span, giving the flight recorder
// per-device attribution. The recorder is deliberately not inherited by
// Next: an obs span tree is single-goroutine-owned, so I/O leaves are
// recorded only where the tree's owner issues the I/O itself.
type Span struct {
	start float64
	end   float64
	err   error
	rec   *obs.Span
}

// NewSpan starts a phase at the given virtual time.
func NewSpan(start float64) *Span {
	return &Span{start: start, end: start}
}

// Reset reinitializes the span in place to a fresh phase starting at the
// given virtual time, so hot paths can recycle spans instead of
// allocating one per operation. Any attached recorder is detached.
func (s *Span) Reset(start float64) {
	s.start, s.end, s.err, s.rec = start, start, nil, nil
}

// SetRecorder attaches (or, with nil, detaches) the obs span that should
// receive I/O leaves for operations issued through this span.
func (s *Span) SetRecorder(rec *obs.Span) { s.rec = rec }

// Recorder returns the attached obs span, if any.
func (s *Span) Recorder() *obs.Span { return s.rec }

// DevName returns the metric name a device was instrumented under
// ("main3", "log0", ...), unwrapping Locked wrappers; empty when the
// device carries no name (uninstrumented runs).
func DevName(d Dev) string {
	for {
		switch v := d.(type) {
		case interface{ Name() string }:
			return v.Name()
		case interface{ Unwrap() Dev }:
			d = v.Unwrap()
		default:
			return ""
		}
	}
}

// Read issues a chunk read within the span.
func (s *Span) Read(d Dev, idx int64, p []byte) error {
	if s.err != nil {
		return s.err
	}
	end, err := d.ReadChunkAt(s.start, idx, p)
	if err != nil {
		s.err = err
		return err
	}
	if end > s.end {
		s.end = end
	}
	if s.rec != nil {
		s.rec.IO(false, DevName(d), idx, s.start, end)
	}
	return nil
}

// Write issues a chunk write within the span.
func (s *Span) Write(d Dev, idx int64, p []byte) error {
	if s.err != nil {
		return s.err
	}
	end, err := d.WriteChunkAt(s.start, idx, p)
	if err != nil {
		s.err = err
		return err
	}
	if end > s.end {
		s.end = end
	}
	if s.rec != nil {
		s.rec.IO(true, DevName(d), idx, s.start, end)
	}
	return nil
}

// Extend folds an externally computed completion time into the span (used
// when a sub-operation was timed outside the span helper).
func (s *Span) Extend(end float64) {
	if end > s.end {
		s.end = end
	}
}

// Start returns the span's start time.
func (s *Span) Start() float64 { return s.start }

// End returns the completion time of the slowest operation so far (the
// start time if nothing was issued).
func (s *Span) End() float64 { return s.end }

// Err returns the first error encountered by the span, if any.
func (s *Span) Err() error { return s.err }

// ClearErr drops a recorded error so the caller can continue the phase
// after handling a tolerated failure (e.g. a degraded read skipping a
// failed device).
func (s *Span) ClearErr() { s.err = nil }

// Next returns a new span beginning when this one ends, expressing a
// dependency between consecutive phases.
func (s *Span) Next() *Span { return NewSpan(s.end) }

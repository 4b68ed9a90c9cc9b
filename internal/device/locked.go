package device

import "sync"

// Locked wraps a Dev with a mutex, making it safe for concurrent use. The
// Dev contract lets implementations assume serialized access (the
// simulators keep internal clocks and mapping state); the EPLog engine,
// whose shard holders, shared-lock readers, lock-free read pass and
// background fold issue I/O from several goroutines, wraps every device in
// Locked at any shard count so that per-device serialization is preserved.
// It is the one concurrency adapter: the simulators themselves stay
// lock-free.
//
// Geometry accessors (Chunks, ChunkSize) are immutable per the Dev
// contract and are forwarded without locking.
type Locked struct {
	mu    sync.Mutex
	inner Dev
}

var _ Dev = (*Locked)(nil)

// NewLocked wraps inner with a mutex. Wrapping an already-Locked device
// returns it unchanged.
func NewLocked(inner Dev) *Locked {
	if l, ok := inner.(*Locked); ok {
		return l
	}
	return &Locked{inner: inner}
}

// Unwrap returns the wrapped device (for tests and stat readers that need
// the underlying implementation).
func (l *Locked) Unwrap() Dev { return l.inner }

// Name forwards the wrapped device's instrumentation name, so DevName
// resolves through Locked(Traced(dev)) chains; empty when the inner
// device is unnamed.
func (l *Locked) Name() string {
	if n, ok := l.inner.(interface{ Name() string }); ok {
		return n.Name()
	}
	return ""
}

// ReadChunk implements Dev.
func (l *Locked) ReadChunk(idx int64, p []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.ReadChunk(idx, p)
}

// WriteChunk implements Dev.
func (l *Locked) WriteChunk(idx int64, p []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.WriteChunk(idx, p)
}

// ReadChunkAt implements Dev.
func (l *Locked) ReadChunkAt(start float64, idx int64, p []byte) (float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.ReadChunkAt(start, idx, p)
}

// WriteChunkAt implements Dev.
func (l *Locked) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.WriteChunkAt(start, idx, p)
}

// Trim implements Dev.
func (l *Locked) Trim(idx, n int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Trim(idx, n)
}

// Chunks implements Dev.
func (l *Locked) Chunks() int64 { return l.inner.Chunks() }

// ChunkSize implements Dev.
func (l *Locked) ChunkSize() int { return l.inner.ChunkSize() }

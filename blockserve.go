package eplog

import (
	"time"

	"github.com/eplog/eplog/internal/server"
)

// BlockServer is a running network block service over an Array; see
// Array.ServeBlocks. It speaks the wire protocol (internal/wire): READ,
// WRITE, FLUSH, and STAT frames with per-request IDs, pipelined per
// connection with out-of-order completion, each connection's reads run as
// batches on its own goroutine, writes batched across connections before
// entering the engine, and parity folds started per shard in the
// background as its log fills.
type BlockServer = server.Server

// BlockServeOptions tunes ServeBlocks. The zero value selects the
// defaults.
type BlockServeOptions struct {
	// MaxPayload bounds per-frame payloads in bytes (0 selects 1 MiB).
	MaxPayload int
	// BatchMax bounds how many requests coalesce into one engine batch —
	// writes and flushes across connections, reads per connection (0
	// selects 64).
	BatchMax int
	// QueueDepth bounds in-flight requests per connection (0 selects 128).
	QueueDepth int
	// ReadWorkers, ReadQueue and ReadBatchQueue are accepted and ignored
	// since PR 22: they sized the read dispatcher and executor pool this
	// server no longer has (a connection's reads run on its own goroutine),
	// and stay declared only until benchmark/stack_test.go stops setting
	// them.
	ReadWorkers, ReadQueue, ReadBatchQueue int
	// WriteQueue is the capacity of the write/flush dispatch queue
	// between connection readers and the write dispatcher (0 selects
	// 1024).
	WriteQueue int
	// WritevMax bounds how many completed response frames one connection
	// writer coalesces into a single vectored write (0 selects 64).
	WritevMax int
	// BatchAge bounds the write dispatcher's adaptive batch linger: with
	// more writes in flight than a batch holds, collection continues up to
	// BatchAge before entering the engine (0 selects 200µs; negative
	// disables lingering).
	BatchAge time.Duration
	// HighWater is the shard fill (log-region occupancy or dirty-window
	// fill, whichever is higher) at which that shard's background parity
	// fold starts (0 selects 0.85). Nothing stops reading sockets: writers
	// of a shard block only at its full dirty window, readers never.
	HighWater float64
	// LowWater is accepted and ignored: it was the reopen mark of a
	// socket-read gate that no longer exists, and stays declared only
	// until benchmark/stack_test.go stops setting it.
	LowWater float64
	// DrainTimeout bounds the graceful drain in Close (0 selects 5s).
	DrainTimeout time.Duration
}

// ServeBlocks starts a network block service for this array on addr
// (host:port; use ":0" for an ephemeral port and read it back with Addr).
// The server shares the array's observability sink, publishing net.*
// metrics and "net"/"net-batch" spans next to the engine's own. Close the
// server (which drains in-flight requests) before closing the Array; the
// server never closes the store itself.
func (a *Array) ServeBlocks(addr string, opts BlockServeOptions) (*BlockServer, error) {
	return server.Listen(addr, a.e, server.Options{
		MaxPayload:   opts.MaxPayload,
		BatchMax:     opts.BatchMax,
		QueueDepth:   opts.QueueDepth,
		WriteQueue:   opts.WriteQueue,
		WritevMax:    opts.WritevMax,
		BatchAge:     opts.BatchAge,
		HighWater:    opts.HighWater,
		LowWater:     opts.LowWater,
		DrainTimeout: opts.DrainTimeout,
		Sink:         a.sink,
		SpanShard:    a.e.NumShards(),
	})
}

// Command eplogsoak drives a running eplogserve with thousands of
// concurrent pipelined connections of deterministic skewed workload
// (internal/workload), then proves the run correct: it replays the whole
// logged op stream through a fresh serial in-process engine and asserts
// the client-observed byte counters and read checksums reconcile exactly.
//
// Usage:
//
//	eplogsoak [-addr 127.0.0.1:9621] [-conns 1024] [-ops 200] [-depth 16]
//
// Each connection owns a disjoint stripe-aligned slice of the LBA space
// (so -conns must not exceed the array's stripe count), pipelines up to
// -depth requests, and never issues an op overlapping one still in
// flight. Exit status is nonzero if any op fails or reconciliation
// diverges.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/eplog/eplog/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9621", "block service to soak")
		conns      = flag.Int("conns", 1024, "concurrent pipelined connections")
		ops        = flag.Int("ops", 200, "workload ops per connection")
		depth      = flag.Int("depth", 16, "pipeline depth per connection")
		seed       = flag.Int64("seed", 1, "workload seed (connection i uses seed+i)")
		flushEvery = flag.Int("flush-every", 113, "pipeline a FLUSH barrier every this many ops per connection (negative = never)")
		readEvery  = flag.Int("read-every", 0, "make every Nth op a read (0 = workload default of 16; lower = read-heavier)")
		maxPayload = flag.Int("max-payload", 0, "response payload bound in bytes (0 = protocol default)")
	)
	flag.Parse()
	if err := run(*addr, *conns, *ops, *depth, *seed, *flushEvery, *readEvery, *maxPayload); err != nil {
		fmt.Fprintln(os.Stderr, "eplogsoak:", err)
		os.Exit(1)
	}
}

func run(addr string, conns, ops, depth int, seed int64, flushEvery, readEvery, maxPayload int) error {
	fmt.Printf("eplogsoak: %d conns x %d ops, depth %d, against %s\n", conns, ops, depth, addr)
	start := time.Now()
	rep, err := server.RunSoak(server.SoakOptions{
		Addr:       addr,
		Conns:      conns,
		OpsPerConn: ops,
		Depth:      depth,
		Seed:       seed,
		FlushEvery: flushEvery,
		ReadEvery:  readEvery,
		MaxPayload: maxPayload,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("eplogsoak: %d ops in %v (%.0f/s): %d bytes written, %d read, %d flush barriers\n",
		rep.Ops, elapsed.Round(time.Millisecond), float64(rep.Ops)/elapsed.Seconds(),
		rep.BytesWritten, rep.BytesRead, rep.Flushes)
	fmt.Printf("eplogsoak: frames_per_write %.2f (%d request frames in %d socket writes)\n",
		float64(rep.FramesSent)/float64(rep.SocketWrites), rep.FramesSent, rep.SocketWrites)

	fmt.Printf("eplogsoak: replaying %d ops serially in process\n", rep.Ops)
	if err := rep.Reconcile(); err != nil {
		return err
	}
	fmt.Printf("eplogsoak: reconciliation OK — byte counters and read checksums match the serial replay exactly\n")
	return nil
}

// Command eplogserve exposes a simulated EPLog array as a network block
// service speaking the wire protocol (internal/wire): pipelined READ /
// WRITE / FLUSH / STAT frames, cross-connection write batching into the
// sharded engine, and per-shard background parity folds as the log fills.
//
// Usage:
//
//	eplogserve [-addr 127.0.0.1:9621] [-telemetry ""] [-k 6] [-m 2] ...
//
// The array is (k+m) simulated SSDs with simulated-HDD log devices, the
// paper's architecture. With -telemetry set, the live telemetry endpoint
// (/metrics, /metrics.json, /spans, /healthz, /debug/pprof/) runs
// alongside and includes the server's net.* metrics and span phase.
//
// eplogserve exits on SIGINT/SIGTERM with a graceful drain: it stops
// accepting, finishes in-flight requests, then closes the array.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/eplog/eplog"
)

const chunkSize = 4096

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9621", "block service listen address (host:port; :0 picks a free port)")
		telemetry   = flag.String("telemetry", "", "telemetry listen address (empty = no telemetry server)")
		k           = flag.Int("k", 6, "data chunks per stripe")
		m           = flag.Int("m", 2, "parity chunks per stripe (also the number of log devices)")
		stripes     = flag.Int64("stripes", 1024, "number of data stripes")
		shards      = flag.Int("shards", 4, "stripe-group shard count")
		_           = flag.Int("workers", 2, "Deprecated: ignored; kept for benchmark/ until ROADMAP item 3")
		commitEvery = flag.Int("commit-every", 256, "parity commit every this many writes")
		writeBehind = flag.Bool("write-behind", true, "acknowledge writes at log-append, fold parity in the background (false: every fold runs inline on the writer, at any -shards)")
		dirtyWindow = flag.Int("dirty-window", 128, "dirty-window bound in stripes (0 = unbounded)")
		batchMax    = flag.Int("batch-max", 64, "max frames coalesced into one engine batch (writes/flushes across connections, reads per connection)")
		queueDepth  = flag.Int("queue-depth", 128, "max in-flight requests per connection")
		_           = flag.Int("read-workers", 4, "Deprecated: ignored since PR 22 (reads run on their connection's goroutine); kept for benchmark/ until ROADMAP item 3")
		writeQueue  = flag.Int("write-queue", 1024, "write/flush dispatch queue capacity")
		_           = flag.Int("read-queue", 1024, "Deprecated: ignored since PR 22; kept for benchmark/ until ROADMAP item 3")
		_           = flag.Int("read-batch-queue", 0, "Deprecated: ignored since PR 22; kept for benchmark/ until ROADMAP item 3")
		writevMax   = flag.Int("writev-max", 64, "max response frames per vectored write")
		batchAge    = flag.Duration("batch-age", 200*time.Microsecond, "adaptive batch linger bound of the write dispatcher (negative disables)")
		highWater   = flag.Float64("high-water", 0.85, "shard fill (log region or dirty window) at which that shard's background parity fold starts")
		lowWater    = flag.Float64("low-water", 0.70, "ignored: reopen mark of the removed socket-read gate, kept until benchmark/stack_test.go stops reading it")
		drain       = flag.Duration("drain", 5*time.Second, "graceful drain bound at shutdown")
		spans       = flag.Int("spans", eplog.DefaultSpanTrees, "span trees retained per shard")
	)
	flag.Parse()
	if err := run(*addr, *telemetry, *k, *m, *stripes, *shards, *commitEvery,
		*writeBehind, *dirtyWindow, *batchMax, *queueDepth, *writeQueue, *writevMax, *batchAge,
		*highWater, *lowWater, *drain, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "eplogserve:", err)
		os.Exit(1)
	}
}

func run(addr, telemetry string, k, m int, stripes int64, shards, commitEvery int,
	writeBehind bool, dirtyWindow, batchMax, queueDepth, writeQueue, writevMax int,
	batchAge time.Duration, highWater, lowWater float64, drain time.Duration, spans int) error {
	if k < 2 || m < 1 {
		return fmt.Errorf("need k >= 2 and m >= 1, got k=%d m=%d", k, m)
	}
	// Simulated-SSD sizing: logical capacity (after the
	// FTL's 15% overprovisioning) holds the stripes plus an equal
	// no-overwrite update area, with margin against integer truncation.
	devChunks := stripes * 2
	rawBytes := (int64(float64(devChunks)/0.85) + 64) * chunkSize
	devs := make([]eplog.BlockDevice, k+m)
	for i := range devs {
		d, err := eplog.NewSimulatedSSD(rawBytes)
		if err != nil {
			return err
		}
		devs[i] = d
	}
	logs := make([]eplog.BlockDevice, m)
	for i := range logs {
		d, err := eplog.NewSimulatedHDD(stripes*8, chunkSize)
		if err != nil {
			return err
		}
		logs[i] = d
	}
	a, err := eplog.New(devs, logs, eplog.Config{
		K:                  k,
		Stripes:            stripes,
		CommitEvery:        commitEvery,
		TrimOnCommit:       true,
		TraceEvents:        eplog.DefaultTraceEvents,
		Spans:              spans,
		Shards:             shards,
		WriteBehind:        writeBehind,
		DirtyWindowStripes: dirtyWindow,
	})
	if err != nil {
		return err
	}
	defer a.Close()

	srv, err := a.ServeBlocks(addr, eplog.BlockServeOptions{
		BatchMax:     batchMax,
		QueueDepth:   queueDepth,
		WriteQueue:   writeQueue,
		WritevMax:    writevMax,
		BatchAge:     batchAge,
		HighWater:    highWater,
		LowWater:     lowWater,
		DrainTimeout: drain,
	})
	if err != nil {
		return err
	}
	fmt.Printf("eplogserve: (%d+%d) array, %d stripes, %d shard(s); blocks on %s\n",
		k, m, stripes, shards, srv.Addr())
	if telemetry != "" {
		ts, err := a.ServeTelemetry(telemetry)
		if err != nil {
			srv.Close()
			return err
		}
		defer ts.Close()
		fmt.Printf("eplogserve: telemetry on http://%s\n", ts.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Fprintln(os.Stderr, "eplogserve: draining")
	if err := srv.Close(); err != nil {
		return err
	}
	st := a.Stats()
	fmt.Fprintf(os.Stderr, "eplogserve: done — %d commits, %d pending log stripes\n",
		st.Commits, a.PendingLogStripes())
	return nil
}

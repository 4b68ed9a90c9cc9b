// Command eplogmon runs a continuous synthetic update workload on a
// simulated EPLog array while serving its live telemetry — a self-driving
// soak target for dashboards, scrape testing, and profiling.
//
// Usage:
//
//	eplogmon [-addr 127.0.0.1:9620] [-duration 0] [-rate 2000] ...
//
// The array is (k+m) simulated SSDs with simulated-HDD log devices, the
// paper's architecture. The workload is a skewed single-chunk update
// stream with occasional multi-chunk writes and reads; CommitEvery folds
// parity in the background of the stream. While it runs, the telemetry
// endpoint serves /metrics (Prometheus), /metrics.json, /spans (JSON
// Lines of causal span trees), /healthz, and /debug/pprof/.
//
// eplogmon exits on SIGINT/SIGTERM, or after -duration when set, and
// prints a final metrics summary to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/eplog/eplog"
	"github.com/eplog/eplog/internal/workload"
)

const chunkSize = 4096

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9620", "telemetry listen address (host:port; :0 picks a free port)")
		k           = flag.Int("k", 6, "data chunks per stripe")
		m           = flag.Int("m", 2, "parity chunks per stripe (also the number of log devices)")
		stripes     = flag.Int64("stripes", 256, "number of data stripes")
		shards      = flag.Int("shards", 1, "stripe-group shard count; partitions state only, folds stay inline (<=1: spans also include per-device I/O leaves under folds and rebuilds)")
		spans       = flag.Int("spans", eplog.DefaultSpanTrees, "span trees retained per shard")
		sampling    = flag.Int("sampling", 1, "record one operation span in this many (<=1 records all)")
		commitEvery = flag.Int("commit-every", 256, "parity commit every this many writes")
		duration    = flag.Duration("duration", 0, "stop after this long (0 = run until interrupted)")
		rate        = flag.Float64("rate", 2000, "target operations per second (0 = unthrottled)")
		status      = flag.Duration("status", 5*time.Second, "status line interval (0 = silent)")
		seed        = flag.Int64("seed", 1, "workload random seed")
	)
	flag.Parse()
	if err := run(*addr, *k, *m, *stripes, *shards, *spans, *sampling,
		*commitEvery, *duration, *rate, *status, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "eplogmon:", err)
		os.Exit(1)
	}
}

func run(addr string, k, m int, stripes int64, shards, spans, sampling,
	commitEvery int, duration time.Duration, rate float64, status time.Duration, seed int64) error {
	if k < 2 || m < 1 {
		return fmt.Errorf("need k >= 2 and m >= 1, got k=%d m=%d", k, m)
	}
	// Size the simulated SSDs so their logical capacity (after the FTL's
	// 15% overprovisioning) holds the stripes plus a no-overwrite update
	// area of equal size, with a spare flash block of margin against
	// integer truncation.
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
		K:            k,
		Stripes:      stripes,
		CommitEvery:  commitEvery,
		TrimOnCommit: true,
		TraceEvents:  eplog.DefaultTraceEvents,
		Spans:        spans,
		SpanSampling: sampling,
		Shards:       shards,
	})
	if err != nil {
		return err
	}
	defer a.Close()

	srv, err := a.ServeTelemetry(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("eplogmon: (%d+%d) array, %d stripes, %d shard(s); telemetry on http://%s\n",
		k, m, stripes, shards, srv.Addr())
	fmt.Printf("eplogmon:   /metrics /metrics.json /spans /healthz /debug/pprof/\n")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var deadline <-chan time.Time
	if duration > 0 {
		deadline = time.After(duration)
	}
	var tick <-chan time.Time
	if status > 0 {
		t := time.NewTicker(status)
		defer t.Stop()
		tick = t.C
	}
	var pause time.Duration
	if rate > 0 {
		pause = time.Duration(float64(time.Second) / rate)
	}

	// The shared soak mix: skewed single-chunk updates with periodic
	// full-stripe writes and reads (internal/workload, also driven by
	// cmd/eplogsoak and the server soak tests).
	gen, err := workload.New(workload.Config{Chunks: a.Chunks(), K: k, Seed: seed}.DefaultMix())
	if err != nil {
		return err
	}
	buf := make([]byte, chunkSize)
	wide := make([]byte, int64(k)*chunkSize)
	workload.Fill(wide, uint64(seed)+1)
	// Precondition: fill every stripe so updates take the logging path.
	for s := int64(0); s < stripes; s++ {
		if err := a.Write(s*int64(k), wide); err != nil {
			return err
		}
	}
	if err := a.Commit(); err != nil {
		return err
	}

	start := time.Now()
	var ops uint64
	for {
		select {
		case <-stop:
			fmt.Fprintln(os.Stderr, "eplogmon: interrupted")
			return summarize(a, ops, time.Since(start))
		case <-deadline:
			return summarize(a, ops, time.Since(start))
		case <-tick:
			st := a.Stats()
			fmt.Printf("eplogmon: %ds  ops=%d commits=%d pending-log-stripes=%d spans=%d dropped=%d\n",
				int(time.Since(start).Seconds()), ops, st.Commits,
				a.PendingLogStripes(), len(a.Spans()), a.SpansDropped())
		default:
		}
		switch op := gen.Next(); op.Kind {
		case workload.FullStripe:
			workload.Fill(wide, op.Seed)
			err = a.Write(op.LBA, wide)
		case workload.Read:
			err = a.Read(op.LBA, buf)
		default:
			workload.Fill(buf[:64], op.Seed)
			err = a.Write(op.LBA, buf)
		}
		if err != nil {
			return err
		}
		ops++
		if pause > 0 {
			time.Sleep(pause)
		}
	}
}

// summarize prints the closing numbers to stderr and returns nil.
func summarize(a *eplog.Array, ops uint64, elapsed time.Duration) error {
	st := a.Stats()
	fmt.Fprintf(os.Stderr,
		"eplogmon: done — %d ops in %v (%.0f/s), %d commits, %d span trees retained (%d dropped)\n",
		ops, elapsed.Round(time.Millisecond),
		float64(ops)/elapsed.Seconds(), st.Commits, len(a.Spans()), a.SpansDropped())
	return nil
}

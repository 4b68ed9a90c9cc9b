package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/gf"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/server"
)

// The net mode benchmarks the block service's batched read path and
// vectored response writer against the per-request baseline: the same
// pipelined read storm runs once with batching disabled (BatchMax=1,
// WritevMax=1, no linger — one engine entry and one write syscall per
// request) and once with the defaults, where each connection's burst of
// READs is one engine batch. The engine is configured with device buffers
// so reads take the locked path and the shard-lock acquisitions per op are
// a real, countable cost; the report's headline numbers are the locks/op
// amortization factor — bounded by depth over shards, 16/4 here, since a
// batch is one connection's burst — and the vectored writes issued per
// response frame. Both are count ratios, so they are host-independent —
// unlike the throughput and latency columns, which the host provenance
// fields qualify.

// netRow is one mode's measurements in the JSON report.
type netRow struct {
	Mode       string  `json:"mode"`
	Conns      int     `json:"conns"`
	Depth      int     `json:"depth"`
	OpsPerConn int     `json:"ops_per_conn"`
	Reads      int64   `json:"reads"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	P50Micros  float64 `json:"p50_micros"`
	P99Micros  float64 `json:"p99_micros"`
	// ReadLocksPerOp is engine shard read-lock acquisitions over reads
	// served — 1.0 when every request locks for itself, shard groups over
	// batch width when a burst shares them.
	ReadLocksPerOp float64 `json:"read_locks_per_op"`
	// WritevPerResponse is vectored write calls over response frames —
	// response syscalls per frame; 1.0 unbatched, below it when the
	// connection writers coalesce.
	WritevPerResponse float64 `json:"writev_per_response"`
	ReadBatches       int64   `json:"read_batches"`
	AvgOpsPerBatch    float64 `json:"avg_ops_per_batch"`
}

// netReport is the BENCH_net.json schema.
type netReport struct {
	Command    string   `json:"command"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	Kernel     string   `json:"kernel"`
	Note       string   `json:"note"`
	Runs       []netRow `json:"runs"`
	// LockAmortization is baseline read_locks_per_op over batched
	// read_locks_per_op — the acceptance bar is >= 2x (half of what whole
	// depth-16 bursts over 4 shards give).
	LockAmortization float64 `json:"lock_amortization"`
}

// guardNetOverwrite mirrors guardScalingOverwrite: the checked-in report's
// throughput/latency columns must not be silently replaced by a run from a
// smaller machine. Count ratios survive any host, but the report is one
// file, so the same NumCPU provenance rule applies.
func guardNetOverwrite(path string, force bool) error {
	if force {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var existing netReport
	if json.Unmarshal(data, &existing) != nil {
		return nil
	}
	if existing.NumCPU > runtime.NumCPU() {
		return fmt.Errorf("refusing to overwrite %s: existing report was measured on %d CPUs (%s), this host has %d — rerun with -force to overwrite anyway",
			path, existing.NumCPU, existing.CPUModel, runtime.NumCPU())
	}
	return nil
}

// netBenchEngine builds the benchmark array: RAM devices, 4 shards, and —
// critically — device buffers enabled, which turns the lock-free read fast
// path off so every read must take a shard lock and the locks/op column
// measures the batching payoff rather than a wash between two free paths.
func netBenchEngine(sink *obs.Sink) (*core.EPLog, error) {
	const (
		k, n    = 6, 8
		chunk   = 4096
		stripes = 512
	)
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(stripes*8, chunk)
	}
	logs := make([]device.Dev, n-k)
	for i := range logs {
		logs[i] = device.NewMem(stripes*16, chunk)
	}
	return core.New(devs, logs, core.Config{
		K:                  k,
		Stripes:            stripes,
		Shards:             4,
		DeviceBufferChunks: 64,
		Obs:                sink,
	})
}

// runNetMode stands a server up over a fresh engine, preconditions the
// array, fires conns pipelined read connections at it, and returns the
// measured row.
func runNetMode(mode string, opts server.Options, conns, depth, opsPerConn int) (netRow, error) {
	row := netRow{Mode: mode, Conns: conns, Depth: depth, OpsPerConn: opsPerConn}
	sink := obs.NewSink(4096)
	opts.Sink = sink
	opts.CloseStore = true
	eng, err := netBenchEngine(sink)
	if err != nil {
		return row, err
	}
	srv, err := server.Listen("127.0.0.1:0", eng, opts)
	if err != nil {
		eng.Close()
		return row, err
	}
	defer srv.Close()
	addr := srv.Addr().String()

	// Precondition: fill every stripe so reads return real data, and
	// flush so the engine is quiescent when the clock starts.
	const chunk = 4096
	k := int(eng.Geometry().K)
	pre, err := server.Dial(addr, 0)
	if err != nil {
		return row, err
	}
	full := make([]byte, k*chunk)
	rand.New(rand.NewSource(1)).Read(full)
	for s := int64(0); s < eng.Geometry().Stripes; s++ {
		if err := pre.Write(s*int64(k), full); err != nil {
			pre.Close()
			return row, fmt.Errorf("precondition stripe %d: %w", s, err)
		}
	}
	if err := pre.Flush(); err != nil {
		pre.Close()
		return row, err
	}
	pre.Close()

	cReads := sink.Counter("net.ops.read")
	cFramesOut := sink.Counter("net.frames_out")
	cWritev := sink.Counter("net.writev_calls")
	cBatches := sink.Counter("net.read_batches")
	baseReads := cReads.Value()
	baseFrames := cFramesOut.Value()
	baseWritev := cWritev.Value()
	baseBatches := cBatches.Value()
	baseLocks := eng.ReadLockAcquisitions()

	var (
		mu   sync.Mutex
		lats []time.Duration
		wg   sync.WaitGroup
		errs = make([]error, conns)
	)
	chunks := int(eng.Chunks())
	start := time.Now()
	wg.Add(conns)
	for ci := 0; ci < conns; ci++ {
		go func(ci int) {
			defer wg.Done()
			c, err := server.Dial(addr, 0)
			if err != nil {
				errs[ci] = err
				return
			}
			defer c.Close()
			r := rand.New(rand.NewSource(int64(ci)))
			dst := make([][]byte, depth)
			for i := range dst {
				dst[i] = bufpool.Default.Get(chunk)
			}
			defer func() {
				for _, d := range dst {
					bufpool.Default.Put(d)
				}
			}()
			issued := make(map[*server.Call]time.Time, depth)
			done := make(chan *server.Call, depth)
			local := make([]time.Duration, 0, opsPerConn)
			complete := func(call *server.Call) error {
				t0 := issued[call]
				delete(issued, call)
				if call.Err != nil {
					return call.Err
				}
				local = append(local, time.Since(t0))
				dst = append(dst, call.Dst[:cap(call.Dst)])
				return nil
			}
			for i := 0; i < opsPerConn; i++ {
				for len(issued) >= depth {
					if err := complete(<-done); err != nil {
						errs[ci] = err
						return
					}
				}
				d := dst[len(dst)-1]
				dst = dst[:len(dst)-1]
				lba := int64(r.Intn(chunks))
				call := c.GoRead(lba, 1, d, done)
				issued[call] = time.Now()
			}
			for len(issued) > 0 {
				if err := complete(<-done); err != nil {
					errs[ci] = err
					return
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for ci, err := range errs {
		if err != nil {
			return row, fmt.Errorf("conn %d: %w", ci, err)
		}
	}

	row.Reads = cReads.Value() - baseReads
	if want := int64(conns * opsPerConn); row.Reads != want {
		return row, fmt.Errorf("server counted %d reads, drove %d", row.Reads, want)
	}
	row.OpsPerSec = float64(row.Reads) / elapsed.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	row.P50Micros = float64(lats[len(lats)/2].Microseconds())
	row.P99Micros = float64(lats[len(lats)*99/100].Microseconds())
	row.ReadLocksPerOp = float64(eng.ReadLockAcquisitions()-baseLocks) / float64(row.Reads)
	frames := cFramesOut.Value() - baseFrames
	if frames > 0 {
		row.WritevPerResponse = float64(cWritev.Value()-baseWritev) / float64(frames)
	}
	row.ReadBatches = cBatches.Value() - baseBatches
	if row.ReadBatches > 0 {
		row.AvgOpsPerBatch = float64(row.Reads) / float64(row.ReadBatches)
	}
	return row, nil
}

// runNetBench runs both modes and writes the report to path.
func runNetBench(conns, opsPerConn int, path string, force bool) error {
	if err := guardNetOverwrite(path, force); err != nil {
		return err
	}
	const depth = 16
	fmt.Printf("Network read-batching benchmark — %s/%s, %d CPUs, GOMAXPROCS=%d, gf kernel %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), gf.KernelName())
	fmt.Printf("%d conns x %d single-chunk reads, depth %d, locked read path (device buffers on)\n\n",
		conns, opsPerConn, depth)

	baseline, err := runNetMode("per-request", server.Options{
		BatchMax:  1,
		WritevMax: 1,
		BatchAge:  -1,
	}, conns, depth, opsPerConn)
	if err != nil {
		return fmt.Errorf("net baseline: %w", err)
	}
	batched, err := runNetMode("batched", server.Options{}, conns, depth, opsPerConn)
	if err != nil {
		return fmt.Errorf("net batched: %w", err)
	}

	rep := &netReport{
		Command:    fmt.Sprintf("eplogbench -exp net -net-conns %d -net-ops %d", conns, opsPerConn),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Kernel:     gf.KernelName(),
		Note: "read_locks_per_op and writev_per_response are count ratios and hold on any host; " +
			"ops_per_sec and the latency percentiles depend on the machine in the provenance fields. " +
			"The engine runs with device buffers enabled, so reads take the locked slow path and " +
			"lock amortization is measurable; with buffers off both modes read lock-free.",
		Runs: []netRow{baseline, batched},
	}
	if batched.ReadLocksPerOp > 0 {
		rep.LockAmortization = baseline.ReadLocksPerOp / batched.ReadLocksPerOp
	}

	for _, r := range rep.Runs {
		fmt.Printf("%-12s %9.0f ops/s  p50 %6.0fµs  p99 %7.0fµs  locks/op %6.4f  writev/resp %6.4f  batches %d (avg %.1f ops)\n",
			r.Mode, r.OpsPerSec, r.P50Micros, r.P99Micros, r.ReadLocksPerOp, r.WritevPerResponse,
			r.ReadBatches, r.AvgOpsPerBatch)
	}
	fmt.Printf("\nlock amortization: %.1fx (acceptance >= 2x)\n", rep.LockAmortization)
	if rep.LockAmortization < 2 {
		return fmt.Errorf("net: lock amortization %.2fx below the 2x acceptance bar", rep.LockAmortization)
	}
	if batched.WritevPerResponse >= 1 {
		return fmt.Errorf("net: batched mode issued %.3f vectored writes per response frame, want < 1.0", batched.WritevPerResponse)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"github.com/eplog/eplog/internal/experiments"
	"github.com/eplog/eplog/internal/gf"
)

// The scaling mode sweeps the engine's stripe-group shard count over the
// byte-deterministic shard-scaling workload and writes the results to a
// JSON report (BENCH_scaling.json in the repo). Byte counts are asserted identical
// across every configuration — sharding may only change wall-clock time —
// so the report doubles as the checked-in evidence for both the
// determinism contract and the parallel speedup. Speedups are only
// meaningful when the host has at least as many cores as shards; the
// report records NumCPU and GOMAXPROCS so a single-core CI run is not
// mistaken for a regression.

// scalingRow is one configuration in the JSON report.
type scalingRow struct {
	Shards         int     `json:"shards"`
	Writers        int     `json:"writers"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Speedup is the 1-shard row's elapsed over this row's elapsed.
	Speedup float64 `json:"speedup"`
	// ReadElapsedSeconds and ReadSpeedup are the same pair for the
	// read-back phase, which runs on clean stripes over the lock-free
	// epoch-validated read path.
	ReadElapsedSeconds float64 `json:"read_elapsed_seconds"`
	ReadSpeedup        float64 `json:"read_speedup"`
	SSDWriteBytes      int64   `json:"ssd_write_bytes"`
	SSDReadBytes       int64   `json:"ssd_read_bytes"`
	LogWriteBytes      int64   `json:"log_write_bytes"`
	Commits            int64   `json:"commits"`
	// LockWaitSeconds is the flight recorders' aggregate shard-lock wait
	// for the row's best run — near zero when writers stay on their own
	// shards; see experiments.ScalingResult.LockWaitSeconds.
	LockWaitSeconds float64 `json:"lock_wait_seconds"`
}

// scalingReport is the BENCH_scaling.json schema.
type scalingReport struct {
	Command    string `json:"command"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is the host CPU's self-reported model string (empty when
	// the platform does not expose one) and Kernel the GF(2^8) coding
	// kernel the runtime dispatcher selected on this host — together they
	// say what silicon the elapsed columns were measured on.
	CPUModel string `json:"cpu_model"`
	Kernel   string `json:"kernel"`
	Scale    int64  `json:"scale"`
	Requests int64  `json:"requests"`
	// Note qualifies the speedup column for single-core environments.
	Note string       `json:"note"`
	Runs []scalingRow `json:"runs"`
	// SpeedupAt4Shards is the headline number; the acceptance bar is >= 2x
	// on a 4+-core host. ReadSpeedupAt4Shards is its read-phase counterpart.
	SpeedupAt4Shards     float64 `json:"speedup_at_4_shards"`
	ReadSpeedupAt4Shards float64 `json:"read_speedup_at_4_shards"`
	BytesIdentical       bool    `json:"bytes_identical"`
}

// cpuModel returns the host CPU's model string from /proc/cpuinfo, or ""
// where the file or field is unavailable (non-Linux hosts).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// guardScalingOverwrite protects the checked-in report's provenance: a
// speedup column measured on a multi-core host must not be silently
// replaced by a run from a smaller machine (a 1-CPU CI runner re-running
// the sweep would overwrite real speedups with flat ones). It refuses
// when an existing report at path was measured with more CPUs than this
// host, unless force is set. A missing or unparseable file never blocks:
// there is no provenance to protect.
func guardScalingOverwrite(path string, force bool) error {
	if force {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var existing scalingReport
	if json.Unmarshal(data, &existing) != nil {
		return nil
	}
	if existing.NumCPU > runtime.NumCPU() {
		return fmt.Errorf("refusing to overwrite %s: existing report was measured on %d CPUs (%s), this host has %d — rerun with -force to overwrite anyway",
			path, existing.NumCPU, existing.CPUModel, runtime.NumCPU())
	}
	return nil
}

// runScalingBench runs the shard sweep and writes the report to path.
func runScalingBench(scale int64, maxShards int, path string, force bool) error {
	if err := guardScalingOverwrite(path, force); err != nil {
		return err
	}
	benchScale := scale / 8
	if benchScale < 1 {
		benchScale = 1
	}
	shardSweep := map[int]bool{1: true, 2: true, 4: true, 8: true}
	if maxShards > 1 {
		shardSweep[maxShards] = true
	}
	var shardsList []int
	for s := range shardSweep {
		shardsList = append(shardsList, s)
	}
	sort.Ints(shardsList)

	fmt.Printf("Shard-scaling sweep — %s/%s, %d CPUs, GOMAXPROCS=%d, gf kernel %s\n\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), gf.KernelName())
	rep := &scalingReport{
		Command:    fmt.Sprintf("eplogbench -exp scaling -scale %d -shards %d", scale, maxShards),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Kernel:     gf.KernelName(),
		Scale:      benchScale,
		Note: "speedup compares wall-clock time against the 1-shard run; " +
			"it is only meaningful when NumCPU >= shards. Byte counts must be identical in every row.",
		BytesIdentical: true,
	}

	// best-of-3 elapsed per configuration smooths scheduler noise.
	const iters = 3
	var results []*experiments.ScalingResult
	for _, s := range shardsList {
		var best *experiments.ScalingResult
		for i := 0; i < iters; i++ {
			r, err := experiments.Scaling(benchScale, s)
			if err != nil {
				return fmt.Errorf("scaling shards=%d: %w", s, err)
			}
			if best == nil || r.Elapsed+r.ReadElapsed < best.Elapsed+best.ReadElapsed {
				best = r
			}
		}
		results = append(results, best)
	}

	base := results[0] // the 1-shard run: shardsList is sorted and always holds 1
	rep.Requests = base.Requests
	for _, r := range results {
		if !experiments.ScalingIdentical(base, r) {
			rep.BytesIdentical = false
		}
		speedup, readSpeedup := 0.0, 0.0
		if r.Elapsed > 0 {
			speedup = base.Elapsed.Seconds() / r.Elapsed.Seconds()
		}
		if r.ReadElapsed > 0 {
			readSpeedup = base.ReadElapsed.Seconds() / r.ReadElapsed.Seconds()
		}
		if r.Shards == 4 {
			rep.SpeedupAt4Shards = speedup
			rep.ReadSpeedupAt4Shards = readSpeedup
		}
		rep.Runs = append(rep.Runs, scalingRow{
			Shards:             r.Shards,
			Writers:            r.Writers,
			ElapsedSeconds:     r.Elapsed.Seconds(),
			Speedup:            speedup,
			ReadElapsedSeconds: r.ReadElapsed.Seconds(),
			ReadSpeedup:        readSpeedup,
			SSDWriteBytes:      r.SSDWriteBytes,
			SSDReadBytes:       r.SSDReadBytes,
			LogWriteBytes:      r.LogWriteBytes,
			Commits:            r.EPLogStats.Commits,
			LockWaitSeconds:    r.LockWaitSeconds,
		})
	}
	fmt.Print(experiments.FormatScaling(results))
	if !rep.BytesIdentical {
		return fmt.Errorf("scaling: byte counts diverged across shard counts — determinism contract broken")
	}
	fmt.Println("byte counts identical across shard counts ✓")

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

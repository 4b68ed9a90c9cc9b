// Command benchmark measures the EPLog block service end to end and every
// layer under it: four workloads against a child server process that
// builds cmd/eplogserve's default stack, over loopback TCP, with every
// byte read back checked. See README.md.
//
//	go run .                       # all workloads, every metric, exit 1 on any mismatch
//	go run . -repeat 5             # spread of the end-to-end metrics against their bounds
//	go run . -workload read_clean -seed 7 -seconds 15 -trace 0   # one driver run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"github.com/eplog/eplog/internal/gf"
)

// defaultWindow is the measured closed-loop window, BENCHMARK.json's
// run_seconds. ISSUE 12 asked for 30 s; the driver's cap on the total time
// of its runs leaves room for 15, on all four workloads alike.
const defaultWindow = 15 * time.Second

// plan is what one invocation measures for each workload.
type plan struct {
	seed   int64
	setups int
	warmup time.Duration
	window time.Duration // untraced closed loop
	open   time.Duration // open loop, after the closed window; 0 skips
	traced time.Duration // traced closed loop on a second child; 0 skips
	rung   time.Duration // per rung
	outDir string
}

// outcome is one workload's metrics.
type outcome struct {
	spec              workloadSpec
	e2e, layers       map[string]float64
	attempted, failed int64
	faults            string
	samples           int
}

// measureWorkload runs one workload as the plan says. rungs are the
// workload-independent per-layer metrics, measured once per invocation.
func measureWorkload(spec workloadSpec, p plan, rungs map[string]float64) (*outcome, error) {
	r, err := runWorkload(spec, p, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	out := &outcome{
		spec: spec, e2e: endToEndMetrics(r), attempted: r.attempted, failed: r.failed,
		faults: r.faults, samples: len(r.closed.reads) + len(r.closed.writes),
	}
	if p.traced == 0 {
		return out, nil
	}
	out.layers = make(map[string]float64)
	for k, v := range rungs {
		out.layers[k] = v
	}
	counterMetrics(r, out.layers)
	clientMetrics(r, out.layers)
	p.setups, p.window, p.open = 1, p.traced, 0
	tr, err := runWorkload(spec, p, true)
	if err != nil {
		return nil, fmt.Errorf("%s (traced): %w", spec.name, err)
	}
	tracedMetrics(r, tr, out.layers)
	out.attempted += tr.attempted
	out.failed += tr.failed
	out.faults += tr.faults
	return out, nil
}

func main() {
	if serveIfChild() {
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (driver mode); empty runs all four")
	flag.Int64Var(&o.seed, "seed", 1, "seeds every op stream and payload")
	flag.Float64Var(&o.seconds, "seconds", 0, "driver mode: seconds measured in this run (overrides -window)")
	flag.StringVar(&o.trace, "trace", "", "driver mode: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
	flag.DurationVar(&o.window, "window", defaultWindow, "measured closed-loop window; exists so the driver's time cap can be met")
	flag.DurationVar(&o.warmup, "warmup", 3*time.Second, "closed-loop warm-up, discarded")
	flag.IntVar(&o.repeat, "repeat", 0, "run the end-to-end set N times (seeds seed..seed+N-1) and print each metric's spread against its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "1 s windows: a functional check, not a measurement")
	flag.StringVar(&o.outDir, "out", "out", "directory for the trace JSONL")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command line.
type options struct {
	workload, trace, outDir string
	seed                    int64
	seconds                 float64
	window, warmup          time.Duration
	repeat                  int
	smoke                   bool
}

func run(o options) error {
	specs := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		specs = []workloadSpec{w}
	}
	window := o.window
	if o.seconds > 0 {
		window = time.Duration(o.seconds * float64(time.Second))
	}
	p := plan{seed: o.seed, setups: 5, warmup: o.warmup, window: window, open: window / 3, traced: window / 3, rung: time.Second, outDir: o.outDir}
	if o.smoke {
		p = plan{seed: o.seed, setups: 1, warmup: 300 * time.Millisecond, window: time.Second,
			open: 300 * time.Millisecond, traced: 300 * time.Millisecond, rung: 5 * time.Millisecond, outDir: o.outDir}
	}
	switch {
	case o.repeat > 0:
		p.open, p.traced, p.rung = 0, 0, 0
		printProvenance(p)
		return runRepeat(specs, p, o.repeat)
	case o.trace == "0":
		// One driver run: the end-to-end metrics of one workload.
		p.open, p.traced, p.rung = 0, 0, 0
	case o.trace == "1":
		// One driver run: the per-layer metrics. The measured time is split
		// between the untraced window the counters come from, the
		// open-loop window and the traced window; rungs are kept short.
		p.setups = 1
		p.window, p.open, p.traced = window/2, window/4, window/4
		p.rung = min(p.rung, 120*time.Millisecond)
	case o.trace != "":
		return fmt.Errorf("-trace %q: want 0 or 1", o.trace)
	}
	if o.trace != "" && len(specs) != 1 {
		return fmt.Errorf("-trace needs -workload")
	}
	printProvenance(p)

	var rungs map[string]float64
	if p.traced > 0 {
		var err error
		if rungs, err = runRungs(p.rung); err != nil {
			return fmt.Errorf("rungs: %w", err)
		}
	}
	var failed int64
	for _, spec := range specs {
		out, err := measureWorkload(spec, p, rungs)
		if err != nil {
			return err
		}
		failed += out.failed
		printOutcome(out, o.trace)
		if o.trace != "" {
			if err := printResult(out, o.trace == "1"); err != nil {
				return err
			}
		}
	}
	// A driver run reports failures in its result line and exits 0.
	if failed > 0 && o.trace == "" {
		return fmt.Errorf("%d operations failed verification", failed)
	}
	return nil
}

// printOutcome prints one workload's metrics by name with their units.
func printOutcome(out *outcome, trace string) {
	fmt.Printf("\n== %s: %s\n", out.spec.name, out.spec.why)
	if trace != "1" {
		fmt.Printf("end-to-end (tracing off; p99 over %d samples)\n", out.samples)
		for _, d := range endToEnd {
			fmt.Printf("  %-36s %14.4f %s\n", d.name, out.e2e[d.name], d.unit)
		}
		fmt.Printf("  %-36s %14.6f ratio (%d of %d)%s\n", "failed_share",
			ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted, out.faults)
	}
	if out.layers != nil && trace != "0" {
		fmt.Println("per layer")
		for _, d := range perLayer {
			fmt.Printf("  %-36s %14.4f %s\n", d.name, out.layers[d.name], d.unit)
		}
	}
}

// printResult prints the driver's result line: the last line of stdout.
func printResult(out *outcome, layers bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, out.e2e
	if layers {
		defs, vals = perLayer, out.layers
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printProvenance says what produced the numbers, and warns where the
// host is smaller than the checked-in record should come from.
func printProvenance(p plan) {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: commit %s, %s, %d cpus (%s), GOMAXPROCS %d, gf kernel %s\n",
		commit, runtime.Version(), runtime.NumCPU(), cpu, runtime.GOMAXPROCS(0), gf.KernelName())
	fmt.Fprintf(os.Stderr, "benchmark: seed %d, %d set-up(s), warm-up %v, window %v, open loop %v, traced %v, %v per rung; %d connections at depth %d\n",
		p.seed, p.setups, p.warmup, p.window, p.open, p.traced, p.rung, loadConns, loadDepth)
	if shards := engineConfig(nil).Shards; runtime.NumCPU() < shards {
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: %d cpus < %d shards: shards share cores with each other and with the load generator; "+
			"ROADMAP wants cores >= shards for the checked-in record\n", runtime.NumCPU(), shards)
	}
}

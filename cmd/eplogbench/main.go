// Command eplogbench regenerates the tables and figures of the EPLog
// paper's evaluation (Section V and Figure 6) using the trace-driven
// harness in internal/experiments.
//
// Usage:
//
//	eplogbench [-exp all|table1|1|2|3|4|5|6|fig6|recovery|ablations] [-scale N] [-csv file] [-json file]
//
// Scale divides the paper's request counts and working sets; -scale 1 is
// paper scale (hours of runtime and tens of GB of RAM), the default keeps
// the full suite to minutes on a laptop. -csv and -json mirror every
// experiment's records to machine-readable files.
//
// The system's performance record is the benchmark/ module, and its live
// telemetry is eplogserve -telemetry; this command runs the paper's
// experiments only.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/eplog/eplog/internal/experiments"
)

// outputs collects the optional machine-readable output paths.
type outputs struct {
	csvPath  string
	jsonPath string
}

// experimentNames is every value -exp accepts: "all" and the steps of run.
var experimentNames = []string{"all", "table1", "1", "2", "3", "4", "5", "6", "fig6", "recovery", "ablations"}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment to run: "+strings.Join(experimentNames, ", "))
		scale = flag.Int64("scale", experiments.DefaultScale, "scale divisor versus the paper (1 = paper scale)")
		out   outputs
	)
	flag.StringVar(&out.csvPath, "csv", "", "also append machine-readable rows to this CSV file")
	flag.StringVar(&out.jsonPath, "json", "", "also append machine-readable records to this JSON Lines file")
	flag.Parse()
	if err := run(*exp, *scale, out); err != nil {
		fmt.Fprintln(os.Stderr, "eplogbench:", err)
		os.Exit(1)
	}
}

// recorder mirrors experiment,workload,scheme,metric,value records to an
// optional CSV file and an optional JSON Lines file.
type recorder struct {
	w   *csv.Writer
	enc *json.Encoder
}

// record is one JSON Lines entry.
type record struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Scheme     string  `json:"scheme"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
}

func newRecorder(csvPath, jsonPath string) (*recorder, func() error, error) {
	if csvPath == "" && jsonPath == "" {
		return nil, func() error { return nil }, nil
	}
	s := &recorder{}
	var files []*os.File
	closeAll := func() error {
		var first error
		if s.w != nil {
			s.w.Flush()
			first = s.w.Error()
		}
		for _, f := range files {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		s.w = csv.NewWriter(f)
		if err := s.w.Write([]string{"experiment", "workload", "scheme", "metric", "value"}); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		files = append(files, f)
		s.enc = json.NewEncoder(f)
	}
	return s, closeAll, nil
}

func (s *recorder) add(exp, workload, scheme, metric string, value float64) {
	if s == nil {
		return
	}
	if s.w != nil {
		_ = s.w.Write([]string{exp, workload, scheme, metric,
			strconv.FormatFloat(value, 'g', -1, 64)})
	}
	if s.enc != nil {
		_ = s.enc.Encode(record{Experiment: exp, Workload: workload,
			Scheme: scheme, Metric: metric, Value: value})
	}
}

// addRows flattens a scheme-comparison matrix.
func (s *recorder) addRows(exp string, rows []experiments.SchemeRow) {
	if s == nil {
		return
	}
	for _, r := range rows {
		s.add(exp, r.Label, r.Scheme.String(), "ssd_write_bytes", float64(r.Result.SSDWriteBytes))
		s.add(exp, r.Label, r.Scheme.String(), "ssd_read_bytes", float64(r.Result.SSDReadBytes))
		s.add(exp, r.Label, r.Scheme.String(), "log_write_bytes", float64(r.Result.LogWriteBytes))
		if r.Result.GCPerSSD > 0 {
			s.add(exp, r.Label, r.Scheme.String(), "gc_per_ssd", r.Result.GCPerSSD)
		}
		if r.Result.KIOPS > 0 {
			s.add(exp, r.Label, r.Scheme.String(), "kiops", r.Result.KIOPS)
		}
	}
}

func run(exp string, scale int64, out outputs) error {
	if !slices.Contains(experimentNames, exp) {
		return fmt.Errorf("unknown experiment %q (want %s)", exp, strings.Join(experimentNames, ", "))
	}
	if scale < 1 {
		return fmt.Errorf("scale must be >= 1, got %d", scale)
	}
	fmt.Printf("EPLog evaluation harness — scale 1/%d of the paper's workloads\n\n", scale)
	sink, closeRec, err := newRecorder(out.csvPath, out.jsonPath)
	if err != nil {
		return err
	}
	defer func() {
		if err := closeRec(); err != nil {
			fmt.Fprintln(os.Stderr, "eplogbench: record output:", err)
		}
	}()

	step := func(name string, f func() error) error {
		if exp != "all" && exp != name {
			return nil
		}
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := step("fig6", func() error {
		series, err := experiments.Fig6()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig6(series))
		names := make([]string, 0, len(series))
		for name := range series {
			names = append(names, name)
		}
		slices.Sort(names) // records in a fixed order, not map order
		for _, name := range names {
			for _, p := range series[name] {
				label := fmt.Sprintf("%s/ratio=%.2f", name, p.Ratio)
				sink.add("fig6", label, "EPLog", "mttdl_years", p.EPLog)
				sink.add("fig6", label, "conventional", "mttdl_years", p.Conventional)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := step("table1", func() error {
		rows, err := experiments.TableI(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTableI(rows, scale))
		return nil
	}); err != nil {
		return err
	}

	if err := step("1", func() error {
		rows, err := experiments.Exp1Traces(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatWriteTraffic(
			"Experiment 1 (Fig. 7a): SSD write traffic per trace, (6+2)-RAID-6", rows))
		sink.addRows("exp1-traces", rows)
		rows, err = experiments.Exp1Settings(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatWriteTraffic(
			"Experiment 1 (Fig. 7b): SSD write traffic per setting, FIN", rows))
		sink.addRows("exp1-settings", rows)
		alpha := experiments.AlphaFromRows(rows)
		sink.add("exp1-settings", "FIN", "EPLog", "alpha", alpha)
		fmt.Printf("measured α (EPLog/MD write ratio, feeds Fig. 6): %.2f — the paper estimates 0.5\n", alpha)
		return nil
	}); err != nil {
		return err
	}

	if err := step("2", func() error {
		rows, err := experiments.Exp2Traces(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatGC(
			"Experiment 2 (Fig. 8a): GC per SSD per trace, (6+2)-RAID-6", rows))
		sink.addRows("exp2-traces", rows)
		rows, err = experiments.Exp2Settings(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatGC(
			"Experiment 2 (Fig. 8b): GC per SSD per setting, FIN", rows))
		sink.addRows("exp2-settings", rows)
		return nil
	}); err != nil {
		return err
	}

	if err := step("3", func() error {
		rows, err := experiments.Exp3Caching(scale, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatExp3(rows))
		for _, r := range rows {
			label := fmt.Sprintf("%s/buf=%d", r.Trace, r.BufChunks)
			sink.add("exp3", label, "EPLog", "ssd_write_bytes", float64(r.WriteBytes))
			sink.add("exp3", label, "EPLog", "log_write_bytes", float64(r.LogBytes))
		}
		return nil
	}); err != nil {
		return err
	}

	if err := step("4", func() error {
		rows, err := experiments.Exp4Commit(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatExp4(rows))
		for _, r := range rows {
			sink.add("exp4", r.Trace+"/"+r.Policy, "EPLog", "ssd_write_bytes", float64(r.Result.SSDWriteBytes))
			sink.add("exp4", r.Trace+"/"+r.Policy, "EPLog", "gc_per_ssd", r.Result.GCPerSSD)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := step("5", func() error {
		rows, err := experiments.Exp5Traces(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatThroughput(
			"Experiment 5 (Fig. 11a): throughput per trace, (6+2)-RAID-6", rows))
		sink.addRows("exp5-traces", rows)
		rows, err = experiments.Exp5Settings(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatThroughput(
			"Experiment 5 (Fig. 11b): throughput per setting, FIN", rows))
		sink.addRows("exp5-settings", rows)
		return nil
	}); err != nil {
		return err
	}

	if err := step("6", func() error {
		res, err := experiments.Exp6Metadata(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatExp6(res))
		return nil
	}); err != nil {
		return err
	}

	if err := step("ablations", func() error {
		rows, err := experiments.Ablations(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblations(rows))
		for _, r := range rows {
			sink.add("ablations", r.Name, "EPLog", "off", r.Off)
			sink.add("ablations", r.Name, "EPLog", "on", r.On)
		}
		return nil
	}); err != nil {
		return err
	}

	return step("recovery", func() error {
		// The degraded sweep reads every chunk with QD=1 and HDD
		// positioning on the critical path; run it at a reduced size.
		rscale := scale * 8
		res, err := experiments.ExpRecovery(rscale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatRecovery(res))
		return nil
	})
}

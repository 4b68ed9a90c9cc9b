// Command eplogctl manages a persistent EPLog array backed by files — a
// small operational demo of the library: the array state (data, logs, and
// checkpointed metadata) survives across invocations.
//
// Usage:
//
//	eplogctl -dir store create -n 8 -k 6 -stripes 512
//	eplogctl -dir store write -lba 42 -text "hello eplog"
//	eplogctl -dir store read -lba 42
//	eplogctl -dir store commit
//	eplogctl -dir store status
//	eplogctl -dir store scrub
//	eplogctl -dir store rebuild -dev 3
//	eplogctl -dir store metrics
//	eplogctl -dir store spans
//
// Every command records this invocation's metrics and causal span trees;
// the global -metrics-out and -spans-out flags dump them on exit. The metrics command scrubs the array and
// prints the session's metrics in Prometheus text format; the spans
// command reads one stripe and prints the resulting causal span trees —
// operation roots with phase children and per-device I/O leaves — as
// JSON Lines.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/eplog/eplog"
)

const chunkSize = 4096

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eplogctl:", err)
		os.Exit(1)
	}
}

// obsPaths holds the global observability dump destinations for the
// current invocation.
var obsPaths struct {
	metrics string
	spans   string
}

func run(args []string) error {
	global := flag.NewFlagSet("eplogctl", flag.ContinueOnError)
	dir := global.String("dir", "eplog-store", "directory holding the array's backing files")
	metricsOut := global.String("metrics-out", "", "write this invocation's metrics snapshot to this JSON file")
	spansOut := global.String("spans-out", "", "write this invocation's causal span trees to this JSON Lines file")
	if err := global.Parse(args); err != nil {
		return err
	}
	obsPaths.metrics = *metricsOut
	obsPaths.spans = *spansOut
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command: create, write, read, commit, status, scrub, rebuild, metrics, or spans")
	}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "create":
		return create(*dir, rest)
	case "write":
		return write(*dir, rest)
	case "read":
		return read(*dir, rest)
	case "commit":
		return commit(*dir)
	case "status":
		return status(*dir)
	case "rebuild":
		return rebuild(*dir, rest)
	case "scrub":
		return scrub(*dir)
	case "metrics":
		return metrics(*dir)
	case "spans":
		return spans(*dir)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// dumpObs writes the session's metrics and span dumps if requested.
func dumpObs(a *eplog.Array) error {
	if obsPaths.metrics != "" {
		f, err := os.Create(obsPaths.metrics)
		if err != nil {
			return err
		}
		if err := a.Metrics().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if obsPaths.spans != "" {
		f, err := os.Create(obsPaths.spans)
		if err != nil {
			return err
		}
		if err := eplog.WriteSpans(f, a.Spans()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// metrics scrubs the array (reading every stripe through the instrumented
// devices) and prints the session's metrics in Prometheus text format.
func metrics(dir string) error {
	a, _, closeAll, err := openArray(dir)
	if err != nil {
		return err
	}
	defer closeAll()
	if _, err := a.Verify(); err != nil {
		return err
	}
	if err := a.Metrics().WritePrometheus(os.Stdout); err != nil {
		return err
	}
	return dumpObs(a)
}

// spans reads the first stripe chunk by chunk — each read records a
// causal span tree with its per-device I/O leaves — and prints every span
// tree recorded this invocation as JSON Lines.
func spans(dir string) error {
	a, l, closeAll, err := openArray(dir)
	if err != nil {
		return err
	}
	defer closeAll()
	buf := make([]byte, chunkSize)
	for lba := int64(0); lba < int64(l.k) && lba < a.Chunks(); lba++ {
		if err := a.Read(lba, buf); err != nil {
			return err
		}
	}
	if err := eplog.WriteSpans(os.Stdout, a.Spans()); err != nil {
		return err
	}
	return dumpObs(a)
}

// layout holds the persisted array shape.
type layout struct {
	n, k    int
	stripes int64
}

func layoutPath(dir string) string { return filepath.Join(dir, "layout") }

func saveLayout(dir string, l layout) error {
	return os.WriteFile(layoutPath(dir), []byte(fmt.Sprintf("%d %d %d\n", l.n, l.k, l.stripes)), 0o644)
}

func loadLayout(dir string) (layout, error) {
	b, err := os.ReadFile(layoutPath(dir))
	if err != nil {
		return layout{}, fmt.Errorf("array not created yet? %w", err)
	}
	var l layout
	if _, err := fmt.Sscanf(string(b), "%d %d %d", &l.n, &l.k, &l.stripes); err != nil {
		return layout{}, fmt.Errorf("corrupt layout file: %w", err)
	}
	return l, nil
}

// openDevices opens the backing files of the array.
func openDevices(dir string, l layout) (devs, logs []eplog.BlockDevice, meta eplog.BlockDevice, closeAll func(), err error) {
	var files []*eplog.FileDevice
	closeAll = func() {
		for _, f := range files {
			f.Close()
		}
	}
	open := func(name string, chunks int64) (eplog.BlockDevice, error) {
		f, err := eplog.OpenFileDevice(filepath.Join(dir, name), chunks, chunkSize)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	devChunks := l.stripes * 2
	for i := 0; i < l.n; i++ {
		d, err := open(fmt.Sprintf("ssd%d.img", i), devChunks)
		if err != nil {
			closeAll()
			return nil, nil, nil, nil, err
		}
		devs = append(devs, d)
	}
	for i := 0; i < l.n-l.k; i++ {
		d, err := open(fmt.Sprintf("log%d.img", i), l.stripes*4)
		if err != nil {
			closeAll()
			return nil, nil, nil, nil, err
		}
		logs = append(logs, d)
	}
	meta, err = open("meta.img", metaChunks(l))
	if err != nil {
		closeAll()
		return nil, nil, nil, nil, err
	}
	return devs, logs, meta, closeAll, nil
}

func metaChunks(l layout) int64 {
	// Two full areas plus an incremental area, generously sized.
	snap := l.stripes*(24+int64(l.k)*32)/chunkSize + 64
	return 1 + 3*snap + 64
}

func cfg(l layout) eplog.Config {
	// Observability is always on (Spans > 0 turns on metrics too):
	// eplogctl is an operational demo and the per-invocation cost is
	// negligible at its scale.
	return eplog.Config{K: l.k, Stripes: l.stripes, Spans: eplog.DefaultSpanTrees}
}

// openArray opens the array from its newest checkpoint.
func openArray(dir string) (*eplog.Array, layout, func(), error) {
	l, err := loadLayout(dir)
	if err != nil {
		return nil, layout{}, nil, err
	}
	devs, logs, meta, closeAll, err := openDevices(dir, l)
	if err != nil {
		return nil, layout{}, nil, err
	}
	a, err := eplog.Open(devs, logs, cfg(l), meta)
	if err != nil {
		closeAll()
		return nil, layout{}, nil, err
	}
	return a, l, closeAll, nil
}

func create(dir string, args []string) error {
	fs := flag.NewFlagSet("create", flag.ContinueOnError)
	n := fs.Int("n", 8, "number of main-array devices")
	k := fs.Int("k", 6, "data chunks per stripe")
	stripes := fs.Int64("stripes", 512, "number of stripes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(layoutPath(dir)); err == nil {
		return fmt.Errorf("array already exists in %s", dir)
	}
	l := layout{n: *n, k: *k, stripes: *stripes}
	devs, logs, meta, closeAll, err := openDevices(dir, l)
	if err != nil {
		return err
	}
	defer closeAll()
	a, err := eplog.New(devs, logs, cfg(l))
	if err != nil {
		return err
	}
	if err := a.FormatMetadataVolume(meta, metaChunks(l)/3); err != nil {
		return err
	}
	if err := a.Checkpoint(true); err != nil {
		return err
	}
	if err := saveLayout(dir, l); err != nil {
		return err
	}
	fmt.Printf("created (%d+%d) array with %d stripes (%d MB logical) in %s\n",
		*k, *n-*k, *stripes, l.stripes*int64(*k)*chunkSize>>20, dir)
	return nil
}

func write(dir string, args []string) error {
	fs := flag.NewFlagSet("write", flag.ContinueOnError)
	lba := fs.Int64("lba", 0, "logical chunk to write")
	text := fs.String("text", "", "payload text (padded to one chunk)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, _, closeAll, err := openArray(dir)
	if err != nil {
		return err
	}
	defer closeAll()
	buf := make([]byte, chunkSize)
	copy(buf, *text)
	if err := a.Write(*lba, buf); err != nil {
		return err
	}
	if err := a.Checkpoint(false); err != nil {
		return err
	}
	fmt.Printf("wrote chunk %d (%d pending log stripes)\n", *lba, a.PendingLogStripes())
	return dumpObs(a)
}

func read(dir string, args []string) error {
	fs := flag.NewFlagSet("read", flag.ContinueOnError)
	lba := fs.Int64("lba", 0, "logical chunk to read")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, _, closeAll, err := openArray(dir)
	if err != nil {
		return err
	}
	defer closeAll()
	buf := make([]byte, chunkSize)
	if err := a.Read(*lba, buf); err != nil {
		return err
	}
	fmt.Printf("chunk %d: %q\n", *lba, strings.TrimRight(string(buf), "\x00"))
	return dumpObs(a)
}

func commit(dir string) error {
	a, _, closeAll, err := openArray(dir)
	if err != nil {
		return err
	}
	defer closeAll()
	if err := a.Commit(); err != nil {
		return err
	}
	if err := a.Checkpoint(true); err != nil {
		return err
	}
	s := a.Stats()
	fmt.Printf("parity committed (%d commit reads, %d parity writes so far this session)\n",
		s.CommitReadChunks, s.CommitWriteChunks)
	return dumpObs(a)
}

func status(dir string) error {
	a, l, closeAll, err := openArray(dir)
	if err != nil {
		return err
	}
	defer closeAll()
	fmt.Printf("(%d+%d) array, %d stripes, %d chunks of %d bytes\n",
		l.k, l.n-l.k, l.stripes, a.Chunks(), a.ChunkSize())
	fmt.Printf("pending log stripes: %d\n", a.PendingLogStripes())
	return dumpObs(a)
}

func scrub(dir string) error {
	a, _, closeAll, err := openArray(dir)
	if err != nil {
		return err
	}
	defer closeAll()
	rep, err := a.Verify()
	if err != nil {
		return err
	}
	fmt.Printf("scrubbed %d data stripes and %d log stripes\n", rep.DataStripes, rep.LogStripes)
	if rep.OK() {
		fmt.Println("no inconsistencies found")
		return dumpObs(a)
	}
	return fmt.Errorf("INCONSISTENT: data stripes %v, log stripes %v", rep.BadDataStripes, rep.BadLogStripes)
}

func rebuild(dir string, args []string) error {
	fs := flag.NewFlagSet("rebuild", flag.ContinueOnError)
	dev := fs.Int("dev", 0, "main-array device index to rebuild")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, l, closeAll, err := openArray(dir)
	if err != nil {
		return err
	}
	defer closeAll()
	if *dev < 0 || *dev >= l.n {
		return fmt.Errorf("device %d out of range [0,%d)", *dev, l.n)
	}
	// Rebuild onto a fresh file, then move it into place.
	tmp := filepath.Join(dir, fmt.Sprintf("ssd%d.rebuild.img", *dev))
	repl, err := eplog.OpenFileDevice(tmp, l.stripes*2, chunkSize)
	if err != nil {
		return err
	}
	if err := a.Rebuild(*dev, repl); err != nil {
		repl.Close()
		return err
	}
	if err := a.Checkpoint(true); err != nil {
		repl.Close()
		return err
	}
	if err := repl.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, fmt.Sprintf("ssd%d.img", *dev))); err != nil {
		return err
	}
	fmt.Printf("device %d rebuilt\n", *dev)
	return dumpObs(a)
}

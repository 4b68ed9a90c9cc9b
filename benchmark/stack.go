package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/hdd"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/server"
	"github.com/eplog/eplog/internal/ssd"
)

// failedDev is the main-array device read_degraded fails.
const failedDev = 1

// engineConfig is cmd/eplogserve's default engine configuration.
func engineConfig(sink *obs.Sink) core.Config {
	return core.Config{
		Obs:                sink,
		K:                  arrayK,
		Stripes:            arrayStripe,
		CommitEvery:        256,
		TrimOnCommit:       true,
		Workers:            2,
		Shards:             4,
		WriteBehind:        true,
		DirtyWindowStripes: 128,
	}
}

// ssdRawBytes is cmd/eplogserve's simulated-SSD sizing: logical capacity
// (after the FTL's 15% overprovisioning) holds the stripes plus an equal
// no-overwrite update area, with margin against integer truncation.
func ssdRawBytes() int64 {
	devChunks := float64(arrayStripe * 2)
	return (int64(devChunks/0.85) + 64) * chunkSize
}

// newSink is the sink eplog.New builds for eplogserve's defaults: metrics,
// the default trace ring, and span trees at default sampling.
func newSink() *obs.Sink {
	sink := obs.NewSink(obs.DefaultRingEvents)
	sink.EnableSpans(obs.SpanConfig{Trees: obs.DefaultSpanTrees})
	return sink
}

// stack is the served system: exactly what cmd/eplogserve builds through
// eplog.New and Array.ServeBlocks, assembled on the internal packages so
// that the traced mode can put harness-owned wrappers around each layer.
type stack struct {
	sink   *obs.Sink
	eng    *core.EPLog
	srv    *server.Server
	faulty *device.Faulty
	tr     *tracer // nil unless traced
}

// buildStack builds the (6+2) simulated-SSD array with 2 simulated-HDD
// logs and serves it on a loopback port with server.Options zero-value
// defaults. Both child modes go through here; with trace set every device
// sits in a timedDev and the engine in a timedEngine. Main device 1 is
// always inside a device.Faulty (one branch per I/O) so that read_degraded
// runs the same stack as the other workloads.
func buildStack(trace bool) (*stack, error) {
	st := &stack{sink: newSink()}
	if trace {
		st.tr = newTracer(st.sink)
	}
	wrap := func(role string, i int, d device.Dev) device.Dev {
		name := role + strconv.Itoa(i)
		d = device.NewTraced(d, name, st.sink)
		if trace {
			d = st.tr.wrapDev(d, name, role == "main")
		}
		return d
	}
	devs := make([]device.Dev, arrayK+arrayM)
	for i := range devs {
		d, err := ssd.New(ssd.DefaultParams(ssdRawBytes()))
		if err != nil {
			return nil, err
		}
		d.SetObserver(st.sink, i)
		if i == failedDev {
			st.faulty = device.NewFaulty(d)
			devs[i] = wrap("main", i, st.faulty)
		} else {
			devs[i] = wrap("main", i, d)
		}
	}
	logs := make([]device.Dev, arrayM)
	for i := range logs {
		d, err := hdd.New(hdd.DefaultParams(arrayStripe*8, chunkSize))
		if err != nil {
			return nil, err
		}
		d.SetObserver(st.sink, i)
		logs[i] = wrap("log", i, d)
	}
	eng, err := core.New(devs, logs, engineConfig(st.sink))
	if err != nil {
		return nil, err
	}
	st.eng = eng
	var se server.Engine = eng
	if trace {
		se = st.tr.wrapEngine(eng)
	}
	st.srv, err = server.Listen("127.0.0.1:0", se, server.Options{Sink: st.sink, SpanShard: eng.NumShards()})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return st, nil
}

func (st *stack) close() error {
	err := st.srv.Close()
	if st.tr != nil {
		st.tr.stop()
	}
	if cerr := st.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// failDevice fails main device 1. The server must be quiescent. The read
// that follows goes through the device's mutex, which orders the flag
// for every later I/O, and proves the degraded path serves that device.
func (st *stack) failDevice() error {
	if err := st.eng.Commit(); err != nil {
		return err
	}
	st.faulty.Fail()
	geo := st.eng.Geometry()
	for j := 0; j < geo.K; j++ {
		if geo.DataDev(0, j) == failedDev {
			_, err := st.eng.ReadChunks(0, geo.LBA(0, j), make([]byte, chunkSize))
			return err
		}
	}
	return fmt.Errorf("stripe 0 has no data chunk on device %d", failedDev)
}

// hello is the child's first line on the control pipe.
type hello struct {
	Addr       string `json:"addr"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// childSnap is everything the child reports about itself at one instant:
// counters the program already exports, the process's own accounting,
// and, when traced, the harness-owned wrappers' totals. All values are
// cumulative; a window's numbers are the difference of two snapshots.
type childSnap struct {
	Obs        obs.Snapshot `json:"obs"`
	Stats      core.Stats   `json:"stats"`
	ShardLocks int64        `json:"shard_locks"`
	ReadLocks  int64        `json:"read_locks"`
	Proc       procSample   `json:"proc"`
	Mallocs    uint64       `json:"mallocs"`
	NumGC      uint32       `json:"num_gc"`
	Trace      *traceSnap   `json:"trace,omitempty"`
}

func (st *stack) snapshot() childSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := childSnap{
		Obs:        st.sink.Snapshot(),
		Stats:      st.eng.Stats(),
		ShardLocks: st.eng.ShardLockAcquisitions(),
		ReadLocks:  st.eng.ReadLockAcquisitions(),
		Proc:       readProc(),
		Mallocs:    ms.Mallocs,
		NumGC:      ms.NumGC,
	}
	if st.tr != nil {
		s.Trace = st.tr.snapshot()
	}
	return s
}

// serveIfChild runs the child when the process was started as one (see
// spawnChild) and reports whether it did; a child that fails exits 1.
func serveIfChild() bool {
	if len(os.Args) < 2 || os.Args[1] != "-serve" {
		return false
	}
	trace := len(os.Args) > 2 && os.Args[2] == "-serve-trace"
	if err := serveMain(trace, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		os.Exit(1)
	}
	return true
}

// serveMain is the child: build the stack, announce the address, then
// answer one-line commands on stdin with one-line JSON on stdout until
// stdin closes — so a killed harness leaves no server behind.
//
//	snap         -> childSnap
//	fail         -> {} after failing main device 1
//	spans-on     -> {} after starting to keep spans (traced child)
//	dump <path>  -> {"spans": n, "dropped": n} after appending the kept
//	                spans to path as JSON lines (traced child)
func serveMain(trace bool, in io.Reader, out io.Writer) error {
	st, err := buildStack(trace)
	if err != nil {
		return err
	}
	defer st.close()
	enc := json.NewEncoder(out)
	if err := enc.Encode(hello{Addr: st.srv.Addr().String(), GOMAXPROCS: runtime.GOMAXPROCS(0)}); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		cmd, arg, _ := strings.Cut(sc.Text(), " ")
		var reply any
		switch cmd {
		case "snap":
			reply = st.snapshot()
		case "fail":
			if err := st.failDevice(); err != nil {
				return fmt.Errorf("fail device: %w", err)
			}
			reply = struct{}{}
		case "spans-on":
			if st.tr == nil {
				return fmt.Errorf("spans-on: child is not traced")
			}
			st.tr.log.on.Store(true)
			reply = struct{}{}
		case "dump":
			if st.tr == nil {
				return fmt.Errorf("dump: child is not traced")
			}
			n, dropped, err := st.tr.log.appendTo(arg)
			if err != nil {
				return fmt.Errorf("dump: %w", err)
			}
			reply = dumpReply{Spans: n, Dropped: dropped}
		default:
			return fmt.Errorf("unknown control command %q", cmd)
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
	return sc.Err()
}

type dumpReply struct {
	Spans   int   `json:"spans"`
	Dropped int64 `json:"dropped"`
}

// procSample is the process's own accounting from /proc/self.
type procSample struct {
	CPUSeconds  float64 `json:"cpu_s"`      // utime+stime
	CtxSwitches int64   `json:"ctx"`        // voluntary+involuntary, all threads
	VmHWMKiB    int64   `json:"vm_hwm_kib"` // peak resident set
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime;
// it is 100 on every Linux platform Go supports.
const clockTick = 100

func readProc() procSample {
	var p procSample
	if b, err := os.ReadFile("/proc/self/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the line, 12 and 13 after the name.
		if i := strings.LastIndexByte(string(b), ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				u, _ := strconv.ParseInt(f[11], 10, 64)
				s, _ := strconv.ParseInt(f[12], 10, 64)
				p.CPUSeconds = float64(u+s) / clockTick
			}
		}
	}
	p.VmHWMKiB = statusFields("/proc/self/status", "VmHWM:")
	tasks, _ := os.ReadDir("/proc/self/task")
	for _, t := range tasks {
		p.CtxSwitches += statusFields("/proc/self/task/"+t.Name()+"/status", "voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:")
	}
	return p
}

// statusFields sums the numeric values of the lines of a /proc status file
// that start with one of keys (0 when the file or the keys are missing, as
// off Linux).
func statusFields(path string, keys ...string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var total int64
	for _, line := range strings.Split(string(b), "\n") {
		for _, key := range keys {
			if rest, ok := strings.CutPrefix(line, key); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					v, _ := strconv.ParseInt(f[0], 10, 64)
					total += v
				}
			}
		}
	}
	return total
}

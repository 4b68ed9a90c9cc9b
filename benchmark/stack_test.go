package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/eplog/eplog"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/server"
)

// serveDefaults reads the flag defaults out of cmd/eplogserve/main.go, so
// that the benchmark's stack is compared with what eplogserve runs and not
// with a copy of it.
func serveDefaults(t *testing.T) map[string]float64 {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../cmd/eplogserve/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]float64{"Microsecond": float64(time.Microsecond), "Millisecond": float64(time.Millisecond), "Second": float64(time.Second)}
	var eval func(e ast.Expr) (float64, bool)
	eval = func(e ast.Expr) (float64, bool) {
		switch v := e.(type) {
		case *ast.BasicLit:
			x, err := strconv.ParseFloat(v.Value, 64)
			return x, err == nil
		case *ast.Ident:
			return map[string]float64{"true": 1, "false": 0}[v.Name], v.Name == "true" || v.Name == "false"
		case *ast.SelectorExpr:
			if pkg, ok := v.X.(*ast.Ident); ok && pkg.Name == "time" {
				u, ok := units[v.Sel.Name]
				return u, ok
			}
			if pkg, ok := v.X.(*ast.Ident); ok && pkg.Name == "eplog" && v.Sel.Name == "DefaultSpanTrees" {
				return eplog.DefaultSpanTrees, true
			}
		case *ast.BinaryExpr:
			x, okx := eval(v.X)
			y, oky := eval(v.Y)
			return x * y, okx && oky && v.Op == token.MUL
		}
		return 0, false
	}
	out := make(map[string]float64)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if pkg, isIdent := sel.X.(*ast.Ident); !ok || !isIdent || pkg.Name != "flag" {
			return true
		}
		name, ok := call.Args[0].(*ast.BasicLit)
		if !ok || name.Kind != token.STRING {
			return true
		}
		if v, ok := eval(call.Args[1]); ok {
			out[strings.Trim(name.Value, `"`)] = v
		}
		return true
	})
	for _, name := range []string{"k", "m", "stripes", "shards", "workers", "commit-every", "write-behind", "dirty-window", "spans",
		"batch-max", "queue-depth", "read-workers", "write-queue", "read-queue", "read-batch-queue", "writev-max", "batch-age", "high-water", "low-water", "drain"} {
		if _, ok := out[name]; !ok {
			t.Fatalf("cmd/eplogserve/main.go has no readable default for -%s", name)
		}
	}
	return out
}

// publicStack builds the served system the way cmd/eplogserve does: on
// eplog.New and Array.ServeBlocks, with the flag defaults d.
func publicStack(t *testing.T, d map[string]float64) (*eplog.Array, *eplog.BlockServer) {
	t.Helper()
	k, m, stripes := int(d["k"]), int(d["m"]), int64(d["stripes"])
	devs := make([]eplog.BlockDevice, k+m)
	for i := range devs {
		dev, err := eplog.NewSimulatedSSD(ssdRawBytes())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	logs := make([]eplog.BlockDevice, m)
	for i := range logs {
		dev, err := eplog.NewSimulatedHDD(stripes*8, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = dev
	}
	a, err := eplog.New(devs, logs, eplog.Config{
		K: k, Stripes: stripes, CommitEvery: int(d["commit-every"]), TrimOnCommit: true,
		TraceEvents: eplog.DefaultTraceEvents, Spans: int(d["spans"]),
		Workers: int(d["workers"]), Shards: int(d["shards"]),
		WriteBehind: d["write-behind"] == 1, DirtyWindowStripes: int(d["dirty-window"]),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := a.ServeBlocks("127.0.0.1:0", eplog.BlockServeOptions{
		BatchMax: int(d["batch-max"]), QueueDepth: int(d["queue-depth"]), ReadWorkers: int(d["read-workers"]),
		WriteQueue: int(d["write-queue"]), ReadQueue: int(d["read-queue"]), ReadBatchQueue: int(d["read-batch-queue"]),
		WritevMax: int(d["writev-max"]), BatchAge: time.Duration(d["batch-age"]),
		HighWater: d["high-water"], LowWater: d["low-water"], DrainTimeout: time.Duration(d["drain"]),
	})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	return a, srv
}

// replay drives one seeded serial op stream — every stripe written once,
// then single-chunk updates, stripe overwrites and reads — and returns the
// checksum of everything read. One request is in flight at a time, and
// after each write the client waits out the server's backpressure gate
// itself, so that the folds the gate forces cover the same writes on every
// run and the engine's counters are a function of the stream alone.
func replay(t *testing.T, addr string, highWater float64) uint64 {
	t.Helper()
	c, err := server.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(12))
	pay := newPayloads(12)
	buf := make([]byte, arrayK*chunkSize)
	vers := make([]uint32, arrayStripe*arrayK)
	write := func(lba int64, n int) {
		for i := 0; i < n; i++ {
			vers[lba+int64(i)]++
			pay.fill(buf[i*chunkSize:(i+1)*chunkSize], lba+int64(i), vers[lba+int64(i)])
		}
		if err := c.Write(lba, buf[:n*chunkSize]); err != nil {
			t.Fatal(err)
		}
		for {
			st, err := c.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if st.WritePressure < highWater {
				return
			}
		}
	}
	for s := int64(0); s < arrayStripe; s++ {
		write(s*arrayK, arrayK)
	}
	sum := fnv.New64a()
	for i := 0; i < 8000; i++ {
		switch lba := rng.Int63n(arrayStripe * arrayK); {
		case i%10 == 3:
			write(lba/arrayK*arrayK, arrayK)
		case i%4 == 1:
			if err := c.ReadInto(lba, 1, buf[:chunkSize]); err != nil {
				t.Fatal(err)
			}
			if f := pay.check(buf[:chunkSize], lba, vers[lba], vers[lba]); f != faultNone {
				t.Fatalf("read of %d: %v", lba, f)
			}
			sum.Write(buf[:chunkSize])
		default:
			write(lba, 1)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return sum.Sum64()
}

func names(s obs.Snapshot) []string {
	var out []string
	for n := range s.Counters {
		out = append(out, "counter "+n)
	}
	for n := range s.Gauges {
		out = append(out, "gauge "+n)
	}
	for n := range s.Histograms {
		out = append(out, "histogram "+n)
	}
	sort.Strings(out)
	return out
}

// deviceCounters are the counters that depend on the op stream and the
// configuration only: the traffic each device saw. (The simulators' own
// counters do not: a forced fold runs the shards side by side, and the
// order their writes reach one SSD decides what its GC later moves.)
func deviceCounters(s obs.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for n, v := range s.Counters {
		if strings.HasPrefix(n, "dev.") {
			out[n] = v
		}
	}
	return out
}

// TestStackMatchesEplogserve keeps the benchmark from drifting away from
// what eplogserve runs: the stack buildStack assembles on the internal
// packages and the one eplog.New + Array.ServeBlocks build from
// eplogserve's own flag defaults must answer one op stream with the same
// engine counters, the same device traffic, the same metric names and the
// same bytes.
func TestStackMatchesEplogserve(t *testing.T) {
	d := serveDefaults(t)
	if got, want := [4]float64{d["k"], d["m"], d["stripes"], 4096}, [4]float64{arrayK, arrayM, arrayStripe, chunkSize}; got != want {
		t.Fatalf("eplogserve geometry (k, m, stripes, chunk) = %v, the benchmark's is %v", got, want)
	}

	st, err := buildStack(false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	a, srv := publicStack(t, d)
	defer a.Close()
	defer srv.Close()

	sumBench := replay(t, st.srv.Addr().String(), d["high-water"])
	sumPublic := replay(t, srv.Addr().String(), d["high-water"])
	if sumBench != sumPublic {
		t.Errorf("read checksums differ: %#x vs %#x", sumBench, sumPublic)
	}
	if got, want := st.eng.Stats(), a.Stats(); got != want {
		t.Errorf("engine counters differ:\nbenchmark  %+v\neplogserve %+v", got, want)
	} else if got.Commits == 0 || got.LogStripes == 0 || got.FullStripeWrites != arrayStripe {
		t.Errorf("the stream did not exercise folds, log stripes and direct writes: %+v", got)
	}
	snapBench, snapPublic := st.sink.Snapshot(), a.Metrics()
	if got, want := names(snapBench), names(snapPublic); !reflect.DeepEqual(got, want) {
		t.Errorf("metric names differ:\nbenchmark  %v\neplogserve %v", got, want)
	}
	if got, want := deviceCounters(snapBench), deviceCounters(snapPublic); !reflect.DeepEqual(got, want) {
		for n, v := range got {
			if want[n] != v {
				t.Errorf("device counter %s: benchmark %d, eplogserve %d", n, v, want[n])
			}
		}
	}
	for _, snap := range []obs.Snapshot{snapBench, snapPublic} {
		if snap.Counters["dev.main0.trim_ops"] == 0 || snap.Counters["ssd.0.gc_runs"] == 0 {
			t.Errorf("the stream did not reach trims (%d) and SSD garbage collection (%d)",
				snap.Counters["dev.main0.trim_ops"], snap.Counters["ssd.0.gc_runs"])
		}
	}
}

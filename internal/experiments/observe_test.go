package experiments

import (
	"testing"

	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/trace"
)

// sumParityEvents totals the parity chunks accounted for by a trace: N of
// every parity-commit event (the chunks folded by that commit) plus Aux of
// every full-stripe event (its m parity chunks). Over a ring large enough
// to retain the whole run — preconditioning included — the total equals
// the engine's Stats.ParityWriteChunks counter, which is how the trace is
// validated against the metrics.
func sumParityEvents(events []obs.Event) int64 {
	var total int64
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindCommit:
			total += ev.N
		case obs.KindFullStripe:
			total += ev.Aux
		}
	}
	return total
}

// ringSize estimates a trace-ring capacity that retains every event a run
// can emit: two events per precondition stripe (the write and its
// full-stripe event), several per replayed chunk write (write, log
// append, commit share, GC runs), plus slack for commits, checkpoints,
// and evictions.
func ringSize(cfg RunConfig) int {
	stripes, _, _ := geometry(cfg)
	var chunkWrites int64
	for _, r := range cfg.Trace.Requests {
		if r.Op != trace.OpWrite {
			continue
		}
		_, n := trace.ChunkSpan(r.Offset, r.Size, ChunkSize)
		chunkWrites += n
	}
	return int(2*stripes + 6*chunkWrites + 1<<15)
}

// TestObservabilityReconciles asserts the layer's accounting invariant:
// replaying FIN on EPLog over the FTL and HDD simulators with a periodic
// commit policy and a trace ring sized to retain the whole run, the parity
// chunks the trace accounts for (parity-commit N plus full-stripe Aux)
// equal the engine's ParityWriteChunks counter exactly.
func TestObservabilityReconciles(t *testing.T) {
	tr, err := loadTrace("FIN", testScale*4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Setting:     DefaultSetting(),
		Scheme:      EPLog,
		Trace:       tr,
		UseSSDSim:   true,
		Timing:      true,
		CommitEvery: 2000,
		CommitAtEnd: true,
	}
	cfg.Obs = obs.NewSink(ringSize(cfg))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Obs.Dropped(); n != 0 {
		t.Fatalf("trace ring dropped %d events; ringSize under-provisioned", n)
	}
	events := cfg.Obs.Events()
	parity := sumParityEvents(events)
	if parity == 0 {
		t.Fatal("trace accounts for zero parity chunks")
	}
	if want := res.EPLogStats.ParityWriteChunks; parity != want {
		t.Fatalf("parity chunks from trace = %d, engine counter = %d", parity, want)
	}

	// The run must have exercised the headline metrics.
	snap := cfg.Obs.Snapshot()
	for _, name := range []string{"core.write_latency", "core.commit_latency", "core.commit_flush_latency"} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s recorded nothing", name)
		}
	}
	if _, ok := snap.Counters["ssd.0.gc_runs"]; !ok {
		t.Error("SSD GC counters not registered")
	}
	var commits int
	for _, ev := range events {
		if ev.Kind == obs.KindCommit {
			commits++
		}
	}
	if commits == 0 {
		t.Error("trace holds no parity-commit events")
	}
}

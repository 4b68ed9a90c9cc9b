package experiments

import (
	"testing"

	"github.com/eplog/eplog/internal/obs"
)

// foldedParity totals the parity chunks a run's span trees account for:
// m per stripe folded (the N of every commit-fold phase) plus m per
// direct-stripe phase. Over recorders large enough to retain the whole
// run — preconditioning included — the total equals the engine's
// Stats.ParityWriteChunks counter, which is how the spans are validated
// against the metrics.
func foldedParity(roots []obs.SpanSnapshot, m int64) (parity int64, commits int) {
	var walk func([]obs.SpanSnapshot)
	walk = func(spans []obs.SpanSnapshot) {
		for _, s := range spans {
			switch s.Kind {
			case "commit":
				commits++
			case "commit-fold":
				parity += m * s.N
			case "direct-stripe":
				parity += m
			}
			walk(s.Children)
		}
	}
	walk(roots)
	return parity, commits
}

// spanTrees bounds the root span trees a run can record: one per
// precondition stripe, one per replayed request, plus slack for commits.
func spanTrees(cfg RunConfig) int {
	stripes, _, _ := geometry(cfg)
	return int(stripes) + len(cfg.Trace.Requests) + 1<<12
}

// TestObservabilityReconciles asserts the layer's accounting invariant:
// replaying FIN on EPLog over the FTL and HDD simulators with a periodic
// commit policy and span recorders sized to retain the whole run, the
// parity chunks the span trees account for (m × commit-fold N plus m per
// direct-stripe phase) equal the engine's ParityWriteChunks counter
// exactly.
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
	cfg.Obs = obs.NewSink()
	cfg.Obs.EnableSpans(obs.SpanConfig{Trees: spanTrees(cfg)})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Obs.SpansDropped(); n != 0 {
		t.Fatalf("span recorders dropped %d trees; spanTrees under-provisioned", n)
	}
	m := int64(cfg.Setting.M)
	parity, commits := foldedParity(cfg.Obs.Spans(), m)
	if parity == 0 {
		t.Fatal("span trees account for zero parity chunks")
	}
	if want := res.EPLogStats.ParityWriteChunks; parity != want {
		t.Fatalf("parity chunks from span trees = %d, engine counter = %d", parity, want)
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
	if commits == 0 {
		t.Error("span trees hold no commit roots")
	}
}

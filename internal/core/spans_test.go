package core

import (
	"fmt"
	"testing"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// walkSpans visits every node of every tree, depth first.
func walkSpans(spans []obs.SpanSnapshot, f func(obs.SpanSnapshot)) {
	for _, s := range spans {
		f(s)
		walkSpans(s.Children, f)
	}
}

// TestSpanMetricsReconciliation cross-checks the causal span trees against
// the engine's counters and latency histograms over a deterministic serial
// workload: every root, phase, and I/O leaf the flight recorder retains
// must account for exactly the activity the flat metrics report. The ring
// is larger than the workload, so nothing is evicted and the two views
// describe the same operations.
func TestSpanMetricsReconciliation(t *testing.T) {
	sink := obs.NewSink()
	sink.EnableSpans(obs.SpanConfig{Trees: 4096})
	e := benchEngine(t, Config{CommitEvery: 8, Obs: sink})
	chunk := e.ChunkSize()
	k := e.geo.K
	n := e.geo.N

	// Phase 1: fill every stripe with a full-stripe write (direct path),
	// CommitEvery firing along the way. Phase 2: one manual commit. Phase
	// 3: single-chunk updates (elastic logging path). Phase 4: reads.
	// Phase 5: rebuild one device.
	full := make([]byte, k*chunk)
	for s := int64(0); s < e.geo.Stripes; s++ {
		for i := range full {
			full[i] = byte(s + int64(i))
		}
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	for i := 0; i < 100; i++ {
		lba := (int64(i) * 13) % e.geo.Chunks()
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if _, err := e.WriteChunks(0, lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	const reads = 20
	for i := 0; i < reads; i++ {
		if _, err := e.ReadChunks(0, int64(i*3), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Rebuild(1, device.NewMem(e.devs()[1].Chunks(), chunk)); err != nil {
		t.Fatal(err)
	}

	if d := sink.SpansDropped(); d != 0 {
		t.Fatalf("ring evicted %d trees; the reconciliation needs all of them", d)
	}
	spans := sink.Spans()
	stats := e.Stats()
	hist := sink.Snapshot().Histograms
	counters := sink.Snapshot().Counters

	// Tally roots, phases, and leaves-by-parent-phase across all trees.
	var (
		roots          = map[string]int64{}
		commitsByCause = map[string]int64{}
		phases         = map[string]int64{}
		logMemberSum   int64
		directIOWrites int64
		logIOWrites    int64
		foldIOReads    int64
		foldIOWrites   int64
	)
	ids := map[uint64]bool{}
	for _, root := range spans {
		roots[root.Kind]++
		if root.Kind == "commit" {
			commitsByCause[root.Cause]++
		}
		if ids[root.ID] {
			t.Errorf("duplicate root span ID %d", root.ID)
		}
		ids[root.ID] = true
	}
	walkSpans(spans, func(s obs.SpanSnapshot) {
		if s.Dur < 0 {
			t.Errorf("span %d (%s) has negative duration %g", s.ID, s.Kind, s.Dur)
		}
		switch s.Kind {
		case "direct-stripe", "log-append", "commit-flush", "commit-fold":
			phases[s.Kind]++
		}
		if s.Kind == "log-append" {
			logMemberSum += s.N
		}
		for _, c := range s.Children {
			if c.Parent != s.ID {
				t.Errorf("child %d (%s) carries parent %d, want %d", c.ID, c.Kind, c.Parent, s.ID)
			}
			switch {
			case s.Kind == "direct-stripe" && c.Kind == "io-write":
				directIOWrites++
			case s.Kind == "log-append" && c.Kind == "io-write":
				logIOWrites++
			case s.Kind == "commit-fold" && c.Kind == "io-read":
				foldIOReads++
			case s.Kind == "commit-fold" && c.Kind == "io-write":
				foldIOWrites++
			}
		}
	})

	// Roots against the request counters and latency histograms.
	if w := roots["write"]; w != stats.Requests || w != hist["core.write_latency"].Count {
		t.Errorf("write roots = %d, Stats.Requests = %d, write_latency count = %d; all must agree",
			w, stats.Requests, hist["core.write_latency"].Count)
	}
	if r := roots["read"]; r != reads || r != hist["core.read_latency"].Count {
		t.Errorf("read roots = %d, issued = %d, read_latency count = %d; all must agree",
			r, reads, hist["core.read_latency"].Count)
	}
	if c := roots["commit"]; c != stats.Commits || c != hist["core.commit_latency"].Count {
		t.Errorf("commit roots = %d, Stats.Commits = %d, commit_latency count = %d; all must agree",
			c, stats.Commits, hist["core.commit_latency"].Count)
	}
	if roots["rebuild"] != 1 {
		t.Errorf("rebuild roots = %d, want 1", roots["rebuild"])
	}

	// Every commit has exactly one flush and one fold phase, matching the
	// phase latency histograms.
	if f := phases["commit-flush"]; f != roots["commit"] || f != hist["core.commit_flush_latency"].Count {
		t.Errorf("commit-flush phases = %d, commits = %d, flush_latency count = %d",
			f, roots["commit"], hist["core.commit_flush_latency"].Count)
	}
	if f := phases["commit-fold"]; f != roots["commit"] || f != hist["core.commit_fold_latency"].Count {
		t.Errorf("commit-fold phases = %d, commits = %d, fold_latency count = %d",
			f, roots["commit"], hist["core.commit_fold_latency"].Count)
	}

	// Write-path phases against the engine's traffic counters.
	if phases["direct-stripe"] != stats.FullStripeWrites {
		t.Errorf("direct-stripe phases = %d, Stats.FullStripeWrites = %d",
			phases["direct-stripe"], stats.FullStripeWrites)
	}
	if phases["log-append"] != stats.LogStripes {
		t.Errorf("log-append phases = %d, Stats.LogStripes = %d",
			phases["log-append"], stats.LogStripes)
	}
	if logMemberSum != stats.LogStripeMembers {
		t.Errorf("sum of log-append N (k') = %d, Stats.LogStripeMembers = %d",
			logMemberSum, stats.LogStripeMembers)
	}

	// Serial engines record every device I/O as a leaf, so the leaves under
	// each phase kind reproduce the chunk counters exactly: k+m writes per
	// direct stripe, k'+m writes per log append, and the fold's k reads and
	// m parity writes per folded stripe.
	if want := stats.FullStripeWrites * int64(n); directIOWrites != want {
		t.Errorf("io-write leaves under direct-stripe = %d, want %d (FullStripeWrites * n)",
			directIOWrites, want)
	}
	if want := stats.LogStripeMembers + stats.LogChunkWrites; logIOWrites != want {
		t.Errorf("io-write leaves under log-append = %d, want %d (members + log chunks)",
			logIOWrites, want)
	}
	if foldIOReads != stats.CommitReadChunks {
		t.Errorf("io-read leaves under commit-fold = %d, Stats.CommitReadChunks = %d",
			foldIOReads, stats.CommitReadChunks)
	}
	if foldIOWrites != stats.CommitWriteChunks {
		t.Errorf("io-write leaves under commit-fold = %d, Stats.CommitWriteChunks = %d",
			foldIOWrites, stats.CommitWriteChunks)
	}

	// Commit roots by trigger cause against the flight recorder's counters.
	var causeTotal int64
	for cause, got := range commitsByCause {
		name := "core.shard0.commit_trigger." + cause
		if counters[name] != got {
			t.Errorf("%s = %d, but %d commit roots carry cause %q", name, counters[name], got, cause)
		}
		causeTotal += got
	}
	if causeTotal != roots["commit"] {
		t.Errorf("cause-labelled commits = %d, commit roots = %d", causeTotal, roots["commit"])
	}
	if commitsByCause["manual"] == 0 || commitsByCause["every"] == 0 {
		t.Errorf("expected both manual and every commits, got %v", commitsByCause)
	}
}

// TestPrefoldSpanReconciliation is the write-behind half of the reconciliation:
// every fold the group committer ran carries one commit-prefold phase, the
// stripes those phases encoded are exactly the ones the hit and fallback
// counters account for, and Stats.CommitReadChunks counts the prefold's
// reads — used or wasted, k per re-encoded stripe and fewer per delta-folded
// one — beside the fold's own: nothing but folds reads the SSDs here, so it
// equals the reads the SSDs served. Updates keep landing while the folds
// run, so some entries can go stale; the identities hold either way.
func TestPrefoldSpanReconciliation(t *testing.T) {
	sink := obs.NewSink()
	sink.EnableSpans(obs.SpanConfig{Trees: 4096})
	var ssds []*device.Counting
	e := benchEngineOver(t, Config{Shards: 4, WriteBehind: true, Obs: sink}, func(d device.Dev) device.Dev {
		c := device.NewCounting(d)
		ssds = append(ssds, c)
		return c
	})
	k, m := int64(e.geo.K), int64(e.geo.M())
	full := make([]byte, e.geo.K*e.ChunkSize())
	for s := int64(0); s < e.geo.Stripes; s++ {
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 400; i++ {
		if _, err := e.WriteChunks(0, (i*13)%e.geo.Chunks(), full[:e.ChunkSize()]); err != nil {
			t.Fatal(err)
		}
		switch {
		case i == 19:
			if err := e.Commit(); err != nil { // under the locks: no prefold phase
				t.Fatal(err)
			}
		case i%40 == 39:
			e.FoldPressured(0) // every shard, in the background
		}
	}
	if err := e.Close(); err != nil { // waits for the committer
		t.Fatal(err)
	}
	if d := sink.SpansDropped(); d != 0 {
		t.Fatalf("ring evicted %d trees; the reconciliation needs all of them", d)
	}
	var commits, folds, prefolds, folded, prefolded int64
	walkSpans(sink.Spans(), func(s obs.SpanSnapshot) {
		switch s.Kind {
		case "commit":
			commits++
		case "commit-fold":
			folds++
			folded += s.N
		case "commit-prefold":
			prefolds++
			prefolded += s.N
			if s.Dur < 0 {
				t.Errorf("commit-prefold span %d has negative duration %g", s.ID, s.Dur)
			}
		}
	})
	stats, counters := e.Stats(), sink.Snapshot().Counters
	hit, stale := counters["core.prefold_stripes"], counters["core.prefold_stale"]
	var background int64
	for sh := 0; sh < e.nShards; sh++ {
		background += counters[fmt.Sprintf("core.shard%d.commit_trigger.pressure", sh)]
	}
	if commits != stats.Commits || folds != commits {
		t.Errorf("commit roots = %d, commit-fold phases = %d, Stats.Commits = %d; all must agree", commits, folds, stats.Commits)
	}
	if prefolds != background || prefolds == 0 || prefolds == commits {
		t.Errorf("commit-prefold phases = %d, want one per background fold (%d) and none on Commit's (%d commits in all)", prefolds, background, commits)
	}
	if prefolded != hit+stale || hit == 0 {
		t.Errorf("sum of commit-prefold N = %d, core.prefold_stripes + core.prefold_stale = %d + %d", prefolded, hit, stale)
	}
	var served int64
	for _, c := range ssds {
		served += c.ReadOps()
	}
	if stats.CommitReadChunks != served {
		t.Errorf("Stats.CommitReadChunks = %d, but the SSDs served %d reads, all of them for folds", stats.CommitReadChunks, served)
	}
	// A delta-folded stripe reads at most k, so the ceiling is re-encoding
	// every folded stripe and every wasted prefold entry; how many folds
	// meet few enough changed chunks depends on when the committer ran.
	if served > k*(folded+stale) {
		t.Errorf("%d reads served, want at most k per folded stripe (%d) and per wasted prefold (%d)", served, folded, stale)
	}
	if want := m * folded; stats.CommitWriteChunks != want {
		t.Errorf("Stats.CommitWriteChunks = %d, want %d (m per folded stripe)", stats.CommitWriteChunks, want)
	}
}

// TestFoldLeavesOnlyOnSerialEngine pins the I/O-leaf rule: the serial
// engine (Shards <= 1) records a fold's k reads and m parity writes per
// stripe as leaves under commit-fold; a sharded engine records the phase
// only. The leaves are ≈ 8 pooled span nodes per folded stripe held in
// every shard's tree ring — attached on the served stack (4 shards,
// 256-tree rings) they raised the benchmark's update_skewed rss_peak_mb
// 239 → 265 MiB, past its 10 % bound.
func TestFoldLeavesOnlyOnSerialEngine(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sink := obs.NewSink()
		sink.EnableSpans(obs.SpanConfig{Trees: 256})
		e := benchEngine(t, Config{Obs: sink, Shards: shards})
		t.Cleanup(func() { e.Close() })
		k, m := int64(e.geo.K), int64(e.geo.M())
		full := make([]byte, e.geo.K*e.ChunkSize())
		for s := int64(0); s < e.geo.Stripes; s++ {
			if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), full); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 40; i++ {
			if _, err := e.WriteChunks(0, (i*13)%e.geo.Chunks(), full[:e.ChunkSize()]); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		var folded int64
		walkSpans(sink.Spans(), func(s obs.SpanSnapshot) {
			if s.Kind != "commit-fold" {
				return
			}
			folded += s.N
			var reads, writes int64
			for _, c := range s.Children {
				switch c.Kind {
				case "io-read":
					reads++
				case "io-write":
					writes++
				}
			}
			wantR, wantW := k*s.N, m*s.N
			if shards > 1 {
				wantR, wantW = 0, 0
			}
			if reads != wantR || writes != wantW {
				t.Errorf("shards=%d: fold of %d stripes has %d io-read and %d io-write leaves, want %d and %d",
					shards, s.N, reads, writes, wantR, wantW)
			}
		})
		if folded == 0 {
			t.Errorf("shards=%d: no stripe was folded", shards)
		}
	}
}

// TestRebuildSpanCoversReplacementWrites: the writes that restore a failed
// device go through the rebuild's span like its reads, so the root span
// times them, carries their count as N, and the serial engine records each
// as a leaf.
func TestRebuildSpanCoversReplacementWrites(t *testing.T) {
	sink := obs.NewSink()
	sink.EnableSpans(obs.SpanConfig{Trees: 64})
	ta := newTestArray(t, 6, 4, Config{Shards: 1, Obs: sink})
	t.Cleanup(func() { ta.e.Close() })
	// Committed versions on every device (direct full-stripe writes), then
	// pending ones: updates of whole stripes, so some land on device 1.
	ta.mustWrite(t, 0, chunkData(1, int(ta.e.Chunks())))
	for lba := int64(0); lba < 3*int64(ta.k); lba++ {
		ta.mustWrite(t, lba, chunkData(int(lba)+2, 1))
	}
	ta.main[1].Fail()
	const writeTime = 1e-3
	if err := ta.e.Rebuild(1, device.WithLatency(device.NewMem(testDevChunks, testChunk), 0, writeTime)); err != nil {
		t.Fatal(err)
	}

	var roots []obs.SpanSnapshot
	for _, root := range sink.Spans() {
		if root.Kind == "rebuild" {
			roots = append(roots, root)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("got %d rebuild roots, want 1", len(roots))
	}
	root := roots[0]
	if root.N <= testStripes {
		t.Fatalf("rebuild root N = %d; want more than the %d committed chunks, i.e. pending versions too", root.N, testStripes)
	}
	// The replacement serves one write at a time.
	if floor := float64(root.N) * writeTime; root.Dur < floor*(1-1e-9) {
		t.Errorf("rebuild root Dur = %g, want >= %g (%d replacement writes of %g s)", root.Dur, floor, root.N, writeTime)
	}
	var leaves int64
	for _, c := range root.Children {
		if c.Kind == "io-write" {
			leaves++
		}
	}
	if leaves != root.N {
		t.Errorf("rebuild root has %d io-write leaves, want N = %d (one per restored chunk)", leaves, root.N)
	}
}

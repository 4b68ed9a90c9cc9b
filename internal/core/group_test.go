package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// groupArray is a filled and committed test array of 6 SSDs (k=4, m=2)
// and its contents.
func groupArray(t *testing.T, cfg Config) (*testArray, []byte) {
	t.Helper()
	ta := newTestArray(t, 6, 4, cfg)
	t.Cleanup(func() { ta.e.Close() })
	data := chunkData(1, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	if err := ta.e.Commit(); err != nil {
		t.Fatal(err)
	}
	return ta, data
}

// distinctDevLBAs returns one LBA of shard 0 per SSD, n in all, from as
// few stripes as hold them — so a batch of them is n requests, to more than
// one stripe once n > k, bound for n distinct SSDs.
func distinctDevLBAs(t *testing.T, e *EPLog, n int) []int64 {
	t.Helper()
	var lbas []int64
	seen := map[int]bool{}
	for s := int64(0); s < e.geo.Stripes && len(lbas) < n; s += int64(e.nShards) {
		for j := 0; j < e.geo.K; j++ {
			lba := e.geo.LBA(s, j)
			if dev := e.loadLatest(lba).Dev; !seen[dev] && len(lbas) < n {
				seen[dev] = true
				lbas = append(lbas, lba)
			}
		}
	}
	if len(lbas) < n {
		t.Fatalf("found %d LBAs on distinct SSDs, want %d", len(lbas), n)
	}
	return lbas
}

// updateOps builds one single-chunk update per LBA and patches want.
func updateOps(seed int, lbas []int64, want []byte) []BatchOp {
	ops := make([]BatchOp, len(lbas))
	for i, lba := range lbas {
		ops[i] = BatchOp{LBA: lba, Data: chunkData(seed+i, 1)}
		copy(want[lba*testChunk:], ops[i].Data)
	}
	return ops
}

func mustSucceed(t *testing.T, ops []BatchOp) {
	t.Helper()
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("op %d (lba %d): %v", i, ops[i].LBA, ops[i].Err)
		}
	}
}

// TestWriteGroupElasticStripe pins the shape of the log stripes a batch
// group forms: updates of different requests bound for different SSDs share
// one stripe; a second update bound for a taken SSD, or of a taken LBA,
// opens a second round with the later op the survivor; and a batch of one
// is WriteChunks.
func TestWriteGroupElasticStripe(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sink := obs.NewSink()
		ta, want := groupArray(t, Config{Shards: shards, Obs: sink})
		e := ta.e
		n, m := int64(e.geo.N), int64(e.geo.M())

		// n requests, n stripes, n SSDs: one log stripe of width n.
		before := e.Stats()
		groups := sink.Snapshot().Histograms["core.write_group_ops"]
		ops := updateOps(100, distinctDevLBAs(t, e, int(n)), want)
		e.WriteBatch(ops)
		mustSucceed(t, ops)
		got := e.Stats()
		if d := got.LogStripes - before.LogStripes; d != 1 {
			t.Fatalf("shards=%d: %d updates to %d SSDs formed %d log stripes, want 1", shards, n, n, d)
		}
		if got.LogStripeMembers-before.LogStripeMembers != n || got.LogChunkWrites-before.LogChunkWrites != m ||
			got.DataWriteChunks-before.DataWriteChunks != n || got.Requests-before.Requests != n {
			t.Fatalf("shards=%d: stats moved %+v -> %+v, want %d members, %d log chunks, %d requests", shards, before, got, n, m, n)
		}
		hists := sink.Snapshot().Histograms
		if h := hists["core.log_stripe_members"]; h.Count != 1 || h.Sum != float64(n) {
			t.Errorf("shards=%d: core.log_stripe_members has %d observations summing to %g, want one of %d", shards, h.Count, h.Sum, n)
		}
		if h := hists["core.write_group_ops"]; h.Count-groups.Count != 1 || h.Sum-groups.Sum != float64(n) {
			t.Errorf("shards=%d: core.write_group_ops gained %d observations summing to %g, want one of %d",
				shards, h.Count-groups.Count, h.Sum-groups.Sum, n)
		}

		// Two updates bound for one SSD cannot share a stripe (invariant 4):
		// the later one waits for the second round.
		a := e.geo.LBA(0, 1)
		before = e.Stats()
		ops = updateOps(200, []int64{a, sameDevLBA(t, e, a)}, want)
		e.WriteBatch(ops)
		mustSucceed(t, ops)
		if got := e.Stats(); got.LogStripes-before.LogStripes != 2 || got.LogStripeMembers-before.LogStripeMembers != 2 {
			t.Fatalf("shards=%d: two updates bound for one SSD: stats moved %+v -> %+v, want 2 stripes of 1", shards, before, got)
		}

		// Two updates of one LBA: two rounds in batch order, so the later
		// op's data is the latest version.
		before = e.Stats()
		ops = updateOps(300, []int64{a, e.geo.LBA(0, 2), a}, want)
		e.WriteBatch(ops)
		mustSucceed(t, ops)
		if got := e.Stats(); got.LogStripes-before.LogStripes != 2 || got.LogStripeMembers-before.LogStripeMembers != 3 {
			t.Fatalf("shards=%d: two updates of one LBA: stats moved %+v -> %+v, want stripes of 2 and 1", shards, before, got)
		}
		ta.verify(t, want, "after the grouped batches")
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		ta.verify(t, want, "after committing the grouped batches")
	}

	// Batch order holds between the set and the direct path too: a full
	// write of a still-virgin stripe that follows a partial write of it in
	// the same group goes through the set behind it, and survives.
	ev := batchEngine(t, 1, 16)
	defer ev.Close()
	vk := ev.geo.K
	vops := []BatchOp{{LBA: 1, Data: chunkData(400, 1)}, {LBA: 0, Data: chunkData(401, vk)}}
	ev.WriteBatch(vops)
	mustSucceed(t, vops)
	vgot := make([]byte, vk*testChunk)
	if _, err := ev.ReadChunks(0, 0, vgot); err != nil || !bytes.Equal(vgot, vops[1].Data) {
		t.Fatalf("stripe 0 does not hold the later op's full write (%v)", err)
	}
	if s := ev.Stats(); s.FullStripeWrites != 0 || s.LogStripeMembers != int64(1+vk) {
		t.Fatalf("stats %+v: want the full write routed through the update set behind the partial one", s)
	}

	// A batch of one is WriteChunks: same stats, same virtual end time —
	// for a pure update and for a request that is part direct stripe, part
	// update.
	for _, shards := range []int{1, 4} {
		eb := newLatencyArray(t, 6, 4, Config{Shards: shards})
		es := newLatencyArray(t, 6, 4, Config{Shards: shards})
		k := eb.geo.K
		for i, op := range []BatchOp{
			{LBA: 0, Data: chunkData(1, k), Start: 0},
			{LBA: 1, Data: chunkData(2, 1), Start: 7.5},
			{LBA: int64(k) - 1, Data: chunkData(3, k+2), Start: 9}, // tail of stripe 0, virgin stripe 1, head of 2
		} {
			ops := []BatchOp{op}
			eb.WriteBatch(ops)
			end, err := es.WriteChunks(op.Start, op.LBA, op.Data)
			if ops[0].Err != nil || err != nil {
				t.Fatalf("shards=%d op %d: batch of one %v, WriteChunks %v", shards, i, ops[0].Err, err)
			}
			if ops[0].End != end || end <= op.Start {
				t.Fatalf("shards=%d op %d: batch of one ends at %g, WriteChunks at %g (start %g)", shards, i, ops[0].End, end, op.Start)
			}
			if sb, ss := eb.Stats(), es.Stats(); sb != ss {
				t.Fatalf("shards=%d op %d: stats diverged:\nbatch of one: %+v\nWriteChunks:  %+v", shards, i, sb, ss)
			}
		}
	}
}

// TestWriteGroupSurvivesAnyMFailures is DESIGN §5 invariant 2 on log
// stripes that span requests: after seeded batches of updates and before
// any commit, every choice of m failed devices among the SSDs and the log
// devices still reads back every acknowledged chunk; then the array
// commits, rebuilds and scrubs clean.
func TestWriteGroupSurvivesAnyMFailures(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ta, want := groupArray(t, Config{Shards: shards})
		e := ta.e
		r := rand.New(rand.NewSource(int64(17 + shards)))
		before := e.Stats()
		for round := 0; round < 6; round++ {
			// 1- and 2-chunk updates anywhere: groups on every shard, with
			// repeated SSDs and LBAs among them.
			ops := make([]BatchOp, 12+r.Intn(12))
			for i := range ops {
				n := 1 + r.Intn(2)
				ops[i] = BatchOp{LBA: int64(r.Intn(int(e.Chunks()) - n)), Data: chunkData(1000*round+i, n)}
			}
			e.WriteBatch(ops)
			mustSucceed(t, ops)
			// Ops of one batch on one LBA land in batch order only within
			// a shard group, which single-stripe ops are; a spanning op
			// runs after the groups.
			for pass := 0; pass < 2; pass++ {
				for i := range ops {
					_, set, _ := e.classify(ops[i].LBA, len(ops[i].Data))
					if (set.n > 1) == (pass == 1) {
						copy(want[ops[i].LBA*testChunk:], ops[i].Data)
					}
				}
			}
		}
		got := e.Stats()
		members, stripes := got.LogStripeMembers-before.LogStripeMembers, got.LogStripes-before.LogStripes
		if members < 2*stripes {
			t.Fatalf("shards=%d: %d members in %d log stripes: the batches did not form cross-request stripes", shards, members, stripes)
		}
		all := append(append([]*device.Faulty{}, ta.main...), ta.logs...)
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				all[i].Fail()
				all[j].Fail()
				ta.verify(t, want, "uncommitted batches with two devices failed")
				all[i].Repair()
				all[j].Repair()
			}
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		ta.main[2].Fail()
		if err := e.Rebuild(2, device.NewMem(testDevChunks, testChunk)); err != nil {
			t.Fatal(err)
		}
		ta.verify(t, want, "after commit and rebuild")
		if rep, err := e.Verify(); err != nil || !rep.OK() {
			t.Fatalf("shards=%d: scrub after commit and rebuild: %+v, %v", shards, rep, err)
		}
	}
}

// TestWriteGroupFailureContract: a flush error fails every op that had a
// chunk in the update set and no other — not the op that only wrote a
// direct stripe, not the op validation rejected, and not the op admission
// rejected, which contributes nothing to the set either.
func TestWriteGroupFailureContract(t *testing.T) {
	const n, k = 6, 4
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(testDevChunks, testChunk)
	}
	brokenLog := &brokenDev{Dev: device.NewMem(testLogChunks, testChunk)}
	logs := []device.Dev{brokenLog, device.NewMem(testLogChunks, testChunk)}
	e, err := New(devs, logs, Config{K: k, Stripes: testStripes, Shards: 2, WriteBehind: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Stripes 0, 2, 4 are filled; 6 stays virgin. All belong to shard 0.
	for _, s := range []int64{0, 2, 4} {
		if _, err := e.WriteChunks(0, e.geo.LBA(s, 0), chunkData(int(s), k)); err != nil {
			t.Fatal(err)
		}
	}
	errFold := errors.New("background fold failed")
	sh := e.shards[0]
	sh.mu.Lock()
	sh.asyncErr = errFold
	sh.mu.Unlock()
	brokenLog.writeBroken = true

	before := e.Stats()
	ops := []BatchOp{
		{LBA: e.geo.LBA(0, 0), Data: chunkData(10, 1)},   // takes the fold's error at admission
		{LBA: e.geo.LBA(2, 1), Data: chunkData(11, 1)},   // grouped
		{LBA: e.geo.LBA(6, 0), Data: chunkData(12, k)},   // direct stripe: not in the set
		{LBA: e.geo.LBA(4, 2), Data: chunkData(13, 2)},   // grouped
		{LBA: e.geo.LBA(4, 0), Data: make([]byte, 3)},    // rejected by classify
		{LBA: e.geo.LBA(2, 3), Data: chunkData(14, k+1)}, // spans shards 0 and 1: a group of one, after the groups
	}
	e.WriteBatch(ops)
	if !errors.Is(ops[0].Err, errFold) {
		t.Errorf("op 0: %v, want the background fold's error", ops[0].Err)
	}
	for _, i := range []int{1, 3, 5} {
		if !errors.Is(ops[i].Err, errBroken) {
			t.Errorf("op %d had a chunk in a flush that failed: err = %v, want %v", i, ops[i].Err, errBroken)
		}
	}
	if ops[2].Err != nil {
		t.Errorf("op 2 wrote a direct stripe only: %v", ops[2].Err)
	}
	if ops[4].Err == nil || errors.Is(ops[4].Err, errBroken) {
		t.Errorf("op 4: %v, want classify's rejection", ops[4].Err)
	}
	got := e.Stats()
	// Admitted: ops 1, 2, 3 and 5. Nothing of the failed flushes counts.
	if got.Requests-before.Requests != 4 || got.FullStripeWrites-before.FullStripeWrites != 1 ||
		got.LogStripes != before.LogStripes || got.LogStripeMembers != before.LogStripeMembers {
		t.Errorf("stats moved %+v -> %+v, want 4 requests, 1 full stripe, no log stripe", before, got)
	}

	// With the log device mended the same group lands whole — op 0's chunk
	// included, so it was never in the failed set's way.
	brokenLog.writeBroken = false
	ops = ops[:4]
	ops[2].LBA = e.geo.LBA(6, 1)
	ops[2].Data = chunkData(15, 1)
	e.WriteBatch(ops)
	mustSucceed(t, ops)
	if got := e.Stats(); got.LogStripeMembers-before.LogStripeMembers != 5 {
		t.Errorf("%d members logged, want the group's 5 chunks", got.LogStripeMembers-before.LogStripeMembers)
	}
	buf := make([]byte, 2*testChunk)
	for _, op := range ops {
		if _, err := e.ReadChunks(0, op.LBA, buf[:len(op.Data)]); err != nil || !bytes.Equal(buf[:len(op.Data)], op.Data) {
			t.Errorf("lba %d does not read back (%v)", op.LBA, err)
		}
	}
}

// TestWriteGroupOrderingContract: the group's flush starts at the latest
// Start among the ops with a chunk in it and every such op ends when it
// does; its log-append phase hangs under the first of them with n = k′; an
// inline-commit engine runs the CommitEvery commits after the flush; and a
// group that crosses the log-region mark enqueues one pressure fold.
func TestWriteGroupOrderingContract(t *testing.T) {
	sink := obs.NewSink()
	sink.EnableSpans(obs.SpanConfig{Trees: 64})
	e := newLatencyArray(t, 6, 4, Config{CommitEvery: 2, Obs: sink})
	if _, err := e.WriteChunks(0, 0, chunkData(1, int(e.Chunks()))); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	base := e.Stats()
	lbas := distinctDevLBAs(t, e, 4)
	ops := updateOps(50, lbas, make([]byte, e.Chunks()*testChunk))
	starts := []float64{100, 103, 101, 102}
	for i := range ops {
		ops[i].Start = starts[i]
	}
	e.WriteBatch(ops)
	mustSucceed(t, ops)
	for i := range ops {
		if ops[i].End != 104 { // one unit-latency phase from the latest Start
			t.Errorf("op %d (start %g) ends at %g, want 104", i, ops[i].Start, ops[i].End)
		}
	}
	got := e.Stats()
	if got.LogStripes-base.LogStripes != 1 || got.Commits-base.Commits != 2 || e.PendingLogStripes() != 0 {
		t.Errorf("stats moved %+v -> %+v with %d stripes pending: want one 4-wide log stripe, then CommitEvery's two commits",
			base, got, e.PendingLogStripes())
	}
	var appends int
	for _, root := range sink.Spans() {
		if root.Kind != "write" || root.T < 100 {
			continue
		}
		for _, c := range root.Children {
			if c.Kind != "log-append" {
				continue
			}
			appends++
			if root.LBA != lbas[0] || c.N != 4 || c.T != 103 || c.T+c.Dur != 104 {
				t.Errorf("log-append [%g,%g] n=%d under the write of lba %d, want [103,104] n=4 under lba %d",
					c.T, c.T+c.Dur, c.N, root.LBA, lbas[0])
			}
		}
	}
	if appends != 1 {
		t.Errorf("%d log-append phases under the group's roots, want 1", appends)
	}

	// Log-region pressure: a group that takes shard 0 from under the mark
	// to over it enqueues the shard once, and the fold that follows is
	// attributed to pressure.
	psink := obs.NewSink()
	devs := make([]device.Dev, 6)
	for i := range devs {
		devs[i] = device.NewMem(testDevChunks, testChunk)
	}
	logs := []device.Dev{device.NewMem(32, testChunk), device.NewMem(32, testChunk)} // 16 log slots per shard
	pe, err := New(devs, logs, Config{K: 4, Stripes: testStripes, Shards: 2, WriteBehind: true, Obs: psink})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	if _, err := pe.WriteChunks(0, 0, chunkData(2, int(pe.Chunks()))); err != nil {
		t.Fatal(err)
	}
	if err := pe.Commit(); err != nil {
		t.Fatal(err)
	}
	a := pe.geo.LBA(0, 0)
	pops := make([]BatchOp, 14) // 14 versions of one LBA: 14 rounds, 14 of 16 slots
	for i := range pops {
		pops[i] = BatchOp{LBA: a, Data: chunkData(70+i, 1)}
	}
	pe.WriteBatch(pops)
	mustSucceed(t, pops)
	if err := pe.Close(); err != nil { // drains the committer
		t.Fatal(err)
	}
	if n := psink.Counter("core.shard0.commit_trigger.pressure").Value(); n != 1 {
		t.Errorf("%d pressure-triggered folds of shard 0, want 1", n)
	}
	if s := pe.Stats(); s.Commits != 3 { // the manual one per shard, then the fold
		t.Errorf("%d commits, want 3", s.Commits)
	}
}

// TestWriteGroupConcurrentWriters runs batch groups and single writes from
// several goroutines against the same shards of a write-behind engine whose
// dirty window is small enough that writers park in it: the wait happens
// with nothing pending in the shard's scratch, so a writer that gets in
// meanwhile cannot disturb a group. Every goroutine owns its LBAs; the last
// version of each must read back and the array must scrub clean.
func TestWriteGroupConcurrentWriters(t *testing.T) {
	ta, want := groupArray(t, Config{Shards: 4, WriteBehind: true, DirtyWindowStripes: 4, CommitEvery: 16})
	e := ta.e
	const writers = 4
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 40; round++ {
				// LBAs ≡ g (mod writers), a fresh pick per op: groups on
				// every shard, repeated SSDs and LBAs within a group.
				ops := make([]BatchOp, 1+r.Intn(12))
				for i := range ops {
					lba := int64(r.Intn(int(e.Chunks())/writers))*writers + int64(g)
					ops[i] = BatchOp{LBA: lba, Data: chunkData(10000*g+100*round+i, 1)}
				}
				if g == 0 { // one writer uses the single-op entry
					for i := range ops {
						_, ops[i].Err = e.WriteChunks(0, ops[i].LBA, ops[i].Data)
					}
				} else {
					e.WriteBatch(ops)
				}
				for i := range ops {
					if ops[i].Err != nil {
						t.Errorf("writer %d round %d op %d: %v", g, round, i, ops[i].Err)
						return
					}
					copy(want[ops[i].LBA*testChunk:], ops[i].Data) // this writer's LBAs only
				}
			}
		}()
	}
	wg.Wait()
	ta.verify(t, want, "after concurrent groups")
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if rep, err := e.Verify(); err != nil || !rep.OK() {
		t.Fatalf("scrub after concurrent groups: %+v, %v", rep, err)
	}
	ta.verify(t, want, "after commit")
}

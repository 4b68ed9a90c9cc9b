package core

import (
	"testing"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/obs"
)

// The write-time parity of whole stripes (foldReady, commit.go): which
// requests get a k′ = k log stripe of their own, and that the fold
// publishes its parity only while the stripe's k locations are the ones it
// was encoded for. Every correctness test leaves at least one stale slot
// behind, so publishing without the location check fails it.

// readyArray is groupArray with a sink: 6 SSDs, k = 4, filled and committed.
func readyArray(t *testing.T, shards int) (*testArray, []byte, *obs.Sink) {
	t.Helper()
	sink := obs.NewSink()
	ta, want := groupArray(t, Config{Shards: shards, WriteBehind: true, Obs: sink})
	return ta, want, sink
}

// overwrite builds a whole-stripe overwrite of stripe s and patches want.
func overwrite(e *EPLog, seed int, s int64, want []byte) BatchOp {
	op := BatchOp{LBA: e.geo.LBA(s, 0), Data: chunkData(seed, e.geo.K)}
	copy(want[op.LBA*testChunk:], op.Data)
	return op
}

// commitDelta commits and returns the chunks the fold read and the
// fold_ready hit and stale counts it added.
func commitDelta(t *testing.T, e *EPLog, sink *obs.Sink) (reads, hit, stale int64) {
	t.Helper()
	r0 := e.Stats().CommitReadChunks
	h0, s0 := sink.Counter("core.fold_ready_stripes").Value(), sink.Counter("core.fold_ready_stale").Value()
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	return e.Stats().CommitReadChunks - r0,
		sink.Counter("core.fold_ready_stripes").Value() - h0, sink.Counter("core.fold_ready_stale").Value() - s0
}

func scrub(t *testing.T, e *EPLog, when string) {
	t.Helper()
	if rep, err := e.Verify(); err != nil || !rep.OK() {
		t.Fatalf("scrub %s: %+v, %v", when, rep, err)
	}
}

// TestWholeStripeLogShapes pins the rule per request, at any shard count: a
// whole-stripe request is one log stripe of k members in slot order, even
// batched with another one whose chunks the rounds could otherwise take,
// and its fold reads nothing; k single-chunk requests covering a stripe
// still share a wider stripe (TestWriteGroupElasticStripe).
func TestWholeStripeLogShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"served", 4}, {"serial", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			ta, want, sink := readyArray(t, tc.shards)
			e := ta.e
			// Stripes 0 and 4 share a shard either way; 4's data SSDs are
			// 4, 5, 0, 1, so rounds filled across stripes would take two of
			// its chunks into 0's log stripe.
			ops := []BatchOp{overwrite(e, 10, 0, want), overwrite(e, 11, 4, want)}
			before := sink.Snapshot().Histograms["core.log_stripe_members"]
			e.WriteBatch(ops)
			mustSucceed(t, ops)
			h := sink.Snapshot().Histograms["core.log_stripe_members"]
			if n := h.Count - before.Count; n != 2 || h.Sum-before.Sum != 8 || h.Max != 4 {
				t.Errorf("two batched whole-stripe overwrites formed %d log stripes of %g members, widest %g; want widths [4 4]",
					n, h.Sum-before.Sum, h.Max)
			}
			sh := e.shards[0]
			for _, ls := range sh.logStripes {
				s, _ := e.geo.Stripe(ls.members[0].lba)
				for j, mb := range ls.members {
					if mb.lba != e.geo.LBA(s, j) {
						t.Fatalf("log stripe %d: member %d is LBA %d, want slot order of stripe %d", ls.id, j, mb.lba, s)
					}
				}
			}
			if sh.ready == nil || len(sh.ready.at) != 2 {
				t.Fatalf("foldReady holds %v, want slots for stripes 0 and 4", sh.ready)
			}
			if reads, hit, stale := commitDelta(t, e, sink); hit != 2 || stale != 0 || reads != 0 {
				t.Errorf("fold read %d chunks, %d slots published, %d stale; want 0, 2, 0", reads, hit, stale)
			}
			ta.verify(t, want, "after the fold")
			scrub(t, e, "after the fold")
		})
	}
}

// TestFoldReadyStaleAfterUpdate: a 1-chunk update of a whole-stripe
// overwrite's stripe before the fold moves one of the slot's locations, so
// the stripe is read and encoded again — the slot's parity is of data that
// is no longer the latest — while a slot left alone is published without a
// read. The prefold skips both.
func TestFoldReadyStaleAfterUpdate(t *testing.T) {
	ta, want, sink := readyArray(t, 4)
	e := ta.e
	k := int64(e.geo.K)
	ops := []BatchOp{overwrite(e, 20, 1, want), overwrite(e, 21, 5, want)}
	e.WriteBatch(ops)
	mustSucceed(t, ops)
	upd := updateOps(30, []int64{e.geo.LBA(1, 2)}, want)
	e.WriteBatch(upd)
	mustSucceed(t, upd)

	sh, pre := e.shards[1], e.gc.pre
	pre.run(sh)
	if pre.n != 0 || pre.reads != 0 {
		t.Errorf("the prefold encoded %d stripes with %d reads, want none: both have slots", pre.n, pre.reads)
	}
	reads, hit, stale := commitDelta(t, e, sink)
	if hit != 1 || stale != 1 || reads != k {
		t.Errorf("fold read %d chunks, %d slots published, %d stale; want %d, 1, 1", reads, hit, stale, k)
	}
	ta.verify(t, want, "after the fold")
	scrub(t, e, "after the fold")
}

// TestFoldReadyDegraded: with one SSD failed, whole-stripe overwrites —
// their chunk on the failed SSD never written — fold from their slots, one
// slot stale behind a 1-chunk update; degraded reads then decode the failed
// SSD's chunks from the published parity, and Rebuild restores them.
func TestFoldReadyDegraded(t *testing.T) {
	ta, want, sink := readyArray(t, 4)
	e := ta.e
	const failed = 2
	ta.main[failed].Fail()
	ops := []BatchOp{overwrite(e, 40, 2, want), overwrite(e, 41, 6, want), overwrite(e, 42, 10, want)}
	e.WriteBatch(ops)
	mustSucceed(t, ops)
	var stale int64 = -1 // a chunk of stripe 6 off the failed SSD
	for j := 0; j < e.geo.K && stale < 0; j++ {
		if lba := e.geo.LBA(6, j); e.loadLatest(lba).Dev != failed {
			stale = lba
		}
	}
	upd := updateOps(43, []int64{stale}, want)
	e.WriteBatch(upd)
	mustSucceed(t, upd)
	if _, hit, st := commitDelta(t, e, sink); hit != 2 || st != 1 {
		t.Errorf("%d slots published, %d stale; want 2 and 1", hit, st)
	}
	if e.PendingLogStripes() != 0 {
		t.Fatal("log stripes pending after the fold: degraded reads would not rely on the stripe parity")
	}
	ta.verify(t, want, "degraded, after the fold")
	if err := e.Rebuild(failed, device.NewMem(testDevChunks, testChunk)); err != nil {
		t.Fatal(err)
	}
	ta.verify(t, want, "after rebuild")
	scrub(t, e, "after rebuild")
}

// TestFoldReadyOverflow: a shard with more whole stripes pending than its
// table has slots flushes the rest as ordinary log stripes and folds them
// by reading; one slotted stripe goes stale as well.
func TestFoldReadyOverflow(t *testing.T) {
	ta, want, sink := readyArray(t, 4)
	e := ta.e
	k := int64(e.geo.K)
	sh := e.shards[3]
	sh.mu.Lock()
	sh.ready = newFoldReady(e, 2)
	sh.mu.Unlock()
	ops := []BatchOp{overwrite(e, 50, 3, want), overwrite(e, 51, 7, want), overwrite(e, 52, 11, want), overwrite(e, 53, 15, want)}
	e.WriteBatch(ops)
	mustSucceed(t, ops)
	if len(sh.ready.at) != 2 {
		t.Fatalf("setup: %d slots taken, want the table's 2", len(sh.ready.at))
	}
	upd := updateOps(54, []int64{e.geo.LBA(7, 1)}, want)
	e.WriteBatch(upd)
	mustSucceed(t, upd)
	reads, hit, stale := commitDelta(t, e, sink)
	if hit != 1 || stale != 1 || reads != 3*k {
		t.Errorf("fold read %d chunks, %d slots published, %d stale; want %d (two overflowed, one stale), 1, 1", reads, hit, stale, 3*k)
	}
	ta.verify(t, want, "after the fold")
	scrub(t, e, "after the fold")

	// The commit emptied the table: the next period has both slots again.
	e.WriteBatch(ops[:2])
	mustSucceed(t, ops[:2])
	if _, hit, _ := commitDelta(t, e, sink); hit != 2 {
		t.Errorf("%d slots published after the table was reset, want 2", hit)
	}
	scrub(t, e, "after the second fold")
}

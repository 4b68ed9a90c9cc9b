package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/eplog/eplog/internal/device"
)

const (
	testChunk   = 64
	testStripes = 16
	// Device capacity: homes + generous update headroom.
	testDevChunks = testStripes * 4
	testLogChunks = 4096
)

type testArray struct {
	e     *EPLog
	main  []*device.Faulty
	logs  []*device.Faulty
	k, n  int
	chunk int
}

func newTestArray(t *testing.T, n, k int, cfg Config) *testArray {
	t.Helper()
	cfg.K = k
	if cfg.Stripes == 0 {
		cfg.Stripes = testStripes
	}
	devs := make([]device.Dev, n)
	fmain := make([]*device.Faulty, n)
	for i := range devs {
		f := device.NewFaulty(device.NewMem(testDevChunks, testChunk))
		fmain[i] = f
		devs[i] = f
	}
	m := n - k
	logs := make([]device.Dev, m)
	flogs := make([]*device.Faulty, m)
	for i := range logs {
		f := device.NewFaulty(device.NewMem(testLogChunks, testChunk))
		flogs[i] = f
		logs[i] = f
	}
	e, err := New(devs, logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testArray{e: e, main: fmain, logs: flogs, k: k, n: n, chunk: testChunk}
}

func chunkData(seed, n int) []byte {
	r := rand.New(rand.NewSource(int64(seed)))
	p := make([]byte, n*testChunk)
	r.Read(p)
	return p
}

func (ta *testArray) mustWrite(t *testing.T, lba int64, data []byte) {
	t.Helper()
	if _, err := ta.e.WriteChunks(0, lba, data); err != nil {
		t.Fatal(err)
	}
}

func (ta *testArray) verify(t *testing.T, want []byte, context string) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := ta.e.ReadChunks(0, 0, got); err != nil {
		t.Fatalf("%s: read: %v", context, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: contents mismatch", context)
	}
}

func TestNewValidation(t *testing.T) {
	mk := func(n int, chunks int64, csize int) []device.Dev {
		devs := make([]device.Dev, n)
		for i := range devs {
			devs[i] = device.NewMem(chunks, csize)
		}
		return devs
	}
	if _, err := New(mk(1, 64, 64), mk(1, 64, 64), Config{K: 1, Stripes: 8}); err == nil {
		t.Error("single device accepted")
	}
	if _, err := New(mk(5, 64, 64), mk(2, 64, 64), Config{K: 4, Stripes: 8}); err == nil {
		t.Error("wrong log device count accepted")
	}
	if _, err := New(mk(5, 8, 64), mk(1, 64, 64), Config{K: 4, Stripes: 8}); err == nil {
		t.Error("no update headroom accepted")
	}
	if _, err := New(mk(5, 64, 64), []device.Dev{device.NewMem(64, 32)}, Config{K: 4, Stripes: 8}); err == nil {
		t.Error("mismatched log chunk size accepted")
	}
	if _, err := New(mk(5, 64, 64), mk(1, 64, 64), Config{K: 4, Stripes: 8}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, nk := range [][2]int{{5, 4}, {6, 4}, {8, 6}} {
		ta := newTestArray(t, nk[0], nk[1], Config{})
		data := chunkData(1, int(ta.e.Chunks()))
		ta.mustWrite(t, 0, data)
		ta.verify(t, data, "initial fill")

		// Random updates.
		r := rand.New(rand.NewSource(2))
		for i := 0; i < 100; i++ {
			nC := 1 + r.Intn(4)
			lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
			upd := chunkData(100+i, nC)
			ta.mustWrite(t, lba, upd)
			copy(data[lba*testChunk:], upd)
		}
		ta.verify(t, data, "after updates")
	}
}

func TestWriteValidation(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	if _, err := ta.e.WriteChunks(0, 0, make([]byte, 10)); err == nil {
		t.Error("non-chunk write accepted")
	}
	if _, err := ta.e.WriteChunks(0, ta.e.Chunks(), make([]byte, testChunk)); err == nil {
		t.Error("overflow write accepted")
	}
	if _, err := ta.e.ReadChunks(0, 0, make([]byte, 10)); err == nil {
		t.Error("bad read buffer accepted")
	}
	if _, err := ta.e.ReadChunks(0, -1, make([]byte, testChunk)); err == nil {
		t.Error("negative read accepted")
	}
}

func TestNoPreReadsOnWritePath(t *testing.T) {
	// The headline property: EPLog never reads the main array while
	// writing, full-stripe or partial, new or update.
	n := 5
	devs := make([]device.Dev, n)
	counters := make([]*device.Counting, n)
	for i := range devs {
		c := device.NewCounting(device.NewMem(testDevChunks, testChunk))
		counters[i] = c
		devs[i] = c
	}
	logs := []device.Dev{device.NewMem(testLogChunks, testChunk)}
	e, err := New(devs, logs, Config{K: 4, Stripes: testStripes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteChunks(0, 0, chunkData(3, int(e.Chunks()))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := e.WriteChunks(0, int64(i%30), chunkData(4+i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range counters {
		if c.ReadOps() != 0 {
			t.Errorf("device %d: %d reads on the write path", i, c.ReadOps())
		}
	}
}

func TestElasticGroupingAcrossStripes(t *testing.T) {
	// An update spanning two stripes whose chunks land on distinct SSDs
	// must form a single log stripe (Fig. 1(b)): one log chunk, not two.
	ta := newTestArray(t, 5, 4, Config{})
	ta.mustWrite(t, 0, chunkData(5, int(ta.e.Chunks())))
	before := ta.e.Stats()
	// LBAs 2,3,4: stripe 0 slots 2,3 (devs 2,3) and stripe 1 slot 0
	// (dev (0+1)%5=1): three distinct devices -> one log stripe.
	ta.mustWrite(t, 2, chunkData(6, 3))
	s := ta.e.Stats()
	if got := s.LogStripes - before.LogStripes; got != 1 {
		t.Errorf("log stripes = %d, want 1", got)
	}
	if got := s.LogChunkWrites - before.LogChunkWrites; got != 1 {
		t.Errorf("log chunks = %d, want 1 (m=1)", got)
	}
}

func TestSameDeviceChunksSplitLogStripes(t *testing.T) {
	// Two updated chunks destined to the same SSD must not share a log
	// stripe (Section III-B).
	ta := newTestArray(t, 5, 4, Config{})
	ta.mustWrite(t, 0, chunkData(7, int(ta.e.Chunks())))
	before := ta.e.Stats()
	// LBA 0 (stripe 0 slot 0, dev 0) and LBA 7 (stripe 1 slot 3, dev
	// (3+1)%5 = 4)... pick two chunks on the same device instead:
	// stripe 0 slot 0 -> dev 0; stripe 4 slot 0 -> dev (0+4)%5 = 4;
	// we need same dev: stripe 5 slot 0 -> dev (0+5)%5 = 0. LBAs 0 and 20.
	upd := chunkData(8, 1)
	if _, err := ta.e.WriteChunks(0, 0, upd); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.e.WriteChunks(0, 20, upd); err != nil {
		t.Fatal(err)
	}
	s := ta.e.Stats()
	if got := s.LogStripes - before.LogStripes; got != 2 {
		t.Fatalf("log stripes = %d, want 2", got)
	}
	// Verify the invariant structurally for every log stripe.
	for _, ls := range ta.e.shards[0].logStripes {
		seen := make(map[int]bool)
		for _, mb := range ls.members {
			if seen[mb.loc.Dev] {
				t.Fatalf("log stripe %d has two chunks on device %d", ls.id, mb.loc.Dev)
			}
			seen[mb.loc.Dev] = true
		}
	}
}

func TestDegradedReadBeforeCommit(t *testing.T) {
	for _, nk := range [][2]int{{5, 4}, {6, 4}} {
		ta := newTestArray(t, nk[0], nk[1], Config{})
		data := chunkData(9, int(ta.e.Chunks()))
		ta.mustWrite(t, 0, data)
		r := rand.New(rand.NewSource(10))
		for i := 0; i < 80; i++ {
			nC := 1 + r.Intn(3)
			lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
			upd := chunkData(200+i, nC)
			ta.mustWrite(t, lba, upd)
			copy(data[lba*testChunk:], upd)
		}
		// No commit: every device failure must still be tolerable.
		for d := 0; d < nk[0]; d++ {
			ta.main[d].Fail()
			ta.verify(t, data, "single SSD failure before commit")
			ta.main[d].Repair()
		}
	}
}

func TestDegradedReadAfterCommit(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	data := chunkData(11, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	upd := chunkData(12, 6)
	ta.mustWrite(t, 3, upd)
	copy(data[3*testChunk:], upd)
	if err := ta.e.Commit(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 5; d++ {
		ta.main[d].Fail()
		ta.verify(t, data, "single SSD failure after commit")
		ta.main[d].Repair()
	}
}

func TestRAID6TwoFailuresBeforeCommit(t *testing.T) {
	ta := newTestArray(t, 6, 4, Config{})
	data := chunkData(13, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 60; i++ {
		nC := 1 + r.Intn(3)
		lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
		upd := chunkData(300+i, nC)
		ta.mustWrite(t, lba, upd)
		copy(data[lba*testChunk:], upd)
	}
	for d1 := 0; d1 < 6; d1++ {
		for d2 := d1 + 1; d2 < 6; d2++ {
			ta.main[d1].Fail()
			ta.main[d2].Fail()
			ta.verify(t, data, "double SSD failure before commit")
			ta.main[d1].Repair()
			ta.main[d2].Repair()
		}
	}
}

func TestSSDFailureWithLogDeviceFailure(t *testing.T) {
	// RAID-6 EPLog: one SSD plus one log device failing together is
	// within the m=2 budget.
	ta := newTestArray(t, 6, 4, Config{})
	data := chunkData(15, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	upd := chunkData(16, 8)
	ta.mustWrite(t, 2, upd)
	copy(data[2*testChunk:], upd)
	ta.logs[0].Fail()
	ta.main[3].Fail()
	ta.verify(t, data, "SSD + log device failure")
}

func TestCommitNeverReadsLogDevices(t *testing.T) {
	n := 5
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(testDevChunks, testChunk)
	}
	logCounter := device.NewCounting(device.NewMem(testLogChunks, testChunk))
	e, err := New(devs, []device.Dev{logCounter}, Config{K: 4, Stripes: testStripes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteChunks(0, 0, chunkData(17, int(e.Chunks()))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := e.WriteChunks(0, int64(i%40), chunkData(18+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if logCounter.ReadOps() != 0 {
		t.Errorf("parity commit read the log devices %d times; the paper requires zero", logCounter.ReadOps())
	}
}

func TestLogDeviceWritesAppendOnly(t *testing.T) {
	// Log-device writes between commits must be strictly sequential.
	n := 5
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(testDevChunks, testChunk)
	}
	seq := &appendCheckDev{Mem: device.NewMem(testLogChunks, testChunk), next: 0}
	e, err := New(devs, []device.Dev{seq}, Config{K: 4, Stripes: testStripes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteChunks(0, 0, chunkData(19, int(e.Chunks()))); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 100; i++ {
		if _, err := e.WriteChunks(0, int64(r.Intn(int(e.Chunks())-2)), chunkData(21+i, 1+r.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	seq.next = 0 // commit resets the cursor
	for i := 0; i < 20; i++ {
		if _, err := e.WriteChunks(0, int64(i), chunkData(22+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if seq.violations != 0 {
		t.Errorf("%d non-sequential log-device writes", seq.violations)
	}
}

// appendCheckDev asserts writes arrive at strictly increasing chunk
// indices (until externally reset).
type appendCheckDev struct {
	*device.Mem
	next       int64
	violations int
}

func (d *appendCheckDev) WriteChunk(idx int64, p []byte) error {
	if idx != d.next {
		d.violations++
	}
	d.next = idx + 1
	return d.Mem.WriteChunk(idx, p)
}

func (d *appendCheckDev) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	return start, d.WriteChunk(idx, p)
}

func TestCommitFreesVersionsAndLogSpace(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	data := chunkData(23, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	freeBefore := ta.e.shards[0].alloc[0].freeCount()
	// Update the same chunk several times: versions accumulate.
	for i := 0; i < 5; i++ {
		upd := chunkData(24+i, 1)
		ta.mustWrite(t, 5, upd)
		copy(data[5*testChunk:], upd)
	}
	if ta.e.PendingLogStripes() != 5 {
		t.Fatalf("pending log stripes = %d, want 5", ta.e.PendingLogStripes())
	}
	if err := ta.e.Commit(); err != nil {
		t.Fatal(err)
	}
	if ta.e.PendingLogStripes() != 0 || ta.e.PendingLogChunks() != 0 {
		t.Error("commit did not clear log state")
	}
	// All but one version slot returned to the pool (the latest one is
	// retained as the new committed version, but its stripe home slot
	// was freed in exchange).
	lbaDev := ta.e.loadLatest(5).Dev
	free := ta.e.shards[0].alloc[lbaDev].freeCount()
	if free+1 != ta.e.shards[0].alloc[lbaDev].freeCount()+1 {
		_ = free
	}
	wantFree := freeBefore // full cycle: 5 allocs, 4 stale frees + 1 home free
	if got := ta.e.shards[0].alloc[lbaDev].freeCount(); got != wantFree {
		t.Errorf("free chunks on dev %d = %d, want %d", lbaDev, got, wantFree)
	}
	ta.verify(t, data, "after commit")
}

// TestAutoCommitEvery: without WriteBehind, CommitEvery commits inline at
// any shard count — the commit has run by the time the write returns.
func TestAutoCommitEvery(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ta := newTestArray(t, 5, 4, Config{CommitEvery: 10, Shards: shards})
			defer ta.e.Close()
			ta.mustWrite(t, 0, chunkData(30, int(ta.e.Chunks())))
			// Updates of stripe 0 only, so one shard counts every request:
			// 1 (fill) + 25 updates = 26 requests -> 2 auto-commits, after
			// the 10th and the 20th.
			var want int64
			for i := 0; i < 25; i++ {
				ta.mustWrite(t, int64(i%4), chunkData(31+i, 1))
				if (i+2)%10 == 0 {
					want++
				}
				if got := ta.e.Stats().Commits; got != want {
					t.Fatalf("request %d returned with %d auto commits, want %d", i+2, got, want)
				}
			}
		})
	}
}

func TestAllocatorExhaustionForcesCommit(t *testing.T) {
	// Tiny headroom: 16 stripes, 20 chunks per device -> 4 update slots.
	devs := make([]device.Dev, 5)
	for i := range devs {
		devs[i] = device.NewMem(testStripes+4, testChunk)
	}
	logs := []device.Dev{device.NewMem(testLogChunks, testChunk)}
	e, err := New(devs, logs, Config{K: 4, Stripes: testStripes})
	if err != nil {
		t.Fatal(err)
	}
	data := chunkData(32, int(e.Chunks()))
	if _, err := e.WriteChunks(0, 0, data); err != nil {
		t.Fatal(err)
	}
	// Update one chunk far more times than the headroom allows.
	for i := 0; i < 30; i++ {
		upd := chunkData(33+i, 1)
		if _, err := e.WriteChunks(0, 7, upd); err != nil {
			t.Fatal(err)
		}
		copy(data[7*testChunk:], upd)
	}
	if e.Stats().Commits == 0 {
		t.Error("space exhaustion never forced a commit")
	}
	got := make([]byte, len(data))
	if _, err := e.ReadChunks(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("contents diverged under forced commits")
	}
}

func TestLogDeviceFullForcesCommit(t *testing.T) {
	devs := make([]device.Dev, 5)
	for i := range devs {
		devs[i] = device.NewMem(testDevChunks, testChunk)
	}
	logs := []device.Dev{device.NewMem(3, testChunk)} // 3 log slots
	e, err := New(devs, logs, Config{K: 4, Stripes: testStripes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteChunks(0, 0, chunkData(40, int(e.Chunks()))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.WriteChunks(0, int64(i), chunkData(41+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Commits == 0 {
		t.Error("full log device never forced a commit")
	}
}

func TestRebuildRestoresEverything(t *testing.T) {
	for _, when := range []string{"before-commit", "after-commit"} {
		ta := newTestArray(t, 5, 4, Config{})
		data := chunkData(50, int(ta.e.Chunks()))
		ta.mustWrite(t, 0, data)
		r := rand.New(rand.NewSource(51))
		for i := 0; i < 50; i++ {
			nC := 1 + r.Intn(3)
			lba := int64(r.Intn(int(ta.e.Chunks()) - nC))
			upd := chunkData(400+i, nC)
			ta.mustWrite(t, lba, upd)
			copy(data[lba*testChunk:], upd)
		}
		if when == "after-commit" {
			if err := ta.e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		ta.main[2].Fail()
		repl := device.NewMem(testDevChunks, testChunk)
		if err := ta.e.Rebuild(2, repl); err != nil {
			t.Fatalf("%s: rebuild: %v", when, err)
		}
		ta.verify(t, data, when+" rebuild")
		// Subsequent updates and a different failure still work.
		upd := chunkData(52, 2)
		ta.mustWrite(t, 10, upd)
		copy(data[10*testChunk:], upd)
		ta.main[4].Fail()
		ta.verify(t, data, when+" post-rebuild degraded read")
	}
}

func TestRebuildValidation(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	if err := ta.e.Rebuild(9, device.NewMem(testDevChunks, testChunk)); err == nil {
		t.Error("out-of-range device accepted")
	}
	if err := ta.e.Rebuild(0, device.NewMem(2, testChunk)); err == nil {
		t.Error("undersized replacement accepted")
	}
}

func TestRecoverLogDevice(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	data := chunkData(60, int(ta.e.Chunks()))
	ta.mustWrite(t, 0, data)
	upd := chunkData(61, 4)
	ta.mustWrite(t, 8, upd)
	copy(data[8*testChunk:], upd)
	ta.logs[0].Fail()
	if err := ta.e.RecoverLogDevice(0, device.NewMem(testLogChunks, testChunk)); err != nil {
		t.Fatal(err)
	}
	// Parity now committed: SSD failure tolerable again.
	ta.main[1].Fail()
	ta.verify(t, data, "after log device recovery")

	if err := ta.e.RecoverLogDevice(5, device.NewMem(testLogChunks, testChunk)); err == nil {
		t.Error("out-of-range log index accepted")
	}
	if err := ta.e.RecoverLogDevice(0, device.NewMem(testLogChunks, 32)); err == nil {
		t.Error("mismatched replacement accepted")
	}
}

func TestFullStripeWritesGoDirect(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	before := ta.e.Stats()
	ta.mustWrite(t, 0, chunkData(70, 4)) // stripe-aligned new write
	s := ta.e.Stats()
	if s.FullStripeWrites != before.FullStripeWrites+1 {
		t.Error("new full-stripe write did not go direct")
	}
	if s.LogChunkWrites != before.LogChunkWrites {
		t.Error("direct write produced log chunks")
	}
	if s.ParityWriteChunks != before.ParityWriteChunks+1 {
		t.Error("direct write did not write parity")
	}
	// The same stripe written again is an update: log path.
	ta.mustWrite(t, 0, chunkData(71, 4))
	s2 := ta.e.Stats()
	if s2.FullStripeWrites != s.FullStripeWrites {
		t.Error("update took the direct path, breaking old-version retention")
	}
	if s2.LogChunkWrites == s.LogChunkWrites {
		t.Error("full-stripe update produced no log chunks")
	}
}

func TestVirginPartialWriteFormsLogStripe(t *testing.T) {
	// New partial-stripe writes take the elastic path (Fig. 1(b)) and
	// remain recoverable even though the stripe was never committed.
	ta := newTestArray(t, 5, 4, Config{})
	upd := chunkData(80, 2)
	ta.mustWrite(t, 0, upd) // stripe 0, slots 0,1 — never filled
	want := make([]byte, ta.e.Chunks()*testChunk)
	copy(want, upd)
	ta.verify(t, want, "virgin partial write")
	for d := 0; d < 5; d++ {
		ta.main[d].Fail()
		ta.verify(t, want, "virgin partial write degraded")
		ta.main[d].Repair()
	}
}

func TestStatsRequestCounting(t *testing.T) {
	ta := newTestArray(t, 5, 4, Config{})
	ta.mustWrite(t, 0, chunkData(90, 4))
	ta.mustWrite(t, 0, chunkData(91, 1))
	if got := ta.e.Stats().Requests; got != 2 {
		t.Errorf("requests = %d, want 2", got)
	}
}

// TestGrowAmortises: a length that creeps up one at a time reallocates a
// logarithmic number of times, not once per new maximum.
func TestGrowAmortises(t *testing.T) {
	var s []int64
	reallocs := 0
	for n := 1; n <= 1024; n++ {
		before := cap(s)
		if s = grow(s, n); len(s) != n {
			t.Fatalf("grow(_, %d) has length %d", n, len(s))
		}
		if cap(s) != before {
			reallocs++
		}
	}
	if reallocs > 16 {
		t.Errorf("%d reallocations for lengths 1..1024, want O(log n)", reallocs)
	}
}

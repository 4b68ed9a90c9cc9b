package eplog_test

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	eplog "github.com/eplog/eplog"
)

// TestConcurrentSoak hammers one shared Array with concurrent writers,
// readers, committers, and metrics scrapers, checking the results against
// a sync.Map model. Each writer owns a disjoint set of LBAs and stamps
// every chunk with (lba, seq), so readers can verify two invariants
// without any test-side locking: a chunk always decodes to its own LBA
// (no torn or misrouted writes), and the sequence a reader observes for an
// LBA never goes backwards (writes are acknowledged in order). The final
// drain must match the model exactly. Run under -race this is the
// concurrency model's end-to-end check.
func TestConcurrentSoak(t *testing.T) {
	const (
		n, k    = 6, 4
		chunk   = 64
		stripes = 32
		writers = 4
		readers = 2
	)
	rounds := 40
	if testing.Short() {
		rounds = 8
	}

	devs := make([]eplog.BlockDevice, n)
	for i := range devs {
		devs[i] = eplog.NewMemDevice(stripes*8, chunk)
	}
	logs := make([]eplog.BlockDevice, n-k)
	for i := range logs {
		logs[i] = eplog.NewMemDevice(8192, chunk)
	}
	a, err := eplog.New(devs, logs, eplog.Config{
		K:           k,
		Stripes:     stripes,
		TraceEvents: 256,
		Spans:       64,
	})
	if err != nil {
		t.Fatal(err)
	}
	lbas := a.Chunks()

	// stamp encodes (lba, seq) plus a fill derived from both, so any torn
	// or misplaced chunk is caught by the decoders below.
	stamp := func(buf []byte, lba, seq int64) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(lba))
		binary.LittleEndian.PutUint64(buf[8:], uint64(seq))
		for i := 16; i < len(buf); i++ {
			buf[i] = byte(lba*31 + seq*7 + int64(i))
		}
	}
	check := func(buf []byte, lba int64) (int64, bool) {
		gotLBA := int64(binary.LittleEndian.Uint64(buf[0:]))
		seq := int64(binary.LittleEndian.Uint64(buf[8:]))
		if gotLBA != lba {
			return seq, false
		}
		for i := 16; i < len(buf); i++ {
			if buf[i] != byte(lba*31+seq*7+int64(i)) {
				return seq, false
			}
		}
		return seq, true
	}

	// Seed every LBA at seq 0 so readers never see unstamped chunks.
	var model sync.Map // lba -> latest acknowledged seq
	seed := make([]byte, chunk)
	for lba := int64(0); lba < lbas; lba++ {
		stamp(seed, lba, 0)
		if err := a.Write(lba, seed); err != nil {
			t.Fatal(err)
		}
		model.Store(lba, int64(0))
	}

	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		writeErr = make([]error, writers)
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, chunk)
			for r := 1; r <= rounds; r++ {
				// Writer w owns LBAs congruent to w mod writers.
				for lba := int64(w); lba < lbas; lba += writers {
					seq := int64(r)
					stamp(buf, lba, seq)
					if err := a.Write(lba, buf); err != nil {
						writeErr[w] = err
						return
					}
					model.Store(lba, seq)
				}
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func(rd int) {
			defer readerWG.Done()
			buf := make([]byte, chunk)
			lastSeen := make(map[int64]int64)
			for i := int64(rd); !done.Load(); i++ {
				lba := i % lbas
				if err := a.Read(lba, buf); err != nil {
					t.Errorf("reader %d: read lba %d: %v", rd, lba, err)
					return
				}
				seq, ok := check(buf, lba)
				if !ok {
					t.Errorf("reader %d: lba %d decoded to garbage (seq %d)", rd, lba, seq)
					return
				}
				if prev := lastSeen[lba]; seq < prev {
					t.Errorf("reader %d: lba %d went backwards: %d after %d", rd, lba, seq, prev)
					return
				}
				lastSeen[lba] = seq
			}
		}(rd)
	}

	// A committer and a metrics scraper run alongside, exercising the
	// remaining public surface under contention.
	var auxWG sync.WaitGroup
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for !done.Load() {
			if err := a.Commit(); err != nil {
				t.Errorf("concurrent commit: %v", err)
				return
			}
			_ = a.Stats()
			_ = a.Metrics()
			_ = a.PendingLogStripes()
			_ = a.SpansDropped()
		}
	}()

	wg.Wait()
	done.Store(true)
	readerWG.Wait()
	auxWG.Wait()
	for w, err := range writeErr {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	// Final drain: every LBA must hold exactly the model's latest seq.
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	for lba := int64(0); lba < lbas; lba++ {
		if err := a.Read(lba, buf); err != nil {
			t.Fatal(err)
		}
		seq, ok := check(buf, lba)
		if !ok {
			t.Fatalf("final: lba %d decoded to garbage", lba)
		}
		want, _ := model.Load(lba)
		if seq != want.(int64) {
			t.Fatalf("final: lba %d seq = %d, want %d", lba, seq, want)
		}
	}
	rep, err := a.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("final scrub: %+v", rep)
	}
}

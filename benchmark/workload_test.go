package main

import "testing"

func TestStreamIsAFunctionOfSeedAndMix(t *testing.T) {
	hashes := make(map[string]uint64)
	for _, w := range workloads {
		h := streamHash(w, 1, 5000)
		if h != streamHash(w, 1, 5000) {
			t.Errorf("%s: same seed, different streams", w.name)
		}
		if h == streamHash(w, 2, 5000) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
		hashes[w.name] = h
	}
	if hashes["read_clean"] != hashes["read_degraded"] {
		t.Error("read_degraded must replay read_clean's stream")
	}
	if hashes["read_clean"] == hashes["update_skewed"] {
		t.Error("different mixes, same stream")
	}
}

func TestMixAndRanges(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < loadConns; c++ {
			g := newOpGen(w, 3, c)
			reads, hot := 0, 0
			const n = 20000
			for i := 0; i < n; i++ {
				o := g.next()
				if o.lba < g.lo || o.lba+int64(o.chunks) > g.lo+g.chunks {
					t.Fatalf("%s conn %d: op %+v leaves [%d,%d)", w.name, c, o, g.lo, g.lo+g.chunks)
				}
				if o.chunks == arrayK && o.lba%arrayK != 0 {
					t.Fatalf("%s: stripe write at %d is not aligned", w.name, o.lba)
				}
				if o.read {
					reads++
				}
				if o.lba < g.lo+g.chunks/hotFraction {
					hot++
				}
			}
			if got := 100 * reads / n; got < w.readPct-2 || got > w.readPct+2 {
				t.Errorf("%s: %d%% reads, want %d%%", w.name, got, w.readPct)
			}
			// Half the draws plus an eighth of the other half land hot.
			if got := 100 * hot / n; got < 53 || got > 60 {
				t.Errorf("%s: %d%% of ops on the first eighth, want about 56%%", w.name, got)
			}
		}
	}
}

func TestCheckerFlagsEveryFault(t *testing.T) {
	p := newPayloads(1)
	chunk := make([]byte, chunkSize)
	fresh := func(lba int64, ver uint32) []byte {
		p.fill(chunk, lba, ver)
		return chunk
	}
	if f := p.check(fresh(42, 7), 42, 5, 9); f != faultNone {
		t.Fatalf("good chunk flagged %v", f)
	}
	if f := p.check(fresh(42, 4), 42, 5, 9); f != faultStale {
		t.Errorf("version below the acknowledged one: %v, want stale", f)
	}
	if f := p.check(fresh(42, 10), 42, 5, 9); f != faultFuture {
		t.Errorf("version above the sent one: %v, want future", f)
	}
	if f := p.check(fresh(43, 7), 42, 5, 9); f != faultMisdirected {
		t.Errorf("another LBA's chunk: %v, want misdirected", f)
	}
	p.fill(chunk, 42, 7) // first half from one write, second from the next
	tail := make([]byte, chunkSize)
	p.fill(tail, 42, 8)
	copy(chunk[chunkSize/2:], tail[chunkSize/2:])
	if f := p.check(chunk, 42, 5, 9); f != faultTorn {
		t.Errorf("head of version 7, tail of version 8: %v, want torn", f)
	}
	good := fresh(42, 7)
	good[chunkSize/2] ^= 1
	if f := p.check(good, 42, 5, 9); f != faultCorrupt {
		t.Errorf("flipped body bit: %v, want corrupt", f)
	}
}

func TestModelTracksVersions(t *testing.T) {
	m := newModel(600, 12)
	if m.busy(600, 6) {
		t.Fatal("fresh model has writes in flight")
	}
	for i := 0; i < arrayK; i++ {
		if v := m.beginWrite(606, i); v != 1 {
			t.Fatalf("first version = %d, want 1", v)
		}
	}
	if !m.busy(611, 1) || m.busy(600, 6) {
		t.Error("busy must cover exactly the stripe being written")
	}
	if m.acked[6] != 0 || m.issued[6] != 1 {
		t.Errorf("in flight: acked %d issued %d, want 0 and 1", m.acked[6], m.issued[6])
	}
	m.endWrite(606, arrayK)
	if m.busy(606, 6) || m.acked[11] != 1 {
		t.Error("acknowledged write still in flight")
	}
}

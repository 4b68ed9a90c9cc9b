package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/hdd"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/ssd"
	"github.com/eplog/eplog/internal/store"
)

// TestAllocatorLowestFreeFirst pins the update-space allocation rule: the
// lowest free chunk the shard owns is always next, a release below the
// last allocation is handed out first, chunks the shard does not own are
// never handed out, and exhaustion is ErrNoSpace.
func TestAllocatorLowestFreeFirst(t *testing.T) {
	const stripes, total, shards, idx = 40, 300, 4, 1
	geo, err := store.NewGeometry(5, 4, stripes)
	if err != nil {
		t.Fatal(err)
	}
	e := &EPLog{geo: geo, nShards: shards}
	lo, hi := partitionRange(total, stripes, shards, idx)
	owns := func(c int64) bool { return (c >= lo && c < hi) || (c < stripes && c%shards == idx) }
	a := e.newAllocator(total, idx, func(c int64) bool { return c < stripes })

	// Fresh: the shard's headroom slice in ascending order, then nothing.
	for want := lo; want < hi; want++ {
		c, err := a.alloc()
		if err != nil || c != want {
			t.Fatalf("alloc = %d, %v; want %d", c, err, want)
		}
	}
	if _, err := a.alloc(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhausted alloc: err %v, want ErrNoSpace", err)
	}

	// Releases come back lowest first, whatever their order: an owned home
	// chunk below the headroom before any headroom chunk.
	for _, c := range []int64{hi - 1, lo + 3, idx + shards, lo} {
		a.release(c)
	}
	for _, want := range []int64{idx + shards, lo, lo + 3, hi - 1} {
		if c, err := a.alloc(); err != nil || c != want {
			t.Fatalf("after releases: alloc = %d, %v; want %d", c, err, want)
		}
	}

	// A release below the last allocation is the very next chunk out.
	a.release(lo + 7)
	a.release(lo + 50)
	if c, _ := a.alloc(); c != lo+7 {
		t.Fatalf("alloc = %d, want the lower release %d", c, lo+7)
	}

	// Random churn: every allocation is the lowest free owned chunk, per a
	// model free set, and never an unowned chunk.
	free := map[int64]bool{lo + 50: true}
	held := []int64{}
	for c := int64(0); c < total; c++ {
		if owns(c) && c != lo+50 {
			held = append(held, c)
		}
	}
	for _, c := range held { // every owned chunk, homes included, becomes free
		a.release(c)
		free[c] = true
	}
	held = held[:0]
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		if len(held) > 0 && r.Intn(2) == 0 {
			j := r.Intn(len(held))
			c := held[j]
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
			a.release(c)
			free[c] = true
			continue
		}
		c, err := a.alloc()
		if len(free) == 0 {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("step %d: alloc with nothing free = %d, %v", i, c, err)
			}
			continue
		}
		want := int64(total)
		for f := range free {
			want = min(want, f)
		}
		if err != nil || c != want || !owns(c) {
			t.Fatalf("step %d: alloc = %d, %v; want lowest free %d", i, c, err, want)
		}
		delete(free, c)
		held = append(held, c)
		if a.freeCount() != int64(len(free)) {
			t.Fatalf("step %d: freeCount %d, want %d", i, a.freeCount(), len(free))
		}
	}
}

// touchDev records which update-headroom chunks (at or above the stripe
// homes) of a device were ever written. The engine's per-device mutex,
// outermost, serializes its calls.
type touchDev struct {
	device.Dev
	homes   int64
	written []bool
}

func (d *touchDev) WriteChunkAt(start float64, idx int64, p []byte) (float64, error) {
	if idx >= d.homes {
		d.written[idx] = true
	}
	return d.Dev.WriteChunkAt(start, idx, p)
}

func (d *touchDev) touched() (n int64) {
	for _, w := range d.written {
		if w {
			n++
		}
	}
	return n
}

// TestUpdateSpaceTouchedBounded runs skewed one-chunk updates on the served
// shape (8 simulated SSDs, 1 024 stripes, 4 shards, write-behind, a fold
// every 256 writes, a 128-stripe dirty window, TRIM) and checks that
// lowest-free-first reuse keeps the update media ever written to a small
// share of each device's headroom — a roving cursor writes all of it — and
// that core.update_chunks_touched reports exactly what the devices saw.
func TestUpdateSpaceTouchedBounded(t *testing.T) {
	const k, n, stripes, csize, batch = 6, 8, 1024, 4096, 12
	batches := 20000
	if testing.Short() || raceEnabled {
		batches = 4000
	}
	devChunks := float64(2 * stripes)
	rawBytes := (int64(devChunks/0.85) + 64) * csize // eplogserve's sizing
	devs := make([]device.Dev, n)
	rec := make([]*touchDev, n)
	for i := range devs {
		s, err := ssd.New(ssd.DefaultParams(rawBytes))
		if err != nil {
			t.Fatal(err)
		}
		rec[i] = &touchDev{Dev: s, homes: stripes, written: make([]bool, s.Chunks())}
		devs[i] = rec[i]
	}
	logs := make([]device.Dev, n-k)
	for i := range logs {
		h, err := hdd.New(hdd.DefaultParams(stripes*8, csize))
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = h
	}
	sink := obs.NewSink()
	e, err := New(devs, logs, Config{K: k, Stripes: stripes, Shards: 4, WriteBehind: true,
		CommitEvery: 256, DirtyWindowStripes: 128, TrimOnCommit: true, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	ops := make([]BatchOp, batch)
	payload := make([]byte, batch*csize)
	r.Read(payload)
	for b := 0; b < batches; b++ {
		for i := range ops {
			lba := r.Int63n(e.Chunks())
			if r.Intn(2) == 0 { // half the updates on the first eighth
				lba = r.Int63n(e.Chunks() / 8)
			}
			ops[i] = BatchOp{LBA: lba, Data: payload[i*csize : (i+1)*csize]}
		}
		e.WriteBatch(ops)
		for i := range ops {
			if ops[i].Err != nil {
				t.Fatalf("batch %d op %d: %v", b, i, ops[i].Err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	var sum int64
	for d, td := range rec {
		headroom := td.Chunks() - stripes
		got := td.touched()
		sum += got
		if got*4 > headroom {
			t.Errorf("dev %d: %d of %d update chunks written, want at most a quarter", d, got, headroom)
		}
	}
	if c := sink.Counter("core.update_chunks_touched").Value(); c != sum {
		t.Errorf("core.update_chunks_touched = %d, devices saw %d", c, sum)
	}
	t.Logf("%d update chunks written across %d devices of %d each", sum, n, rec[0].Chunks()-stripes)
}

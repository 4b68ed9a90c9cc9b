package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/erasure"
	"github.com/eplog/eplog/internal/gf"
	"github.com/eplog/eplog/internal/hdd"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/ssd"
	"github.com/eplog/eplog/internal/wire"
)

// Rungs are single-goroutine direct calls into one layer's public
// functions on the workload geometry (4 KiB chunks, 6+2). They do not
// depend on the workload.

// rungCost is one rung's result.
type rungCost struct {
	ns     float64 // median over batches of ns per op
	allocs float64 // heap allocations per op
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure times fn, which runs its operation n times, for at least d, in
// batches of about d/20, and reports the median batch.
func measure(d time.Duration, fn func(n int)) rungCost {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if time.Since(t0) >= d/20 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var per []float64
	var ops int
	m0 := mallocs()
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
		ops += n
	}
	return rungCost{ns: median(per), allocs: float64(mallocs()-m0) / float64(ops)}
}

// measureTimed is measure for operations that need untimed work between
// batches: step does the untimed part and returns the timed duration and
// the operations it covered.
func measureTimed(d time.Duration, step func() (time.Duration, int, error)) (float64, error) {
	var per []float64
	var timed time.Duration
	for timed < d {
		t, n, err := step()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(t.Nanoseconds())/float64(n))
		timed += t
	}
	return median(per), nil
}

// firstErr keeps the first error a rung's loop met; a timed loop cannot
// stop to return one.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

func randomChunks(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, chunkSize)
		rng.Read(out[i])
	}
	return out
}

// runRungs measures every rung for about d each and returns the per-layer
// metrics they define.
func runRungs(d time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(1))
	rungsGF(d, rng, out)
	if err := rungsErasure(d, rng, out); err != nil {
		return nil, err
	}
	rungsBufpool(d, out)
	if err := rungsDevice(d, rng, out); err != nil {
		return nil, err
	}
	if err := rungsWire(d, rng, out); err != nil {
		return nil, err
	}
	if err := rungsCore(d, rng, out); err != nil {
		return nil, err
	}
	return out, nil
}

func rungsGF(d time.Duration, rng *rand.Rand, out map[string]float64) {
	srcs := randomChunks(rng, arrayK)
	dst := randomChunks(rng, 1)[0]
	coeffs := []byte{3, 7, 29, 113, 200, 251}
	out["gf.muladd6_ns"] = measure(d, func(n int) {
		for i := 0; i < n; i++ {
			gf.MulAddSlices(coeffs, srcs, dst)
		}
	}).ns
	out["gf.muladd1_ns"] = measure(d, func(n int) {
		for i := 0; i < n; i++ {
			gf.MulAddSlice(29, srcs[0], dst)
		}
	}).ns
	out["gf.xor6_ns"] = measure(d, func(n int) {
		for i := 0; i < n; i++ {
			gf.XORSlices(srcs, dst)
		}
	}).ns
}

func rungsErasure(d time.Duration, rng *rand.Rand, out map[string]float64) error {
	code, err := erasure.New(arrayK, arrayM, erasure.Cauchy)
	if err != nil {
		return err
	}
	// The k'=1 log-stripe code every single-chunk update encodes with.
	code1, err := erasure.NewCache(erasure.Cauchy).Get(1, arrayM)
	if err != nil {
		return err
	}
	shards := randomChunks(rng, arrayK+arrayM)
	var fe firstErr
	run := func(fn func() error) rungCost {
		return measure(d, func(n int) {
			for i := 0; i < n; i++ {
				fe.note(fn())
			}
		})
	}
	enc := run(func() error { return code.Encode(shards) })
	out["erasure.encode_6p2_ns"], out["erasure.encode_allocs"] = enc.ns, enc.allocs
	out["erasure.encode_1p2_ns"] = run(func() error { return code1.Encode(shards[:1+arrayM]) }).ns
	out["erasure.update_parity_ns"] = run(func() error { return code.UpdateParity(3, shards[0], shards[arrayK:]) }).ns
	if err := code.Encode(shards); err != nil {
		return err
	}
	work := make([][]byte, len(shards))
	out["erasure.reconstruct1_ns"] = run(func() error {
		copy(work, shards)
		work[2] = nil
		return code.ReconstructData(work)
	}).ns
	out["erasure.reconstruct2_ns"] = run(func() error {
		copy(work, shards)
		work[1], work[4] = nil, nil
		return code.ReconstructData(work)
	}).ns
	return fe.err
}

func rungsBufpool(d time.Duration, out map[string]float64) {
	for _, r := range []struct {
		name string
		size int
	}{{"bufpool.getput_4k_ns", chunkSize}, {"bufpool.getput_24k_ns", arrayK * chunkSize}} {
		out[r.name] = measure(d, func(n int) {
			for i := 0; i < n; i++ {
				bufpool.Default.Put(bufpool.Default.Get(r.size))
			}
		}).ns
	}
}

func rungsDevice(d time.Duration, rng *rand.Rand, out map[string]float64) error {
	p := randomChunks(rng, 1)[0]
	var fe firstErr
	rw := func(dev device.Dev, write, sequential bool) float64 {
		chunks := dev.Chunks()
		var next int64
		return measure(d, func(n int) {
			for i := 0; i < n; i++ {
				idx := next % chunks
				next++
				if !sequential {
					idx = rng.Int63n(chunks)
				}
				var err error
				if write {
					_, err = dev.WriteChunkAt(0, idx, p)
				} else {
					_, err = dev.ReadChunkAt(0, idx, p)
				}
				fe.note(err)
			}
		}).ns
	}
	s, err := ssd.New(ssd.DefaultParams(ssdRawBytes()))
	if err != nil {
		return err
	}
	// Fill the logical space so writes run against a full FTL with GC.
	for i := int64(0); i < s.Chunks(); i++ {
		if err := s.WriteChunk(i, p); err != nil {
			return err
		}
	}
	out["device.ssd_write_ns"] = rw(s, true, false)
	out["device.ssd_read_ns"] = rw(s, false, false)
	h, err := hdd.New(hdd.DefaultParams(arrayStripe*8, chunkSize))
	if err != nil {
		return err
	}
	out["device.hdd_append_ns"] = rw(h, true, true)
	out["device.mem_write_ns"] = rw(device.NewMem(s.Chunks(), chunkSize), true, false)
	return fe.err
}

// loopReader replays one buffer forever, so a decoder never sees EOF.
type loopReader struct {
	buf []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.buf) {
		r.off = 0
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

func rungsWire(d time.Duration, rng *rand.Rand, out map[string]float64) error {
	stripe := make([]byte, arrayK*chunkSize)
	rng.Read(stripe)
	var fe firstErr
	note := fe.note
	encode := func(f wire.Frame) float64 {
		enc := wire.NewEncoder(bufio.NewWriterSize(io.Discard, 64<<10))
		return measure(d, func(n int) {
			for i := 0; i < n; i++ {
				note(enc.WriteFrame(&f))
			}
		}).ns
	}
	// decode includes recycling the payload, as the server does.
	decode := func(payload []byte) rungCost {
		var stream bytes.Buffer
		bw := bufio.NewWriter(&stream)
		enc := wire.NewEncoder(bw)
		for i := 0; i < 16; i++ {
			note(enc.WriteFrame(&wire.Frame{Type: wire.TWrite, ReqID: uint64(i), Arg: int64(i), Count: uint32(len(payload)), Payload: payload}))
		}
		note(bw.Flush())
		dec := wire.NewDecoder(bufio.NewReaderSize(&loopReader{buf: stream.Bytes()}, 64<<10), 0)
		return measure(d, func(n int) {
			var f wire.Frame
			for i := 0; i < n; i++ {
				note(dec.ReadFrame(&f))
				wire.PutPayload(&f)
			}
		})
	}
	chunk := stripe[:chunkSize]
	out["wire.encode_write_4k_ns"] = encode(wire.Frame{Type: wire.TWrite, Arg: 7, Count: chunkSize, Payload: chunk})
	out["wire.encode_read_resp_4k_ns"] = encode(wire.Frame{Type: wire.TRead | wire.RespFlag, Arg: 7, Count: chunkSize, Payload: chunk})
	d4 := decode(chunk)
	out["wire.decode_write_4k_ns"], out["wire.decode_allocs_per_frame"] = d4.ns, d4.allocs
	out["wire.decode_write_24k_ns"] = decode(stripe).ns
	f := wire.Frame{Type: wire.TRead | wire.RespFlag, Arg: 7, Count: chunkSize, Payload: chunk}
	hdr := make([]byte, 0, wire.HeaderSize)
	out["wire.header_append_ns"] = measure(d, func(n int) {
		for i := 0; i < n; i++ {
			_, err := wire.AppendFrameHeader(hdr[:0], &f)
			note(err)
		}
	}).ns
	return fe.err
}

// rungEngine is the eplogserve engine configuration over device.Mem sized
// like the served array, every stripe written once and committed — so
// engine cost is separate from simulator cost, which the device rungs give.
type rungEngine struct {
	devs, logs []device.Dev
	faulty     *device.Faulty
	e          *core.EPLog
}

func newRungEngine(withObs, precondition bool) (*rungEngine, error) {
	s, err := ssd.New(ssd.DefaultParams(ssdRawBytes()))
	if err != nil {
		return nil, err
	}
	re := &rungEngine{devs: make([]device.Dev, arrayK+arrayM), logs: make([]device.Dev, arrayM)}
	for i := range re.devs {
		re.devs[i] = device.NewMem(s.Chunks(), chunkSize)
	}
	re.faulty = device.NewFaulty(re.devs[failedDev])
	re.devs[failedDev] = re.faulty
	for i := range re.logs {
		re.logs[i] = device.NewMem(arrayStripe*8, chunkSize)
	}
	return re, re.reset(withObs, precondition)
}

// reset replaces the engine with a fresh one over the same devices.
func (re *rungEngine) reset(withObs, precondition bool) error {
	if re.e != nil {
		if err := re.e.Close(); err != nil {
			return err
		}
	}
	var sink *obs.Sink
	if withObs {
		sink = newSink()
	}
	e, err := core.New(re.devs, re.logs, engineConfig(sink))
	if err != nil {
		return err
	}
	re.e = e
	if !precondition {
		return nil
	}
	stripe := make([]byte, arrayK*chunkSize)
	for s := int64(0); s < arrayStripe; s++ {
		if _, err := e.WriteChunks(0, s*arrayK, stripe); err != nil {
			return err
		}
	}
	return e.Commit()
}

func rungsCore(d time.Duration, rng *rand.Rand, out map[string]float64) error {
	stripe := make([]byte, arrayK*chunkSize)
	rng.Read(stripe)
	chunk := stripe[:chunkSize]
	chunks := int64(arrayStripe * arrayK)
	pick := func() int64 { return skewed(rng, chunks) }
	var fe firstErr
	note := fe.note
	update := func(e *core.EPLog) rungCost {
		return measure(d, func(n int) {
			for i := 0; i < n; i++ {
				_, err := e.WriteChunks(0, pick(), chunk)
				note(err)
			}
		})
	}
	read := func(e *core.EPLog, lba func() int64) rungCost {
		buf := make([]byte, chunkSize)
		return measure(d, func(n int) {
			for i := 0; i < n; i++ {
				_, err := e.ReadChunks(0, lba(), buf)
				note(err)
			}
		})
	}

	re, err := newRungEngine(true, true)
	if err != nil {
		return err
	}
	defer func() { re.e.Close() }() // error paths; the last line checks it
	e := re.e

	l0 := e.ShardLockAcquisitions()
	u := update(e)
	out["core.update_ns"], out["core.update_allocs"] = u.ns, u.allocs
	// measure's calibration calls also take locks; count ops the same way.
	out["core.update_locks"] = float64(e.ShardLockAcquisitions()-l0) / float64(e.Stats().Requests-arrayStripe)
	out["core.stripe_update_ns"] = measure(d, func(n int) {
		for i := 0; i < n; i++ {
			_, err := e.WriteChunks(0, rng.Int63n(arrayStripe)*arrayK, stripe)
			note(err)
		}
	}).ns

	var reads int64
	r0 := e.ReadLockAcquisitions() + e.ShardLockAcquisitions()
	r := read(e, func() int64 { reads++; return pick() })
	out["core.read_ns"], out["core.read_allocs"] = r.ns, r.allocs
	out["core.read_locks"] = float64(e.ReadLockAcquisitions()+e.ShardLockAcquisitions()-r0) / float64(reads)

	wops := make([]core.BatchOp, 64)
	wb := measure(d, func(n int) {
		for i := 0; i < n; i++ {
			for j := range wops {
				wops[j] = core.BatchOp{LBA: pick(), Data: chunk}
			}
			e.WriteBatch(wops)
			for j := range wops {
				note(wops[j].Err)
			}
		}
	})
	out["core.write_batch64_ns_per_op"], out["core.write_batch64_allocs_per_op"] = wb.ns/64, wb.allocs/64
	rops := make([]core.ReadOp, 64)
	rbufs := make([]byte, 64*chunkSize)
	rb := measure(d, func(n int) {
		for i := 0; i < n; i++ {
			for j := range rops {
				rops[j] = core.ReadOp{LBA: pick(), Buf: rbufs[j*chunkSize : (j+1)*chunkSize]}
			}
			e.ReadBatch(rops)
			for j := range rops {
				note(rops[j].Err)
			}
		}
	})
	out["core.read_batch64_ns_per_op"], out["core.read_batch64_allocs_per_op"] = rb.ns/64, rb.allocs/64

	// A commit folds the stripes dirtied since the last one: dirty 64,
	// untimed, then time the fold.
	note(e.Commit())
	out["core.commit_ns_per_stripe"], err = measureTimed(d, func() (time.Duration, int, error) {
		for _, s := range rng.Perm(arrayStripe)[:64] {
			if _, err := e.WriteChunks(0, int64(s)*arrayK+int64(rng.Intn(arrayK)), chunk); err != nil {
				return 0, 0, err
			}
		}
		t0 := time.Now()
		err := e.Commit()
		return time.Since(t0), 64, err
	})
	if err != nil {
		return err
	}

	// Degraded reads: only chunks whose home is the failed device.
	note(e.Commit())
	re.faulty.Fail()
	geo := e.Geometry()
	var onFailed []int64
	for lba := int64(0); lba < chunks; lba++ {
		if s, j := geo.Stripe(lba); geo.DataDev(s, j) == failedDev {
			onFailed = append(onFailed, lba)
		}
	}
	out["core.read_degraded_ns"] = read(e, func() int64 { return onFailed[rng.Intn(len(onFailed))] }).ns
	re.faulty.Repair()

	// The first write of a stripe goes straight to the array with parity:
	// a fresh engine over the same devices for every pass over the stripes.
	out["core.direct_stripe_ns"], err = measureTimed(d, func() (time.Duration, int, error) {
		if err := re.reset(true, false); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for s := int64(0); s < arrayStripe; s++ {
			if _, err := re.e.WriteChunks(0, s*arrayK, stripe); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), arrayStripe, nil
	})
	if err != nil {
		return err
	}

	// The same update and read with spans and trace events off: the
	// difference is what the instrumentation costs (ROADMAP budget 5 %).
	if err := re.reset(false, true); err != nil {
		return err
	}
	off := update(re.e)
	out["obs.update_overhead_share"] = (u.ns - off.ns) / off.ns
	offR := read(re.e, pick)
	out["obs.read_overhead_share"] = (r.ns - offR.ns) / offR.ns
	note(re.e.Close())
	if fe.err != nil {
		return fmt.Errorf("core rungs: %w", fe.err)
	}
	return nil
}

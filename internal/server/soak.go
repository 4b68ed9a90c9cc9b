package server

import (
	"fmt"
	"hash/fnv"
	"sync"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/wire"
	"github.com/eplog/eplog/internal/workload"
)

// SoakOptions parameterizes RunSoak.
type SoakOptions struct {
	// Addr is the server to soak.
	Addr string
	// Conns is how many concurrent pipelined connections to drive. Must
	// not exceed the array's stripe count (each connection owns a disjoint
	// stripe-aligned LBA range).
	Conns int
	// OpsPerConn is the workload length per connection.
	OpsPerConn int
	// Depth is the per-connection pipeline depth (<= 0 selects 16).
	Depth int
	// Seed seeds the deterministic workload; connection i uses Seed+i.
	Seed int64
	// MaxPayload bounds response payloads (<= 0 selects the wire default).
	MaxPayload int
	// FlushEvery pipelines a FLUSH barrier every FlushEvery ops per
	// connection (0 selects 113; negative disables).
	FlushEvery int
	// ReadEvery overrides the workload mix's read cadence when nonzero
	// (every Nth op is a read; the default mix selects 16). Lower values
	// make the soak read-heavy — useful for exercising the server's read
	// batching under load.
	ReadEvery int
}

// SoakOp is one logged workload operation, recorded in issue order. Write
// payloads are regenerable from Seed (workload.Fill); Sum holds the
// FNV-64a checksum of a read's live response payload.
type SoakOp struct {
	Kind   workload.Kind
	LBA    int64
	Chunks int
	Seed   uint64
	Sum    uint64
}

// ConnLog is one connection's op log plus its client-observed byte
// counters (acknowledged payload bytes only).
type ConnLog struct {
	Lo, Chunks int64
	Seed       int64
	Ops        []SoakOp
	// BytesWritten sums the Count fields of acknowledged write responses;
	// BytesRead sums received read payload bytes.
	BytesWritten int64
	BytesRead    int64
	Flushes      int64
	// FramesSent and SocketWrites are the client's send-side counters
	// (Client.SendStats) when the connection finished.
	FramesSent   uint64
	SocketWrites uint64
}

// SoakReport is the outcome of a soak run, sufficient to replay the whole
// op stream serially and reconcile it against the live run.
type SoakReport struct {
	Stat         wire.Stat
	Conns        []ConnLog
	BytesWritten int64
	BytesRead    int64
	Ops          int64
	Flushes      int64
	// FramesSent / SocketWrites over all connections is the run's
	// frames_per_write: how many request frames shared a socket write.
	FramesSent   uint64
	SocketWrites uint64
}

// RunSoak drives Conns concurrent pipelined connections of deterministic
// skewed workload against a running server, logging every op and the
// client-observed byte counters. Each connection owns a disjoint
// stripe-aligned slice of the LBA space, so the global op stream has a
// well-defined serial equivalent (Reconcile) regardless of how the server
// interleaves connections.
func RunSoak(opts SoakOptions) (*SoakReport, error) {
	if opts.Conns <= 0 || opts.OpsPerConn <= 0 {
		return nil, fmt.Errorf("soak: need positive conns and ops per conn")
	}
	if opts.Depth <= 0 {
		opts.Depth = 16
	}
	if opts.FlushEvery == 0 {
		opts.FlushEvery = 113
	}

	c0, err := Dial(opts.Addr, opts.MaxPayload)
	if err != nil {
		return nil, err
	}
	st, err := c0.Stat()
	c0.Close()
	if err != nil {
		return nil, err
	}
	stripesPer := st.Stripes / int64(opts.Conns)
	if stripesPer == 0 {
		return nil, fmt.Errorf("soak: %d connections over %d stripes: need at least one stripe each", opts.Conns, st.Stripes)
	}

	rep := &SoakReport{Stat: st, Conns: make([]ConnLog, opts.Conns)}
	k := int64(st.K)
	for i := range rep.Conns {
		rep.Conns[i] = ConnLog{
			Lo:     int64(i) * stripesPer * k,
			Chunks: stripesPer * k,
			Seed:   opts.Seed + int64(i),
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, opts.Conns)
	wg.Add(opts.Conns)
	for i := 0; i < opts.Conns; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = soakConn(opts, st, &rep.Conns[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("soak conn %d: %w", i, err)
		}
	}
	for i := range rep.Conns {
		cl := &rep.Conns[i]
		rep.BytesWritten += cl.BytesWritten
		rep.BytesRead += cl.BytesRead
		rep.Ops += int64(len(cl.Ops))
		rep.Flushes += cl.Flushes
		rep.FramesSent += cl.FramesSent
		rep.SocketWrites += cl.SocketWrites
	}
	return rep, nil
}

// soakConn runs one connection's workload with pipeline-depth and
// same-LBA conflict control: an op overlapping an in-flight op waits for
// the earlier completion first, so within a connection overlapping ops
// apply in issue order — which is what makes the serial replay exact.
func soakConn(opts SoakOptions, st wire.Stat, cl *ConnLog) error {
	k := int(st.K)
	csize := int(st.ChunkSize)
	c, err := Dial(opts.Addr, opts.MaxPayload)
	if err != nil {
		return err
	}
	defer c.Close()
	cfg := workload.Config{Lo: cl.Lo, Chunks: cl.Chunks, K: k, Seed: cl.Seed}.DefaultMix()
	if opts.ReadEvery != 0 {
		cfg.ReadEvery = opts.ReadEvery
	}
	gen, err := workload.New(cfg)
	if err != nil {
		return err
	}

	type flight struct {
		lba    int64
		chunks int
		op     int
	}
	inflight := make(map[*Call]flight, opts.Depth)
	done := make(chan *Call, opts.Depth)
	buf := make([]byte, k*csize)

	// Read responses land in a small free-stack of pool-backed destination
	// buffers (Call.Dst), so a soak issues zero per-read allocations and
	// never touches the shared payload pool on the response path.
	free := make([][]byte, 0, opts.Depth)
	defer func() {
		for _, d := range free {
			bufpool.Default.Put(d)
		}
	}()
	getDst := func() []byte {
		if n := len(free); n > 0 {
			d := free[n-1]
			free = free[:n-1]
			return d
		}
		return bufpool.Default.Get(k * csize)
	}

	complete := func(call *Call) error {
		fr, ok := inflight[call]
		if !ok {
			return fmt.Errorf("completion for unknown call %d", call.Req.ReqID)
		}
		delete(inflight, call)
		if call.Dst != nil {
			free = append(free, call.Dst[:cap(call.Dst)])
		}
		if call.Err != nil {
			return fmt.Errorf("type %#x req %d: %w", call.Req.ReqType(), call.Req.ReqID, call.Err)
		}
		switch call.Resp.ReqType() {
		case wire.TWrite:
			cl.BytesWritten += int64(call.Resp.Count)
		case wire.TRead:
			// Payload aliases call.Dst (just pushed back above); no
			// PutPayload — the memory never left this connection.
			h := fnv.New64a()
			h.Write(call.Resp.Payload)
			cl.Ops[fr.op].Sum = h.Sum64()
			cl.BytesRead += int64(len(call.Resp.Payload))
		}
		return nil
	}
	overlaps := func(lba int64, n int) bool {
		for _, fr := range inflight {
			if fr.chunks > 0 && lba < fr.lba+int64(fr.chunks) && fr.lba < lba+int64(n) {
				return true
			}
		}
		return false
	}

	issue := func(op workload.Op) error {
		cl.Ops = append(cl.Ops, SoakOp{Kind: op.Kind, LBA: op.LBA, Chunks: op.Chunks, Seed: op.Seed})
		for len(inflight) >= opts.Depth || overlaps(op.LBA, op.Chunks) {
			if err := complete(<-done); err != nil {
				return err
			}
		}
		var call *Call
		if op.Kind == workload.Read {
			call = c.GoRead(op.LBA, uint32(op.Chunks), getDst(), done)
		} else {
			p := buf[:op.Chunks*csize]
			workload.Fill(p, op.Seed)
			call = c.Go(wire.Frame{Type: wire.TWrite, Arg: op.LBA, Count: uint32(len(p)), Payload: p}, done)
		}
		inflight[call] = flight{op.LBA, op.Chunks, len(cl.Ops) - 1}
		return nil
	}

	// Precondition: overwrite the connection's entire range with logged
	// full-stripe writes, so every later read observes only this run's
	// data (reconciliation must not depend on what a previous soak left in
	// the array) and subsequent updates take the logging path.
	for s := int64(0); s < cl.Chunks/int64(k); s++ {
		err := issue(workload.Op{
			Kind:   workload.FullStripe,
			LBA:    cl.Lo + s*int64(k),
			Chunks: k,
			Seed:   uint64(cl.Seed+1)<<20 + uint64(s),
		})
		if err != nil {
			return err
		}
	}

	for i := 0; i < opts.OpsPerConn; i++ {
		if err := issue(gen.Next()); err != nil {
			return err
		}
		if fe := opts.FlushEvery; fe > 0 && (i+1)%fe == 0 && len(inflight) < opts.Depth {
			fc := c.Go(wire.Frame{Type: wire.TFlush}, done)
			inflight[fc] = flight{0, 0, -1}
			cl.Flushes++
		}
	}
	for len(inflight) > 0 {
		if err := complete(<-done); err != nil {
			return err
		}
	}
	err = c.Flush()
	cl.FramesSent, cl.SocketWrites = c.SendStats()
	return err
}

// Reconcile replays the whole soak op stream through a fresh serial
// in-process engine and demands exact agreement: every read checksum must
// reproduce, and the replay's byte counters must equal the client-observed
// totals exactly. Connections own disjoint LBA ranges, so replaying them
// one after another is a valid serialization of the concurrent run.
func (r *SoakReport) Reconcile() error {
	st := r.Stat
	csize := int(st.ChunkSize)
	k := int(st.K)
	n := int(st.K + st.M)
	devs := make([]device.Dev, n)
	for i := range devs {
		devs[i] = device.NewMem(st.Stripes*4, csize)
	}
	logs := make([]device.Dev, st.M)
	for i := range logs {
		logs[i] = device.NewMem(st.Stripes*8, csize)
	}
	e, err := core.New(devs, logs, core.Config{K: k, Stripes: st.Stripes})
	if err != nil {
		return fmt.Errorf("reconcile: replay engine: %w", err)
	}
	defer e.Close()

	var wantW, wantR int64
	buf := make([]byte, k*csize)
	for ci := range r.Conns {
		cl := &r.Conns[ci]
		for oi := range cl.Ops {
			op := &cl.Ops[oi]
			p := buf[:op.Chunks*csize]
			if op.Kind == workload.Read {
				if _, err := e.ReadChunks(0, op.LBA, p); err != nil {
					return fmt.Errorf("reconcile: conn %d op %d: replay read at %d: %w", ci, oi, op.LBA, err)
				}
				h := fnv.New64a()
				h.Write(p)
				if sum := h.Sum64(); sum != op.Sum {
					return fmt.Errorf("reconcile: conn %d op %d: read at %d: live sum %#x, replay sum %#x",
						ci, oi, op.LBA, op.Sum, sum)
				}
				wantR += int64(len(p))
			} else {
				workload.Fill(p, op.Seed)
				if _, err := e.WriteChunks(0, op.LBA, p); err != nil {
					return fmt.Errorf("reconcile: conn %d op %d: replay write at %d: %w", ci, oi, op.LBA, err)
				}
				wantW += int64(len(p))
			}
		}
	}
	if wantW != r.BytesWritten || wantR != r.BytesRead {
		return fmt.Errorf("reconcile: byte counters diverge: client saw %d written / %d read, serial replay %d / %d",
			r.BytesWritten, r.BytesRead, wantW, wantR)
	}
	return nil
}

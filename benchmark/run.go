package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// session is a set-up system: a child and the load connections, every
// stripe written once, the log empty, and (read_degraded) device 1 failed.
type session struct {
	ch          *child
	conns       []*loadConn
	setupS      float64
	precondRate float64
}

// each runs fn on every connection in parallel.
func (s *session) each(fn func(lc *loadConn) error) error {
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for i, lc := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(lc)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *session) close() error {
	for _, lc := range s.conns {
		lc.c.Close()
	}
	return s.ch.close()
}

// setUp spawns a child and brings it to the state every window starts
// from. Its duration is the setup_s metric: spawn, array built, every
// stripe preconditioned over the wire, (device failed), ready.
func setUp(spec workloadSpec, seed int64, trace bool, pay *payloads) (*session, error) {
	t0 := time.Now()
	ch, err := spawnChild(trace)
	if err != nil {
		return nil, err
	}
	s := &session{ch: ch}
	fail := func(err error) (*session, error) {
		s.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for i := 0; i < loadConns; i++ {
		lc, err := dialLoad(ch.hello.Addr, spec, seed, i, pay)
		if err != nil {
			return fail(err)
		}
		s.conns = append(s.conns, lc)
	}
	p0 := time.Now()
	if err := s.each((*loadConn).precondition); err != nil {
		return fail(fmt.Errorf("precondition: %w", err))
	}
	s.precondRate = arrayStripe / time.Since(p0).Seconds()
	c := s.conns[0].c
	if err := c.Flush(); err != nil {
		return fail(err)
	}
	for {
		st, err := c.Stat()
		if err != nil {
			return fail(err)
		}
		if st.PendingLogStripes == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if spec.degraded {
		if err := ch.call("fail", &struct{}{}); err != nil {
			return fail(err)
		}
	}
	s.setupS = time.Since(t0).Seconds()
	return s, nil
}

// runWorkload makes one run against one child: p.setups set-ups (the last
// one is used), STAT round trips, p.warmup, the measured closed-loop
// p.window, the open-loop window p.open, and the read-back of every chunk.
// With trace set the child is the traced one, the client keeps spans, and
// the trace JSONL is written. It fails only when the run could not be
// made; a run whose verification failed comes back with failed > 0.
func runWorkload(spec workloadSpec, p plan, trace bool) (*runResult, error) {
	pay := newPayloads(p.seed)
	r := &runResult{}
	var s *session
	for i := 0; i < max(p.setups, 1); i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = setUp(spec, p.seed, trace, pay); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, s.setupS)
	}
	defer s.close()
	r.precondRate = s.precondRate
	fmt.Fprintf(os.Stderr, "benchmark: %s: child listens on %s, GOMAXPROCS %d\n", spec.name, s.ch.hello.Addr, s.ch.hello.GOMAXPROCS)

	// The wire + server + loopback floor, with no engine batch behind it.
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		if _, err := s.conns[0].c.Stat(); err != nil {
			return nil, err
		}
		r.statRTT = append(r.statRTT, time.Since(t0).Nanoseconds())
	}
	slices.Sort(r.statRTT)

	var clientLog *spanLog
	if trace {
		clientLog = &spanLog{}
		clientLog.on.Store(true)
		for _, lc := range s.conns {
			lc.log = clientLog
		}
	}

	// Closed loop: warm up, then measure between two child snapshots. The
	// snapshots are taken outside the window so that their own cost (a
	// stop-the-world MemStats read) is not in it; per-op ratios divide by
	// the server's own op counts from the same two snapshots.
	var phase atomic.Int32
	closedDone := make(chan error, 1)
	go func() { closedDone <- s.each(func(lc *loadConn) error { lc.runClosed(&phase); return nil }) }()
	time.Sleep(p.warmup)
	var err error
	if trace {
		if err = s.ch.call("spans-on", &struct{}{}); err != nil {
			return nil, err
		}
	}
	if r.before, err = s.ch.snap(); err != nil {
		return nil, err
	}
	cpu0 := readProc().CPUSeconds
	r.windowStart = time.Now()
	phase.Store(phaseMeasure)
	time.Sleep(p.window)
	phase.Store(phaseStop)
	r.window = time.Since(r.windowStart)
	r.clientCPU = readProc().CPUSeconds - cpu0
	if r.after, err = s.ch.snap(); err != nil {
		return nil, err
	}
	<-closedDone
	r.closed = s.tally()

	if p.open > 0 {
		t0 := time.Now()
		rate := float64(spec.openRate) / loadConns
		s.each(func(lc *loadConn) error { lc.runOpen(rate, p.open); return nil })
		r.openDur = time.Since(t0)
		r.open = s.tally()
	}

	var mu sync.Mutex
	verr := s.each(func(lc *loadConn) error {
		chunks, bad, err := lc.readBack()
		mu.Lock()
		r.verifyChunks += chunks
		r.verifyMismatches += bad
		mu.Unlock()
		return err
	})
	if verr != nil {
		fmt.Fprintln(os.Stderr, "read-back:", verr)
	}
	if r.end, err = s.ch.snap(); err != nil {
		return nil, err
	}
	r.attempted = r.closed.attempted + r.open.attempted + r.verifyChunks
	r.failed = r.closed.failed + r.open.failed + r.verifyMismatches
	r.faults = r.closed.faultSummary() + r.open.faultSummary()

	if trace {
		if err := writeTrace(filepath.Join(p.outDir, "trace-"+spec.name+".jsonl"), clientLog, s.ch); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tally collects and merges the connections' tallies.
func (s *session) tally() tally {
	ts := make([]tally, len(s.conns))
	for i, lc := range s.conns {
		ts[i] = lc.takeTally()
	}
	return merge(ts)
}

// writeTrace writes the traced run's spans, the client's then the child's,
// to path.
func writeTrace(path string, clientLog *spanLog, ch *child) error {
	path, err := filepath.Abs(path) // the child's working directory may differ
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	n, dropped, err := clientLog.appendTo(path)
	if err != nil {
		return err
	}
	var rep dumpReply
	if err := ch.call("dump "+path, &rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s: %d client + %d server spans (%d + %d beyond the %d kept)\n",
		path, n, rep.Spans, dropped, rep.Dropped, maxSpans)
	return nil
}

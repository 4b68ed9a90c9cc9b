// Package experiments wires the workload substrate, the device simulators,
// and the three parity-update schemes (MD, PL, EPLog) into the paper's
// evaluation harness: one driver per table/figure of Section V, plus the
// Figure 6 reliability series. Every driver works at a configurable scale
// factor (1 = paper scale) so the whole suite can run on a laptop.
package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"github.com/eplog/eplog/internal/core"
	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/hdd"
	"github.com/eplog/eplog/internal/obs"
	"github.com/eplog/eplog/internal/paritylog"
	"github.com/eplog/eplog/internal/raid"
	"github.com/eplog/eplog/internal/ssd"
	"github.com/eplog/eplog/internal/store"
	"github.com/eplog/eplog/internal/trace"
)

// Scheme selects a parity-update scheme.
type Scheme int

// The three schemes the paper compares.
const (
	MD    Scheme = iota + 1 // conventional RAID (mdadm)
	PL                      // original parity logging
	EPLog                   // elastic parity logging
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case MD:
		return "MD"
	case PL:
		return "PL"
	case EPLog:
		return "EPLog"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Setting is a RAID configuration from Section V-A.
type Setting struct {
	Name string
	K    int // data chunks per stripe
	M    int // parity chunks / log devices
}

// Settings are the paper's four configurations.
func Settings() []Setting {
	return []Setting{
		{Name: "(4+1)-RAID-5", K: 4, M: 1},
		{Name: "(6+1)-RAID-5", K: 6, M: 1},
		{Name: "(4+2)-RAID-6", K: 4, M: 2},
		{Name: "(6+2)-RAID-6", K: 6, M: 2},
	}
}

// DefaultSetting is the paper's headline configuration, (6+2)-RAID-6.
func DefaultSetting() Setting { return Setting{Name: "(6+2)-RAID-6", K: 6, M: 2} }

// ChunkSize is the paper's chunk size.
const ChunkSize = 4096

// RunConfig describes one trace replay.
type RunConfig struct {
	Setting Setting
	Scheme  Scheme
	Trace   *trace.Trace

	// DeviceBufferChunks enables EPLog's per-SSD buffers (Exp 3).
	DeviceBufferChunks int
	// HotColdGrouping switches the buffers to coldest-first eviction.
	HotColdGrouping bool
	// CommitEvery enables EPLog's periodic parity commit (Exp 4).
	CommitEvery int
	// CommitAtEnd performs one parity commit after the replay (Exp 4).
	CommitAtEnd bool
	// TrimOnCommit enables the TRIM extension (ablation).
	TrimOnCommit bool
	// UpdateHeadroom bounds EPLog's per-device no-overwrite area to this
	// fraction of the stripe count (space-exhaustion commits kick in, as
	// on a finite SSD partition). Zero sizes the area generously so no
	// forced commit ever happens.
	UpdateHeadroom float64
	// Shards partitions EPLog's stripes into independent stripe groups
	// (core.Config.Shards). Each shard owns a slice of every device's
	// update headroom and of the log space, so geometry() scales both by
	// the shard count: a workload skewed onto one shard must still fit in
	// that shard's partition.
	Shards int

	// UseSSDSim replaces RAM devices with the FTL simulator so GC
	// statistics are collected (Exps 2 and 4) and, together with the HDD
	// model, service times become meaningful (Exp 5).
	UseSSDSim bool
	// Timing enables closed-loop virtual-time replay and KIOPS
	// measurement (Exp 5). Requires UseSSDSim.
	Timing bool
	// QueueDepth is the number of outstanding requests in a timing
	// replay; 0 or 1 is strictly synchronous (the paper's baseline
	// assumption), larger values model the paper's multithreaded
	// replay.
	QueueDepth int
	// IncludeReads replays the trace's read requests too (against the
	// scheme's read path) instead of skipping them; they count toward
	// the request total, as in the paper's KIOPS definition.
	IncludeReads bool

	// Obs attaches an observability sink: devices are wrapped with
	// per-device metrics, the SSD/HDD simulators keep their own counters,
	// and EPLog runs record write/read/commit latencies and, when the
	// sink has spans enabled, span trees. The span recorders must be
	// sized for the whole run (preconditioning included) if the trees are
	// to reconcile against the counters. Nil disables observability.
	Obs *obs.Sink
}

// RunResult aggregates the measurements of one replay (post-precondition
// traffic only, matching the paper's methodology).
type RunResult struct {
	Requests int64
	// ReadRequests is the subset of Requests that were reads
	// (IncludeReads runs only).
	ReadRequests int64
	// SSDWriteBytes is the total write traffic to the main array.
	SSDWriteBytes int64
	// SSDReadBytes is the total read traffic to the main array (the
	// pre-read cost of MD and PL).
	SSDReadBytes int64
	// LogWriteBytes is the total log-device traffic.
	LogWriteBytes int64
	// GCPerSSD is the mean number of GC operations per SSD (FTL sim).
	GCPerSSD float64
	// PagesMovedPerSSD is the mean number of relocated flash pages.
	PagesMovedPerSSD float64
	// WriteAmp is the mean flash write amplification.
	WriteAmp float64
	// MeanLogStripeWidth is the average elastic log-stripe width k'
	// (EPLog runs only) — the direct measure of elasticity: PL is pinned
	// to per-stripe logging while EPLog widens stripes across requests
	// and buffers.
	MeanLogStripeWidth float64
	// Elapsed is the virtual time of the replay (timing runs).
	Elapsed float64
	// KIOPS is Requests/Elapsed/1000 (timing runs).
	KIOPS float64
	// EPLogStats is the engine's full counter set (EPLog runs only). It
	// covers the whole array lifetime including preconditioning, matching
	// the span trees' coverage.
	EPLogStats core.Stats
	// Metrics is a snapshot of the observability registry taken after the
	// replay (runs with Obs set only).
	Metrics *obs.Snapshot
}

// arrayBundle holds the built scheme plus its measurement hooks.
type arrayBundle struct {
	st       store.Store
	ssds     []*ssd.Device      // when UseSSDSim
	counters []*device.Counting // main-array counters (RAM runs)
	logCnt   []*device.Counting // log-device counters
	eplog    *core.EPLog
}

// geometry derives the array shape for a trace: the number of stripes
// covering the trace's address space and the per-device capacity needed
// for EPLog's no-overwrite headroom.
func geometry(cfg RunConfig) (stripes, devChunks, logChunks int64) {
	wsChunks := (cfg.Trace.MaxOffset() + ChunkSize - 1) / ChunkSize
	k := int64(cfg.Setting.K)
	stripes = (wsChunks + k - 1) / k
	if stripes < 4 {
		stripes = 4
	}
	// Chunk writes the replay will issue, for update-area and log sizing.
	var chunkWrites int64
	for _, r := range cfg.Trace.Requests {
		if r.Op != trace.OpWrite {
			continue
		}
		_, n := trace.ChunkSpan(r.Offset, r.Size, ChunkSize)
		chunkWrites += n
	}
	n := int64(cfg.Setting.K + cfg.Setting.M)
	perDevUpdates := chunkWrites/n + chunkWrites/(n*4) + 64
	if cfg.UpdateHeadroom > 0 {
		perDevUpdates = int64(cfg.UpdateHeadroom*float64(stripes)) + 64
	}
	// Sharded engines range-partition each device's update headroom and
	// the log space, so a skewed trace must fit inside one shard's slice:
	// scale both by the shard count.
	if s := int64(cfg.Shards); s > 1 {
		perDevUpdates *= s
	}
	devChunks = stripes + perDevUpdates
	logChunks = chunkWrites + 64
	if s := int64(cfg.Shards); s > 1 {
		logChunks = chunkWrites*s + 64*s
	}
	return stripes, devChunks, logChunks
}

// build constructs the scheme under test over fresh devices.
func build(cfg RunConfig) (*arrayBundle, int64, error) {
	stripes, devChunks, logChunks := geometry(cfg)
	n := cfg.Setting.K + cfg.Setting.M
	b := &arrayBundle{}

	mains := make([]device.Dev, n)
	var commitGuard int64
	if cfg.UseSSDSim {
		raw := int64(float64(devChunks)/0.85) + int64(ssd.DefaultParams(0).PagesPerBlock)
		params := ssd.DefaultParams(raw * ChunkSize)
		// Round blocks up so the logical space covers devChunks.
		for int64(float64(params.Blocks*params.PagesPerBlock)*(1-params.OverProvision)) < devChunks {
			params.Blocks++
		}
		// EPLog must commit before the flash reaches a utilization the
		// FTL cannot collect out of: cap the live logical footprint at
		// 88% of the raw pages left after the FTL's clean-block
		// reserves (watermark + GC + active streams).
		rawPages := int64(params.Blocks * params.PagesPerBlock)
		maxLive := int64(0.88 * float64(rawPages-4*int64(params.PagesPerBlock)))
		if g := devChunks - maxLive; g > 16 {
			commitGuard = g
		} else {
			commitGuard = 16
		}
		for i := 0; i < n; i++ {
			d, err := ssd.New(params)
			if err != nil {
				return nil, 0, err
			}
			b.ssds = append(b.ssds, d)
			mains[i] = d
		}
	} else {
		for i := 0; i < n; i++ {
			c := device.NewCounting(device.NewMem(devChunks, ChunkSize))
			b.counters = append(b.counters, c)
			mains[i] = c
		}
	}

	logs := make([]device.Dev, cfg.Setting.M)
	for i := range logs {
		var inner device.Dev
		if cfg.Timing {
			d, err := hdd.New(hdd.DefaultParams(logChunks, ChunkSize))
			if err != nil {
				return nil, 0, err
			}
			d.SetObserver(cfg.Obs, i)
			inner = d
		} else {
			inner = device.NewMem(logChunks, ChunkSize)
		}
		c := device.NewCounting(inner)
		b.logCnt = append(b.logCnt, c)
		logs[i] = c
	}

	// Observability: the simulators keep their own counters, and every
	// device gets per-device op/byte/latency metrics.
	if cfg.Obs != nil {
		for i, d := range b.ssds {
			d.SetObserver(cfg.Obs, i)
		}
		for i := range mains {
			mains[i] = device.NewTraced(mains[i], "main"+strconv.Itoa(i), cfg.Obs)
		}
		for i := range logs {
			logs[i] = device.NewTraced(logs[i], "log"+strconv.Itoa(i), cfg.Obs)
		}
	}

	switch cfg.Scheme {
	case MD:
		a, err := raid.New(mains, cfg.Setting.K, stripes)
		if err != nil {
			return nil, 0, err
		}
		b.st = a
	case PL:
		a, err := paritylog.New(mains, logs, cfg.Setting.K, stripes)
		if err != nil {
			return nil, 0, err
		}
		b.st = a
	case EPLog:
		e, err := core.New(mains, logs, core.Config{
			K:                  cfg.Setting.K,
			Stripes:            stripes,
			DeviceBufferChunks: cfg.DeviceBufferChunks,
			HotColdGrouping:    cfg.HotColdGrouping,
			CommitEvery:        cfg.CommitEvery,
			TrimOnCommit:       cfg.TrimOnCommit,
			CommitGuardChunks:  commitGuard,
			Shards:             cfg.Shards,
			Obs:                cfg.Obs,
		})
		if err != nil {
			return nil, 0, err
		}
		b.st = e
		b.eplog = e
	default:
		return nil, 0, fmt.Errorf("experiments: unknown scheme %v", cfg.Scheme)
	}
	return b, stripes, nil
}

// resetCounters zeroes measurement state after preconditioning.
func (b *arrayBundle) resetCounters() {
	for _, d := range b.ssds {
		d.ResetStats()
	}
	for _, c := range b.counters {
		c.Reset()
	}
	for _, c := range b.logCnt {
		c.Reset()
	}
}

// collect gathers the result counters.
func (b *arrayBundle) collect(res *RunResult) {
	if len(b.ssds) > 0 {
		var gc, moved, wa float64
		for _, d := range b.ssds {
			st := d.Stats()
			res.SSDWriteBytes += st.HostWriteBytes
			res.SSDReadBytes += st.HostReads * int64(ChunkSize)
			gc += float64(st.GCInvocations)
			moved += float64(st.PagesMoved)
			wa += st.WriteAmplification()
		}
		res.GCPerSSD = gc / float64(len(b.ssds))
		res.PagesMovedPerSSD = moved / float64(len(b.ssds))
		res.WriteAmp = wa / float64(len(b.ssds))
	}
	for _, c := range b.counters {
		res.SSDWriteBytes += c.WriteBytes()
		res.SSDReadBytes += c.ReadBytes()
	}
	for _, c := range b.logCnt {
		res.LogWriteBytes += c.WriteBytes()
	}
}

// Run preconditions the array (sequential full-working-set fill, as in the
// paper), replays the trace's writes as updates, applies the configured
// commit policy, and returns the measurements of the replay phase.
func Run(cfg RunConfig) (*RunResult, error) {
	b, stripes, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if b.eplog != nil {
		defer b.eplog.Close()
	}
	csize := int64(ChunkSize)
	logical := b.st.Chunks()

	// Precondition: sequential stripe-aligned writes over the full
	// working set, stripe by stripe (full-stripe writes everywhere).
	fill := randomChunk(1)
	stripeBuf := make([]byte, int64(cfg.Setting.K)*csize)
	for c := int64(0); c < int64(cfg.Setting.K); c++ {
		copy(stripeBuf[c*csize:], fill)
	}
	for s := int64(0); s < stripes; s++ {
		lba := s * int64(cfg.Setting.K)
		if _, err := b.st.WriteChunks(0, lba, stripeBuf); err != nil {
			return nil, fmt.Errorf("experiments: precondition stripe %d: %w", s, err)
		}
	}
	b.resetCounters()

	// Replay. Timed runs start at a fresh epoch beyond any device-clock
	// backlog the (untimed) preconditioning may have accumulated.
	res := &RunResult{}
	payload := randomChunk(2)
	buf := make([]byte, 0)
	readBuf := make([]byte, 0)
	now := 0.0
	const epoch = 1e5
	if cfg.Timing {
		now = epoch
	}
	// Closed-loop queue: with depth Q, up to Q requests are outstanding
	// and the next one starts when the earliest completes.
	depth := cfg.QueueDepth
	if depth < 1 {
		depth = 1
	}
	inflight := newMinHeap(depth)
	start := func() float64 {
		if !cfg.Timing {
			return 0
		}
		if inflight.len() < depth {
			return now
		}
		return inflight.popMin()
	}
	finish := func(end float64) {
		if !cfg.Timing {
			return
		}
		inflight.push(end)
		if end > now {
			now = end
		}
	}
	for _, r := range cfg.Trace.Requests {
		lba, nChunks := trace.ChunkSpan(r.Offset, r.Size, ChunkSize)
		if nChunks == 0 {
			continue
		}
		if lba >= logical {
			lba = logical - 1
		}
		if lba+nChunks > logical {
			nChunks = logical - lba
		}
		if nChunks <= 0 {
			continue
		}
		need := nChunks * csize
		switch r.Op {
		case trace.OpWrite:
			if int64(cap(buf)) < need {
				buf = make([]byte, need)
				for off := int64(0); off < need; off += csize {
					copy(buf[off:], payload)
				}
			}
			end, err := b.st.WriteChunks(start(), lba, buf[:need])
			if err != nil {
				return nil, fmt.Errorf("experiments: replay: %w", err)
			}
			finish(end)
			res.Requests++
		case trace.OpRead:
			if !cfg.IncludeReads {
				continue
			}
			if int64(cap(readBuf)) < need {
				readBuf = make([]byte, need)
			}
			end, err := b.st.ReadChunks(start(), lba, readBuf[:need])
			if err != nil {
				return nil, fmt.Errorf("experiments: replay read: %w", err)
			}
			finish(end)
			res.Requests++
			res.ReadRequests++
		}
	}
	if b.eplog != nil {
		if err := b.eplog.Flush(); err != nil {
			return nil, err
		}
		es := b.eplog.Stats()
		if es.LogStripes > 0 {
			res.MeanLogStripeWidth = float64(es.LogStripeMembers) / float64(es.LogStripes)
		}
	}
	if cfg.CommitAtEnd {
		if err := b.st.Commit(); err != nil {
			return nil, err
		}
	}

	if cfg.Timing {
		res.Elapsed = now - epoch
	}
	if cfg.Timing && res.Elapsed > 0 {
		res.KIOPS = float64(res.Requests) / res.Elapsed / 1000
	}
	b.collect(res)
	if b.eplog != nil {
		res.EPLogStats = b.eplog.Stats()
	}
	if cfg.Obs != nil {
		snap := cfg.Obs.Snapshot()
		res.Metrics = &snap
	}
	return res, nil
}

// precondition fills the whole logical space with sequential full-stripe
// writes, the paper's pre-replay conditioning.
func precondition(st store.Store, k int, stripes int64) error {
	csize := int64(ChunkSize)
	fill := randomChunk(1)
	stripeBuf := make([]byte, int64(k)*csize)
	for c := int64(0); c < int64(k); c++ {
		copy(stripeBuf[c*csize:], fill)
	}
	for s := int64(0); s < stripes; s++ {
		if _, err := st.WriteChunks(0, s*int64(k), stripeBuf); err != nil {
			return fmt.Errorf("experiments: precondition stripe %d: %w", s, err)
		}
	}
	return nil
}

// replayWrites replays a trace's writes untimed, clamping to the logical
// space.
func replayWrites(st store.Store, tr *trace.Trace) error {
	csize := int64(ChunkSize)
	logical := st.Chunks()
	payload := randomChunk(2)
	var buf []byte
	for _, r := range tr.Requests {
		if r.Op != trace.OpWrite {
			continue
		}
		lba, nChunks := trace.ChunkSpan(r.Offset, r.Size, ChunkSize)
		if nChunks == 0 {
			continue
		}
		if lba >= logical {
			lba = logical - 1
		}
		if lba+nChunks > logical {
			nChunks = logical - lba
		}
		if nChunks <= 0 {
			continue
		}
		need := nChunks * csize
		if int64(cap(buf)) < need {
			buf = make([]byte, need)
			for off := int64(0); off < need; off += csize {
				copy(buf[off:], payload)
			}
		}
		if _, err := st.WriteChunks(0, lba, buf[:need]); err != nil {
			return fmt.Errorf("experiments: replay: %w", err)
		}
	}
	return nil
}

// newMD builds the conventional-RAID baseline over prepared devices.
func newMD(devs []device.Dev, k int, stripes int64) (store.Store, error) {
	return raid.New(devs, k, stripes)
}

// minHeap is a small float64 min-heap for outstanding-request completion
// times.
type minHeap struct{ a []float64 }

func newMinHeap(capacity int) *minHeap {
	return &minHeap{a: make([]float64, 0, capacity)}
}

func (h *minHeap) len() int { return len(h.a) }

func (h *minHeap) push(v float64) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *minHeap) popMin() float64 {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return v
}

// randomChunk returns a deterministic pseudo-random chunk payload.
func randomChunk(seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	p := make([]byte, ChunkSize)
	r.Read(p)
	return p
}

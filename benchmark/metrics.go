package main

import (
	"strings"
	"time"

	"github.com/eplog/eplog/internal/wire"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; a unit test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, share of the median
}

// endToEnd are the metrics a client or operator of the block service sees,
// measured with harness tracing off. failed_share is the eighth: the
// driver's contract carries it as the result's "failed"/"attempted" counts
// (a metric there must never be 0, and this one must always be).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"ssd_bytes_per_user_byte", "ratio", "lower", 0.03},
	{"log_bytes_per_user_byte", "ratio", "lower", 0.02},
	{"gc_pages_per_user_chunk", "ratio", "lower", 0.05},
	{"rss_peak_mb", "MiB", "lower", 0.10},
}

var perLayer = []metricDef{
	// gf, erasure, bufpool: rungs.
	{name: "gf.muladd6_ns", unit: "ns", better: "lower"},
	{name: "gf.muladd1_ns", unit: "ns", better: "lower"},
	{name: "gf.xor6_ns", unit: "ns", better: "lower"},
	{name: "erasure.encode_6p2_ns", unit: "ns", better: "lower"},
	{name: "erasure.encode_1p2_ns", unit: "ns", better: "lower"},
	{name: "erasure.update_parity_ns", unit: "ns", better: "lower"},
	{name: "erasure.reconstruct1_ns", unit: "ns", better: "lower"},
	{name: "erasure.reconstruct2_ns", unit: "ns", better: "lower"},
	{name: "erasure.encode_allocs", unit: "count", better: "lower"},
	{name: "bufpool.getput_4k_ns", unit: "ns", better: "lower"},
	{name: "bufpool.getput_24k_ns", unit: "ns", better: "lower"},
	// device: counts, traced busy time, rungs.
	{name: "device.ssd_writes_per_op", unit: "ratio", better: "lower"},
	{name: "device.ssd_reads_per_op", unit: "ratio", better: "lower"},
	{name: "device.log_writes_per_op", unit: "ratio", better: "lower"},
	{name: "device.trims_per_op", unit: "ratio", better: "lower"},
	{name: "device.gc_runs_per_kop", unit: "ratio", better: "lower"},
	{name: "device.erases_per_kop", unit: "ratio", better: "lower"},
	{name: "device.hdd_positioned_share", unit: "ratio", better: "lower"},
	{name: "device.ssd_busy_us_per_op", unit: "us", better: "lower"},
	{name: "device.log_busy_us_per_op", unit: "us", better: "lower"},
	{name: "device.ssd_write_p99_us", unit: "us", better: "lower"},
	{name: "device.ssd_write_ns", unit: "ns", better: "lower"},
	{name: "device.ssd_read_ns", unit: "ns", better: "lower"},
	{name: "device.hdd_append_ns", unit: "ns", better: "lower"},
	{name: "device.mem_write_ns", unit: "ns", better: "lower"},
	// core.
	{name: "core.shard_locks_per_write", unit: "ratio", better: "lower"},
	{name: "core.read_locks_per_read", unit: "ratio", better: "lower"},
	{name: "core.read_locked_group_share", unit: "ratio", better: "lower"},
	{name: "core.degraded_reads_per_read", unit: "ratio", better: "lower"},
	{name: "core.log_stripe_width", unit: "ratio", better: "higher"},
	{name: "core.commits_per_kop", unit: "ratio", better: "lower"},
	{name: "core.commit_read_chunks_per_commit", unit: "ratio", better: "lower"},
	{name: "core.commit_write_chunks_per_commit", unit: "ratio", better: "lower"},
	{name: "core.window_commit_share", unit: "ratio", better: "lower"},
	{name: "core.lock_wait_us_per_op", unit: "us", better: "lower"},
	{name: "core.lock_hold_us_per_op", unit: "us", better: "lower"},
	{name: "core.write_batch_us_per_op", unit: "us", better: "lower"},
	{name: "core.read_batch_us_per_op", unit: "us", better: "lower"},
	{name: "core.ops_per_write_batch", unit: "ratio", better: "higher"},
	{name: "core.ops_per_read_batch", unit: "ratio", better: "higher"},
	{name: "core.commit_call_us_per_kop", unit: "us", better: "lower"},
	{name: "core.update_ns", unit: "ns", better: "lower"},
	{name: "core.stripe_update_ns", unit: "ns", better: "lower"},
	{name: "core.direct_stripe_ns", unit: "ns", better: "lower"},
	{name: "core.read_ns", unit: "ns", better: "lower"},
	{name: "core.read_degraded_ns", unit: "ns", better: "lower"},
	{name: "core.write_batch64_ns_per_op", unit: "ns", better: "lower"},
	{name: "core.read_batch64_ns_per_op", unit: "ns", better: "lower"},
	{name: "core.commit_ns_per_stripe", unit: "ns", better: "lower"},
	{name: "core.update_allocs", unit: "count", better: "lower"},
	{name: "core.read_allocs", unit: "count", better: "lower"},
	{name: "core.write_batch64_allocs_per_op", unit: "count", better: "lower"},
	{name: "core.read_batch64_allocs_per_op", unit: "count", better: "lower"},
	{name: "core.update_locks", unit: "count", better: "lower"},
	{name: "core.read_locks", unit: "count", better: "lower"},
	// wire: rungs.
	{name: "wire.encode_write_4k_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_write_4k_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_write_24k_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_read_resp_4k_ns", unit: "ns", better: "lower"},
	{name: "wire.header_append_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_allocs_per_frame", unit: "count", better: "lower"},
	// server.
	{name: "server.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "server.ctx_switches_per_op", unit: "ratio", better: "lower"},
	{name: "server.heap_allocs_per_op", unit: "ratio", better: "lower"},
	{name: "server.gc_cycles", unit: "count", better: "lower"},
	{name: "server.ops_per_write_batch", unit: "ratio", better: "higher"},
	{name: "server.ops_per_read_batch", unit: "ratio", better: "higher"},
	{name: "server.writev_per_response", unit: "ratio", better: "lower"},
	{name: "server.gate_waits_per_kop", unit: "ratio", better: "lower"},
	{name: "server.forced_folds_per_kop", unit: "ratio", better: "lower"},
	{name: "server.op_errors", unit: "count", better: "lower"},
	{name: "server.bad_requests", unit: "count", better: "lower"},
	{name: "server.gate_closed_share", unit: "ratio", better: "lower"},
	{name: "server.write_inflight_mean", unit: "count", better: "lower"},
	{name: "server.read_inflight_mean", unit: "count", better: "lower"},
	{name: "server.stat_rtt_p50_us", unit: "us", better: "lower"},
	// obs.
	{name: "obs.update_overhead_share", unit: "ratio", better: "lower"},
	{name: "obs.read_overhead_share", unit: "ratio", better: "lower"},
	{name: "obs.harness_trace_overhead_share", unit: "ratio", better: "lower"},
	// client: the harness's own diagnostics.
	{name: "client.p50_us", unit: "us", better: "lower"},
	{name: "client.p999_us", unit: "us", better: "lower"},
	{name: "client.read_p50_us", unit: "us", better: "lower"},
	{name: "client.read_p99_us", unit: "us", better: "lower"},
	{name: "client.write_p50_us", unit: "us", better: "lower"},
	{name: "client.write_p99_us", unit: "us", better: "lower"},
	{name: "client.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "client.precondition_stripes_per_s", unit: "1/s", better: "higher"},
	{name: "client.verify_mismatches", unit: "count", better: "lower"},
	{name: "client.failed_share", unit: "ratio", better: "lower"},
	{name: "client.open_rate", unit: "1/s", better: "higher"},
	{name: "client.open_p50_us", unit: "us", better: "lower"},
	{name: "client.open_p99_us", unit: "us", better: "lower"},
	{name: "client.open_backlog_max", unit: "count", better: "lower"},
	{name: "client.gen_late_p99_us", unit: "us", better: "lower"},
}

// ratio is a/b, and 0 when the workload gives the metric no base (a share
// of reads on a workload without reads).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// delta reads counter and histogram differences between two snapshots.
type delta struct{ a, b *childSnap }

// named matches metric names of the form prefix+<anything>+suffix, which
// is how the per-device and per-shard families are spelled.
func named(name, prefix, suffix string) bool {
	return len(name) >= len(prefix)+len(suffix) && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix)
}

// counter sums the growth of every counter named prefix+<anything>+suffix.
func (d delta) counter(prefix, suffix string) float64 {
	var sum int64
	for name, v := range d.b.Obs.Counters {
		if named(name, prefix, suffix) {
			sum += v - d.a.Obs.Counters[name]
		}
	}
	return float64(sum)
}

// histSum sums the growth of the matching histograms' sums.
func (d delta) histSum(prefix, suffix string) float64 {
	var sum float64
	for name, h := range d.b.Obs.Histograms {
		if named(name, prefix, suffix) {
			sum += h.Sum - d.a.Obs.Histograms[name].Sum
		}
	}
	return sum
}

func (d delta) reads() float64  { return d.counter("net.ops.read", "") }
func (d delta) writes() float64 { return d.counter("net.ops.write", "") }
func (d delta) ops() float64    { return d.reads() + d.writes() }

// userBytes is the WRITE payload the server took in: READ, FLUSH and STAT
// requests are bare headers.
func (d delta) userBytes() float64 {
	return d.counter("net.bytes_in", "") - wire.HeaderSize*d.counter("net.frames_in", "")
}

// endToEndMetrics derives the end-to-end metrics of one untraced run.
func endToEndMetrics(r *runResult) map[string]float64 {
	d := delta{&r.before, &r.after}
	user := d.userBytes()
	// The median second of the window: a neighbour's burst on a shared
	// host costs a few slices, not the run's number.
	rates, p99s := r.closed.perSecond(r.windowStart, r.window)
	return map[string]float64{
		"setup_s":                 median(r.setupS),
		"ops_per_s":               median(rates),
		"p99_us":                  median(p99s),
		"ssd_bytes_per_user_byte": ratio(d.counter("dev.main", ".write_bytes"), user),
		"log_bytes_per_user_byte": ratio(d.counter("dev.log", ".write_bytes"), user),
		"gc_pages_per_user_chunk": ratio(d.counter("ssd.", ".pages_moved"), user/chunkSize),
		"rss_peak_mb":             float64(r.end.Proc.VmHWMKiB) / 1024,
	}
}

// counterMetrics derives the per-layer metrics that come from counters the
// program already exports, over an untraced run's closed-loop window.
func counterMetrics(r *runResult, m map[string]float64) {
	d := delta{&r.before, &r.after}
	ops, reads, writes := d.ops(), d.reads(), d.writes()
	st0, st1 := r.before.Stats, r.after.Stats

	m["device.ssd_writes_per_op"] = ratio(d.counter("dev.main", ".write_ops"), ops)
	m["device.ssd_reads_per_op"] = ratio(d.counter("dev.main", ".read_ops"), ops)
	m["device.log_writes_per_op"] = ratio(d.counter("dev.log", ".write_ops"), ops)
	m["device.trims_per_op"] = ratio(d.counter("dev.main", ".trim_ops"), ops)
	m["device.gc_runs_per_kop"] = 1e3 * ratio(d.counter("ssd.", ".gc_runs"), ops)
	m["device.erases_per_kop"] = 1e3 * ratio(d.counter("ssd.", ".erases"), ops)
	positioned := d.counter("hdd.", ".positioned_ops")
	m["device.hdd_positioned_share"] = ratio(positioned, positioned+d.counter("hdd.", ".streamed_ops"))

	m["core.shard_locks_per_write"] = ratio(float64(r.after.ShardLocks-r.before.ShardLocks), writes)
	m["core.read_locks_per_read"] = ratio(float64(r.after.ReadLocks-r.before.ReadLocks), reads)
	m["core.read_locked_group_share"] = ratio(d.counter("core.read_batch_locked_groups", ""), d.counter("core.read_batches", ""))
	m["core.degraded_reads_per_read"] = ratio(d.counter("core.degraded_reads", ""), reads)
	m["core.log_stripe_width"] = ratio(float64(st1.LogStripeMembers-st0.LogStripeMembers), float64(st1.LogStripes-st0.LogStripes))
	commits := float64(st1.Commits - st0.Commits)
	m["core.commits_per_kop"] = 1e3 * ratio(commits, ops)
	m["core.commit_read_chunks_per_commit"] = ratio(float64(st1.CommitReadChunks-st0.CommitReadChunks), commits)
	m["core.commit_write_chunks_per_commit"] = ratio(float64(st1.CommitWriteChunks-st0.CommitWriteChunks), commits)
	var triggers float64 // every cause: core.shard<i>.commit_trigger.<cause>
	for name, v := range r.after.Obs.Counters {
		if strings.HasPrefix(name, "core.shard") && strings.Contains(name, ".commit_trigger.") {
			triggers += float64(v - r.before.Obs.Counters[name])
		}
	}
	m["core.window_commit_share"] = ratio(d.counter("core.shard", ".commit_trigger.window"), triggers)
	m["core.lock_wait_us_per_op"] = 1e6 * ratio(d.histSum("core.shard", ".lock_wait_seconds"), ops)
	m["core.lock_hold_us_per_op"] = 1e6 * ratio(d.histSum("core.shard", ".lock_hold_seconds"), ops)

	m["server.cpu_us_per_op"] = 1e6 * ratio(r.after.Proc.CPUSeconds-r.before.Proc.CPUSeconds, ops)
	m["server.ctx_switches_per_op"] = ratio(float64(r.after.Proc.CtxSwitches-r.before.Proc.CtxSwitches), ops)
	m["server.heap_allocs_per_op"] = ratio(float64(r.after.Mallocs-r.before.Mallocs), ops)
	m["server.gc_cycles"] = float64(r.after.NumGC - r.before.NumGC)
	m["server.ops_per_write_batch"] = ratio(d.histSum("net.batch_ops", ""), d.counter("net.batches", ""))
	m["server.ops_per_read_batch"] = ratio(d.histSum("net.read_batch_ops", ""), d.counter("net.read_batches", ""))
	m["server.writev_per_response"] = ratio(d.counter("net.writev_calls", ""), d.counter("net.frames_out", ""))
	m["server.gate_waits_per_kop"] = 1e3 * ratio(d.counter("net.gate_waits", ""), ops)
	m["server.forced_folds_per_kop"] = 1e3 * ratio(d.counter("net.forced_folds", ""), ops)
	m["server.op_errors"] = d.counter("net.op_errors", "")
	m["server.bad_requests"] = d.counter("net.bad_requests", "")
}

// clientMetrics derives the harness's own diagnostics of an untraced run.
func clientMetrics(r *runResult, m map[string]float64) {
	c := &r.closed
	all := c.all()
	m["client.p50_us"] = us(percentile(all, 0.50))
	m["client.p999_us"] = us(percentile(all, 0.999))
	reads, writes := latencies(c.reads), latencies(c.writes)
	m["client.read_p50_us"] = us(percentile(reads, 0.50))
	m["client.read_p99_us"] = us(percentile(reads, 0.99))
	m["client.write_p50_us"] = us(percentile(writes, 0.50))
	m["client.write_p99_us"] = us(percentile(writes, 0.99))
	m["client.cpu_us_per_op"] = 1e6 * ratio(r.clientCPU, float64(len(all)))
	m["client.precondition_stripes_per_s"] = r.precondRate
	m["client.verify_mismatches"] = float64(r.verifyMismatches)
	m["client.failed_share"] = ratio(float64(r.failed), float64(r.attempted))
	m["server.stat_rtt_p50_us"] = us(percentile(r.statRTT, 0.50))

	o := &r.open
	oall := o.all()
	m["client.open_rate"] = ratio(float64(len(oall)), r.openDur.Seconds())
	m["client.open_p50_us"] = us(percentile(oall, 0.50))
	m["client.open_p99_us"] = us(percentile(oall, 0.99))
	m["client.open_backlog_max"] = float64(o.backlogMax)
	m["client.gen_late_p99_us"] = us(percentile(o.late, 0.99))
}

// tracedMetrics derives the per-layer metrics of the traced run from the
// harness-owned wrappers, and the tracing overhead against the untraced
// run of the same workload and seed.
func tracedMetrics(untraced, traced *runResult, m map[string]float64) {
	d := delta{&traced.before, &traced.after}
	ops := d.ops()
	t0, t1 := traced.before.Trace, traced.after.Trace
	ssd, log := t1.SSD.sub(t0.SSD), t1.Log.sub(t0.Log)
	wb, rb := t1.WriteBatch.sub(t0.WriteBatch), t1.ReadBatch.sub(t0.ReadBatch)
	cc := t1.CommitCalls.sub(t0.CommitCalls)
	m["device.ssd_busy_us_per_op"] = ratio(float64(ssd.BusyNs)/1e3, ops)
	m["device.log_busy_us_per_op"] = ratio(float64(log.BusyNs)/1e3, ops)
	m["device.ssd_write_p99_us"] = us(histQuantile(t0.SSDWrite, t1.SSDWrite, 0.99))
	m["core.write_batch_us_per_op"] = ratio(float64(wb.BusyNs)/1e3, float64(wb.Ops))
	m["core.read_batch_us_per_op"] = ratio(float64(rb.BusyNs)/1e3, float64(rb.Ops))
	m["core.ops_per_write_batch"] = ratio(float64(wb.Ops), float64(wb.Calls))
	m["core.ops_per_read_batch"] = ratio(float64(rb.Ops), float64(rb.Calls))
	m["core.commit_call_us_per_kop"] = 1e3 * ratio(float64(cc.BusyNs)/1e3, ops)
	samples := float64(t1.Samples - t0.Samples)
	m["server.gate_closed_share"] = ratio(float64(t1.GateClosed-t0.GateClosed), samples)
	m["server.write_inflight_mean"] = ratio(float64(t1.WriteInflight-t0.WriteInflight), samples)
	m["server.read_inflight_mean"] = ratio(float64(t1.ReadInflight-t0.ReadInflight), samples)

	rate := func(r *runResult) float64 {
		return ratio(float64(len(r.closed.reads)+len(r.closed.writes)), r.window.Seconds())
	}
	m["obs.harness_trace_overhead_share"] = ratio(rate(untraced)-rate(traced), rate(untraced))
}

// runResult is everything one run of one workload against one child
// produced.
type runResult struct {
	setupS      []float64 // one per set-up made
	precondRate float64   // stripes/s over the wire during set-up
	statRTT     []int64   // STAT round trips at depth 1, sorted, ns

	windowStart   time.Time
	window        time.Duration // measured closed-loop window
	closed        tally
	before, after childSnap // around the closed-loop window
	clientCPU     float64   // harness CPU seconds over the window

	openDur time.Duration
	open    tally

	verifyChunks, verifyMismatches int64
	end                            childSnap // after read-back: peak RSS

	attempted, failed int64 // over the whole run
	faults            string
}

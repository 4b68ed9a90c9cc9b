// Benchmarks regenerating each table and figure of the paper's evaluation
// (Section V and Figure 6) at a reduced scale, plus ablations of the design
// choices called out in DESIGN.md and wall-clock microbenchmarks of the
// three schemes' write paths. Custom metrics carry the experiment outputs:
// e.g. BenchmarkExp1 reports EPLog's write reduction versus MD as
// "reduction-pct". For full paper-style tables, run cmd/eplogbench.
package eplog_test

import (
	"math/rand"
	"testing"

	"github.com/eplog/eplog"
	"github.com/eplog/eplog/internal/experiments"
	"github.com/eplog/eplog/internal/reliability"
	"github.com/eplog/eplog/internal/ssd"
	"github.com/eplog/eplog/internal/trace"
)

// benchScale trades fidelity for benchmark runtime; cmd/eplogbench runs
// the same drivers at larger scales.
const benchScale = 512

func BenchmarkFig6_MTTDL(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		p := reliability.Params{
			N: 10, M: 2, LambdaSSD: 0.25, Alpha: 0.5,
			LambdaHDD: 0.25, MuSSD: 1e4, MuHDD: 1e4,
		}
		ep, err := reliability.EPLogMTTDL(p)
		if err != nil {
			b.Fatal(err)
		}
		conv, err := reliability.ConventionalMTTDL(p)
		if err != nil {
			b.Fatal(err)
		}
		gain = ep / conv
	}
	b.ReportMetric(gain, "mttdl-gain-x")
}

func BenchmarkTableI_TraceGen(b *testing.B) {
	var writes int64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		writes = rows[0].Stats.Writes
	}
	b.ReportMetric(float64(writes), "fin-writes")
}

// exp1Reduction runs one (6+2) FIN replay pair and returns EPLog's write
// reduction versus MD in percent.
func exp1Pair(b *testing.B, scheme experiments.Scheme) int64 {
	b.Helper()
	p, err := trace.LookupProfile("FIN")
	if err != nil {
		b.Fatal(err)
	}
	tr := p.Scaled(benchScale).Generate(experiments.ChunkSize)
	res, err := experiments.Run(experiments.RunConfig{
		Setting: experiments.DefaultSetting(), Scheme: scheme, Trace: tr,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.SSDWriteBytes
}

func BenchmarkExp1_WriteTraffic(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		md := exp1Pair(b, experiments.MD)
		ep := exp1Pair(b, experiments.EPLog)
		reduction = (1 - float64(ep)/float64(md)) * 100
	}
	b.ReportMetric(reduction, "reduction-pct")
}

func BenchmarkExp2_GC(b *testing.B) {
	var mdGC, epGC float64
	for i := 0; i < b.N; i++ {
		p, err := trace.LookupProfile("FIN")
		if err != nil {
			b.Fatal(err)
		}
		tr := p.Scaled(benchScale).Generate(experiments.ChunkSize)
		for _, s := range []experiments.Scheme{experiments.MD, experiments.EPLog} {
			res, err := experiments.Run(experiments.RunConfig{
				Setting: experiments.DefaultSetting(), Scheme: s, Trace: tr,
				UseSSDSim: true, UpdateHeadroom: 0.5, TrimOnCommit: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if s == experiments.MD {
				mdGC = res.GCPerSSD
			} else {
				epGC = res.GCPerSSD
			}
		}
	}
	b.ReportMetric(mdGC, "md-gc/ssd")
	b.ReportMetric(epGC, "eplog-gc/ssd")
}

func BenchmarkExp3_Caching(b *testing.B) {
	var logReduction float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Exp3Caching(benchScale, []int{0, 64})
		if err != nil {
			b.Fatal(err)
		}
		logReduction = (1 - float64(rows[1].LogBytes)/float64(rows[0].LogBytes)) * 100
	}
	b.ReportMetric(logReduction, "fin-log-reduction-pct")
}

func BenchmarkExp4_Commit(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		p, err := trace.LookupProfile("FIN")
		if err != nil {
			b.Fatal(err)
		}
		tr := p.Scaled(benchScale).Generate(experiments.ChunkSize)
		var none, end int64
		for _, commitEnd := range []bool{false, true} {
			res, err := experiments.Run(experiments.RunConfig{
				Setting: experiments.DefaultSetting(), Scheme: experiments.EPLog,
				Trace: tr, CommitAtEnd: commitEnd,
			})
			if err != nil {
				b.Fatal(err)
			}
			if commitEnd {
				end = res.SSDWriteBytes
			} else {
				none = res.SSDWriteBytes
			}
		}
		overhead = (float64(end)/float64(none) - 1) * 100
	}
	b.ReportMetric(overhead, "commit-end-overhead-pct")
}

func BenchmarkExp5_Throughput(b *testing.B) {
	var mdK, plK, epK float64
	for i := 0; i < b.N; i++ {
		p, err := trace.LookupProfile("FIN")
		if err != nil {
			b.Fatal(err)
		}
		tr := p.Scaled(benchScale).Generate(experiments.ChunkSize)
		for _, s := range []experiments.Scheme{experiments.MD, experiments.PL, experiments.EPLog} {
			res, err := experiments.Run(experiments.RunConfig{
				Setting: experiments.DefaultSetting(), Scheme: s, Trace: tr,
				UseSSDSim: true, Timing: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			switch s {
			case experiments.MD:
				mdK = res.KIOPS
			case experiments.PL:
				plK = res.KIOPS
			case experiments.EPLog:
				epK = res.KIOPS
			}
		}
	}
	b.ReportMetric(mdK, "md-kiops")
	b.ReportMetric(plK, "pl-kiops")
	b.ReportMetric(epK, "eplog-kiops")
}

func BenchmarkExp6_Metadata(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exp6Metadata(128)
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.CreateOverheadPct()
	}
	b.ReportMetric(overhead, "full-chkpt-overhead-pct")
}

// BenchmarkAblation_Trim quantifies the TRIM-on-commit extension: flash
// pages moved by GC with and without TRIM under space pressure.
func BenchmarkAblation_Trim(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		p, err := trace.LookupProfile("FIN")
		if err != nil {
			b.Fatal(err)
		}
		tr := p.Scaled(benchScale).Generate(experiments.ChunkSize)
		for _, trim := range []bool{false, true} {
			res, err := experiments.Run(experiments.RunConfig{
				Setting: experiments.DefaultSetting(), Scheme: experiments.EPLog,
				Trace: tr, UseSSDSim: true, UpdateHeadroom: 0.35, TrimOnCommit: trim,
			})
			if err != nil {
				b.Fatal(err)
			}
			if trim {
				with = res.PagesMovedPerSSD
			} else {
				without = res.PagesMovedPerSSD
			}
		}
	}
	b.ReportMetric(without, "moved-no-trim")
	b.ReportMetric(with, "moved-trim")
}

// BenchmarkAblation_ElasticVsPerStripe compares log-chunk volume between
// elastic logging (EPLog) and per-stripe logging (PL) on the same trace:
// the paper reports EPLog writes 8-15% fewer log chunks.
func BenchmarkAblation_ElasticVsPerStripe(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		p, err := trace.LookupProfile("FIN")
		if err != nil {
			b.Fatal(err)
		}
		tr := p.Scaled(benchScale).Generate(experiments.ChunkSize)
		var pl, ep int64
		for _, s := range []experiments.Scheme{experiments.PL, experiments.EPLog} {
			res, err := experiments.Run(experiments.RunConfig{
				Setting: experiments.DefaultSetting(), Scheme: s, Trace: tr,
			})
			if err != nil {
				b.Fatal(err)
			}
			if s == experiments.PL {
				pl = res.LogWriteBytes
			} else {
				ep = res.LogWriteBytes
			}
		}
		saving = (1 - float64(ep)/float64(pl)) * 100
	}
	b.ReportMetric(saving, "log-saving-pct")
}

// Wall-clock write-path microbenchmarks of the three schemes on RAM
// devices: the CPU cost per 4KB update.

// benchLogChunks sizes the benchmarks' log devices from their workload:
// eight log slots per stripe (32 MiB per device at 1024 stripes) outlasts
// the SSDs' update headroom between commits, and both logging schemes fold
// their log when it fills, so any b.N runs.
const benchLogChunks = 1024 * 8

func benchDevices(n int, chunks int64) []eplog.BlockDevice {
	devs := make([]eplog.BlockDevice, n)
	for i := range devs {
		devs[i] = eplog.NewMemDevice(chunks, 4096)
	}
	return devs
}

func BenchmarkWritePath_EPLog(b *testing.B) {
	a, err := eplog.New(benchDevices(8, 4096),
		benchDevices(2, benchLogChunks),
		eplog.Config{K: 6, Stripes: 1024})
	if err != nil {
		b.Fatal(err)
	}
	benchWrites(b, a)
}

func BenchmarkWritePath_RAID(b *testing.B) {
	a, err := eplog.NewRAID(benchDevices(8, 1024), 6, 1024)
	if err != nil {
		b.Fatal(err)
	}
	benchWrites(b, a)
}

func BenchmarkWritePath_PL(b *testing.B) {
	a, err := eplog.NewParityLog(benchDevices(8, 1024),
		benchDevices(2, benchLogChunks),
		6, 1024)
	if err != nil {
		b.Fatal(err)
	}
	benchWrites(b, a)
}

func benchWrites(b *testing.B, s eplog.Store) {
	b.Helper()
	data := make([]byte, s.Chunks()*int64(s.ChunkSize()))
	rand.New(rand.NewSource(1)).Read(data[:4096])
	if err := s.Write(0, data); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	buf := data[:4096]
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(int64(r.Intn(int(s.Chunks()))), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_HotColdGrouping compares device-buffer absorption with
// FIFO versus coldest-first eviction on the FIN workload. Note the
// direction: under FIN's recency-driven reuse FIFO wins (recently inserted
// chunks are the likeliest to be re-hit), whereas under statically skewed
// hotness coldest-first wins (see TestHotColdGroupingKeepsHotChunks) —
// which is why the paper's suggested hot/cold grouping is an option, not a
// default.
func BenchmarkAblation_HotColdGrouping(b *testing.B) {
	var fifo, hotcold int64
	for i := 0; i < b.N; i++ {
		p, err := trace.LookupProfile("FIN")
		if err != nil {
			b.Fatal(err)
		}
		tr := p.Scaled(benchScale).Generate(experiments.ChunkSize)
		for _, hc := range []bool{false, true} {
			res, err := experiments.Run(experiments.RunConfig{
				Setting: experiments.DefaultSetting(), Scheme: experiments.EPLog,
				Trace: tr, DeviceBufferChunks: 16, HotColdGrouping: hc,
			})
			if err != nil {
				b.Fatal(err)
			}
			if hc {
				hotcold = res.SSDWriteBytes
			} else {
				fifo = res.SSDWriteBytes
			}
		}
	}
	b.ReportMetric(float64(fifo)/1e6, "fifo-write-MB")
	b.ReportMetric(float64(hotcold)/1e6, "hotcold-write-MB")
}

// BenchmarkAblation_WearLeveling measures the erase-count spread of a
// skewed workload with static wear leveling off and on.
func BenchmarkAblation_WearLeveling(b *testing.B) {
	var spreadOff, spreadOn float64
	for i := 0; i < b.N; i++ {
		for _, threshold := range []int{0, 8} {
			params := ssd.DefaultParams(8 << 20)
			params.WearLevelThreshold = threshold
			d, err := ssd.New(params)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, params.PageSize)
			n := int(d.Chunks())
			for c := 0; c < n; c++ {
				if err := d.WriteChunk(int64(c), buf); err != nil {
					b.Fatal(err)
				}
			}
			for w := 0; w < 10*n; w++ {
				if err := d.WriteChunk(int64(w%64), buf); err != nil {
					b.Fatal(err)
				}
			}
			if threshold == 0 {
				spreadOff = float64(d.EraseSpread())
			} else {
				spreadOn = float64(d.EraseSpread())
			}
		}
	}
	b.ReportMetric(spreadOff, "spread-no-wl")
	b.ReportMetric(spreadOn, "spread-wl")
}

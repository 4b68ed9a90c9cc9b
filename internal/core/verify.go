package core

import (
	"fmt"

	"github.com/eplog/eplog/internal/bufpool"
	"github.com/eplog/eplog/internal/device"
)

// VerifyReport summarizes a consistency scrub.
type VerifyReport struct {
	// DataStripes and LogStripes count the stripes checked.
	DataStripes int64
	LogStripes  int64
	// BadDataStripes and BadLogStripes list stripes whose redundancy did
	// not match their contents.
	BadDataStripes []int64
	BadLogStripes  []int64
}

// OK reports whether the scrub found no inconsistencies.
func (r *VerifyReport) OK() bool {
	return len(r.BadDataStripes) == 0 && len(r.BadLogStripes) == 0
}

// Verify scrubs the array: every non-virgin data stripe's parity is checked
// against the committed contents of its data chunks, and every pending log
// stripe's log chunks are checked against its member versions. Buffered
// (RAM-only) writes are not covered; call Flush first to include them.
// Verify reads log devices (for the log-chunk comparison) but modifies
// nothing.
func (e *EPLog) Verify() (*VerifyReport, error) {
	// Whole-array operation: stop the world by taking every shard lock.
	e.lockAll()
	defer e.unlockAll()
	report := &VerifyReport{}
	span := device.NewSpan(0)
	k, m := e.geo.K, e.geo.M()
	code, err := e.code(k)
	if err != nil {
		return nil, err
	}

	// One arena-backed shard table serves the whole scrub: every stripe
	// reads fully overwrite the buffers, and log stripes (k' <= n members)
	// never need more headers than a data stripe has devices.
	devs := e.devs()
	table := make([][]byte, 0, e.geo.N+m)
	table = bufpool.Default.GetSlices(table[:e.geo.N+m], e.csize)
	defer bufpool.Default.PutSlices(table)

	for s := int64(0); s < e.geo.Stripes; s++ {
		if e.virgin[s] {
			continue
		}
		report.DataStripes++
		shards := table[:k+m]
		for j := 0; j < k; j++ {
			loc := e.loadComm(e.geo.LBA(s, j))
			if err := span.Read(devs[loc.Dev], loc.Chunk, shards[j]); err != nil {
				return nil, fmt.Errorf("core: verify stripe %d slot %d: %w", s, j, err)
			}
		}
		for i := 0; i < m; i++ {
			if err := span.Read(devs[e.geo.ParityDev(s, i)], e.geo.HomeChunk(s), shards[k+i]); err != nil {
				return nil, fmt.Errorf("core: verify stripe %d parity %d: %w", s, i, err)
			}
		}
		ok, err := code.Verify(shards)
		if err != nil {
			return nil, err
		}
		if !ok {
			report.BadDataStripes = append(report.BadDataStripes, s)
		}
	}

	for _, sh := range e.shards {
		for id, ls := range sh.logStripes {
			report.LogStripes++
			kPrime := len(ls.members)
			lcode, err := e.code(kPrime)
			if err != nil {
				return nil, err
			}
			shards := table[:kPrime+m]
			for i, mb := range ls.members {
				if err := span.Read(devs[mb.loc.Dev], mb.loc.Chunk, shards[i]); err != nil {
					return nil, fmt.Errorf("core: verify log stripe %d member %d: %w", id, i, err)
				}
			}
			for i := 0; i < m; i++ {
				if err := span.Read(e.logDevs[i], ls.logPos, shards[kPrime+i]); err != nil {
					return nil, fmt.Errorf("core: verify log stripe %d log chunk %d: %w", id, i, err)
				}
			}
			ok, err := lcode.Verify(shards)
			if err != nil {
				return nil, err
			}
			if !ok {
				report.BadLogStripes = append(report.BadLogStripes, id)
			}
		}
	}
	return report, nil
}

package core

import (
	"fmt"
	"sort"

	"github.com/eplog/eplog/internal/device"
	"github.com/eplog/eplog/internal/metadata"
)

// Snapshot captures the complete metadata state as a full-checkpoint
// payload and clears the dirty-metadata tracking. It is a whole-array
// operation: every shard lock is held for the duration.
//
// The snapshot format is shard-agnostic (one flat metadata image), so a
// snapshot taken at one shard count can be restored at another: NextLogID
// is the highest unissued ID across shards and LogCursor the total count
// of pending log chunks; Restore re-derives per-shard cursors and ID
// strides from the log-stripe records themselves.
func (e *EPLog) Snapshot() *metadata.Snapshot {
	e.lockAll()
	defer e.unlockAll()
	s := &metadata.Snapshot{
		K:         int32(e.geo.K),
		N:         int32(e.geo.N),
		Stripes:   e.geo.Stripes,
		ChunkSize: int32(e.csize),
		NextLogID: e.maxNextLogID(),
		LogCursor: e.pendingLogChunksLocked(),
	}
	s.StripeRecs = make([]metadata.StripeRecord, 0, e.geo.Stripes)
	for st := int64(0); st < e.geo.Stripes; st++ {
		s.StripeRecs = append(s.StripeRecs, e.stripeRecord(st))
	}
	s.LogStripes = e.logStripeRecords()
	for _, sh := range e.shards {
		clear(sh.metaDirty)
	}
	return s
}

// DirtyDelta captures the metadata dirtied since the last Snapshot or
// DirtyDelta call as an incremental-checkpoint payload, then clears the
// tracking.
func (e *EPLog) DirtyDelta() *metadata.Delta {
	e.lockAll()
	defer e.unlockAll()
	d := &metadata.Delta{NextLogID: e.maxNextLogID(), LogCursor: e.pendingLogChunksLocked()}
	var stripes []int64
	for _, sh := range e.shards {
		for s := range sh.metaDirty {
			stripes = append(stripes, s)
		}
	}
	sort.Slice(stripes, func(i, j int) bool { return stripes[i] < stripes[j] })
	for _, s := range stripes {
		d.StripeRecs = append(d.StripeRecs, e.stripeRecord(s))
	}
	d.LogStripes = e.logStripeRecords()
	for _, sh := range e.shards {
		clear(sh.metaDirty)
	}
	return d
}

// maxNextLogID returns the highest unissued log-stripe ID across shards —
// the shard-agnostic high-water mark recorded in checkpoints. All shard
// locks must be held. With one shard it is exactly that shard's counter.
func (e *EPLog) maxNextLogID() int64 {
	id := int64(0)
	for _, sh := range e.shards {
		id = max(id, sh.nextLogID)
	}
	return id
}

// pendingLogChunksLocked counts pending log positions across shards with
// all shard locks held. With one shard it is exactly the shard's cursor.
func (e *EPLog) pendingLogChunksLocked() int64 {
	var n int64
	for _, sh := range e.shards {
		n += sh.logCursor - sh.logStart
	}
	return n
}

func (e *EPLog) stripeRecord(stripe int64) metadata.StripeRecord {
	k := e.geo.K
	rec := metadata.StripeRecord{
		Stripe:    stripe,
		Latest:    make([]metadata.Loc, k),
		Prot:      make([]int64, k),
		Committed: make([]metadata.Loc, k),
		Virgin:    e.virgin[stripe],
	}
	_, rec.Dirty = e.shardOf(stripe).dirty[stripe]
	for j := 0; j < k; j++ {
		lba := e.geo.LBA(stripe, j)
		latest := e.loadLatest(lba)
		rec.Latest[j] = metadata.Loc{Dev: int32(latest.Dev), Chunk: latest.Chunk}
		comm := e.loadComm(lba)
		rec.Prot[j] = e.loadProt(lba)
		rec.Committed[j] = metadata.Loc{Dev: int32(comm.Dev), Chunk: comm.Chunk}
	}
	return rec
}

func (e *EPLog) logStripeRecords() []metadata.LogStripeRecord {
	var ids []int64
	byID := make(map[int64]*logStripe)
	for _, sh := range e.shards {
		for id, ls := range sh.logStripes {
			ids = append(ids, id)
			byID[id] = ls
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	recs := make([]metadata.LogStripeRecord, 0, len(ids))
	for _, id := range ids {
		ls := byID[id]
		rec := metadata.LogStripeRecord{ID: ls.id, LogPos: ls.logPos}
		for _, mb := range ls.members {
			rec.Members = append(rec.Members, metadata.Member{
				LBA: mb.lba,
				Loc: metadata.Loc{Dev: int32(mb.loc.Dev), Chunk: mb.loc.Chunk},
			})
		}
		recs = append(recs, rec)
	}
	return recs
}

// Restore rebuilds an EPLog array from a metadata snapshot over the given
// devices, reconstructing the location maps, log-stripe set, and per-device
// allocators. Buffer contents are not part of persistent metadata (they
// are RAM), so cfg's buffer settings start empty.
//
// The shard count of the restored engine comes from cfg and need not match
// the engine that took the snapshot: stripe state and log stripes are
// distributed to their owning shards, and per-shard cursors and ID strides
// are re-derived. Two constraints apply when restoring pending log stripes
// into a different shard layout — every log stripe's members must map to a
// single shard (they do for any snapshot this engine writes, because
// grouping is per-shard; single-shard snapshots satisfy it trivially only
// when restored with Shards=1), and its log position must fall inside the
// owning shard's log region. A snapshot taken after Commit (no pending log
// stripes) restores at any shard count.
func Restore(devs, logDevs []device.Dev, cfg Config, snap *metadata.Snapshot) (*EPLog, error) {
	if snap.K != int32(cfg.K) || snap.Stripes != cfg.Stripes {
		return nil, fmt.Errorf("core: snapshot geometry k=%d stripes=%d does not match config k=%d stripes=%d",
			snap.K, snap.Stripes, cfg.K, cfg.Stripes)
	}
	if int(snap.N) != len(devs) {
		return nil, fmt.Errorf("core: snapshot has %d devices, got %d", snap.N, len(devs))
	}
	e, err := New(devs, logDevs, cfg)
	if err != nil {
		return nil, err
	}
	if int32(e.csize) != snap.ChunkSize {
		return nil, fmt.Errorf("core: snapshot chunk size %d != device chunk size %d", snap.ChunkSize, e.csize)
	}

	for _, rec := range snap.StripeRecs {
		if rec.Stripe < 0 || rec.Stripe >= cfg.Stripes || len(rec.Latest) != cfg.K ||
			len(rec.Prot) != cfg.K || len(rec.Committed) != cfg.K {
			return nil, fmt.Errorf("core: malformed stripe record %d", rec.Stripe)
		}
		e.virgin[rec.Stripe] = rec.Virgin
		if rec.Dirty {
			e.shardOf(rec.Stripe).dirty[rec.Stripe] = struct{}{}
		}
		for j := 0; j < cfg.K; j++ {
			lba := e.geo.LBA(rec.Stripe, j)
			latest, err := e.restoreLoc(rec.Latest[j])
			if err != nil {
				return nil, fmt.Errorf("core: stripe %d latest location %d: %w", rec.Stripe, j, err)
			}
			comm, err := e.restoreLoc(rec.Committed[j])
			if err != nil {
				return nil, fmt.Errorf("core: stripe %d committed location %d: %w", rec.Stripe, j, err)
			}
			e.storeLatest(lba, latest)
			e.storeProt(lba, rec.Prot[j])
			e.storeComm(lba, comm)
		}
	}
	maxID := int64(-1)
	for _, rec := range snap.LogStripes {
		ls := &logStripe{id: rec.ID, logPos: rec.LogPos}
		var owner *shard
		for _, mb := range rec.Members {
			if mb.LBA < 0 || mb.LBA >= e.geo.Chunks() {
				return nil, fmt.Errorf("core: log stripe %d member LBA %d out of range", rec.ID, mb.LBA)
			}
			loc, err := e.restoreLoc(mb.Loc)
			if err != nil {
				return nil, fmt.Errorf("core: log stripe %d member LBA %d: %w", rec.ID, mb.LBA, err)
			}
			ls.members = append(ls.members, member{lba: mb.LBA, loc: loc})
			sh := e.shardOfLBA(mb.LBA)
			if owner == nil {
				owner = sh
			} else if sh != owner {
				return nil, fmt.Errorf("core: log stripe %d spans shards %d and %d; commit before checkpointing or restore with the original shard count",
					rec.ID, owner.idx, sh.idx)
			}
		}
		if owner == nil {
			return nil, fmt.Errorf("core: log stripe %d has no members", rec.ID)
		}
		if rec.LogPos < owner.logStart || rec.LogPos >= owner.logLimit {
			return nil, fmt.Errorf("core: log stripe %d at log position %d outside shard %d's region [%d,%d); commit before checkpointing or restore with the original shard count",
				rec.ID, rec.LogPos, owner.idx, owner.logStart, owner.logLimit)
		}
		owner.logStripes[rec.ID] = ls
		maxID = max(maxID, rec.ID)
		owner.logCursor = max(owner.logCursor, rec.LogPos+1)
	}
	// Re-derive per-shard ID counters above every restored and recorded ID,
	// preserving each shard's residue class.
	base := max(snap.NextLogID, maxID+1)
	ns := int64(e.nShards)
	for _, sh := range e.shards {
		idx := int64(sh.idx)
		sh.nextLogID = base + ((idx-base)%ns+ns)%ns
		sh.publishFill()
	}

	// Rebuild the allocators: a chunk is in use iff something references
	// it — a latest or committed version, a log-stripe member, or a
	// parity home (parity always lives at its stripe's home chunk). Each
	// shard's free pool is the unused subset of the chunks it owns, the
	// free set the engine that stopped had, so placement resumes as it
	// would have.
	usedPer := make([][]bool, len(devs))
	for d := range usedPer {
		usedPer[d] = make([]bool, devs[d].Chunks())
	}
	for lba := int64(0); lba < e.geo.Chunks(); lba++ {
		latest, comm := e.loadLatest(lba), e.loadComm(lba)
		usedPer[latest.Dev][latest.Chunk] = true
		usedPer[comm.Dev][comm.Chunk] = true
	}
	for _, sh := range e.shards {
		for _, ls := range sh.logStripes {
			for _, mb := range ls.members {
				usedPer[mb.loc.Dev][mb.loc.Chunk] = true
			}
		}
	}
	for s := int64(0); s < e.geo.Stripes; s++ {
		for i := 0; i < e.geo.M(); i++ {
			usedPer[e.geo.ParityDev(s, i)][e.geo.HomeChunk(s)] = true
		}
	}
	for _, sh := range e.shards {
		for d, used := range usedPer {
			sh.alloc[d] = e.newAllocator(devs[d].Chunks(), sh.idx, func(c int64) bool { return used[c] })
		}
	}
	return e, nil
}

// restoreLoc converts a snapshot location, rejecting one that does not
// address a chunk of the main array: a snapshot is input from outside.
func (e *EPLog) restoreLoc(l metadata.Loc) (Loc, error) {
	devs := e.devs()
	if l.Dev < 0 || int(l.Dev) >= len(devs) || l.Chunk < 0 || l.Chunk >= devs[l.Dev].Chunks() {
		return Loc{}, fmt.Errorf("location (%d, %d) outside the devices", l.Dev, l.Chunk)
	}
	return Loc{Dev: int(l.Dev), Chunk: l.Chunk}, nil
}

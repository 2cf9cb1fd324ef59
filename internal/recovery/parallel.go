// Crash recovery (§5.5–§5.6): the log survives a crash as bounded segment
// files per device plus a commit.meta durable position. Recovery scans
// only the segments at or beyond the published horizon and fans the scan
// and the page-partitioned redo/undo over an exec pool. Every worker
// charges the one recovery clock — the scan disk's — and counter addition
// commutes, so the replay counters (and therefore the virtual recovery
// time) are bit-identical at every Parallelism width.
package recovery

import (
	"context"
	"fmt"
	"sort"

	"mmdb/internal/cost"
	"mmdb/internal/exec"
	"mmdb/internal/seglog"
	"mmdb/internal/simio"
	"mmdb/internal/store"
	"mmdb/internal/wal"
)

// Input is everything that survives a crash.
type Input struct {
	// Store geometry.
	NumRecords     int
	RecSize        int
	RecordsPerPage int

	// PageSize is the log page size (for the simulated scan disk);
	// 0 means 4096.
	PageSize int

	// SnapshotPages is the checkpointed database image on disk.
	SnapshotPages map[int][]byte

	// Devices holds each log device's surviving segments and its
	// commit.meta position.
	Devices []seglog.View

	// StableTail holds the records resident in battery-backed stable
	// memory at the crash (§5.4 policy) — durable by assumption, they join
	// the merge as one more fragment.
	StableTail []wal.Record

	// StartLSN is the redo lower bound from the stable first-update table;
	// HaveStart is false when no page was dirty, in which case redo replays
	// everything scanned — safe because redo is idempotent, just slower.
	StartLSN  wal.LSN
	HaveStart bool

	// Parallelism is the exec pool width for the segment scan and the
	// page-partitioned replay (0 = serial, <0 = GOMAXPROCS).
	Parallelism int

	// IgnoreHorizon forces a full scan of every surviving segment,
	// ignoring the published commit.meta horizon. Used by the chaos
	// oracle: a horizon-skipping recovery must produce a store
	// bit-identical to the full-scan one.
	IgnoreHorizon bool

	// Params is the cost model; the zero value means cost.DefaultParams.
	Params cost.Params
}

// scanTask identifies one segment to read and decode.
type scanTask struct {
	dev int          // index into in.Devices
	sp  *simio.Space // the segment, installed on the scan disk
}

// scanResult is one segment's decoded records.
type scanResult struct {
	recs   []wal.Record
	intact bool
}

// Recover rebuilds the database from a crash image.
//
// The horizon rule: any published commit.meta horizon h guarantees that
// every record with LSN < h is (a) reflected in the checkpoint snapshot
// and (b) owned by a transaction whose outcome was durably resolved when
// h was published — and resolution is monotone, so the guarantee holds
// forever. Recovery therefore skips whole segments whose LastLSN < h
// without reading them, and treats h as a floor for both redo and undo:
// a commit record hidden inside a skipped segment may leave its (fully
// below-horizon) updates looking like a loser's, but none of them are
// eligible for undo below the floor, so the rebuilt store is identical
// to a full scan's. Info.Losers can over-approximate under skipping;
// oracles that inspect transaction outcomes should use IgnoreHorizon.
func Recover(in Input) (*store.Store, Info, error) {
	info := Info{
		Committed: make(map[wal.TxnID]bool),
		Ended:     make(map[wal.TxnID]bool),
		Losers:    make(map[wal.TxnID]bool),
	}
	params := in.Params
	if params == (cost.Params{}) {
		params = cost.DefaultParams()
	}
	pageSize := in.PageSize
	if pageSize <= 0 {
		pageSize = 4096
	}
	width := exec.Workers(in.Parallelism)
	info.ReplayWorkers = width

	st, err := store.New(in.NumRecords, in.RecSize, in.RecordsPerPage)
	if err != nil {
		return nil, info, err
	}
	clock := cost.NewClock(params)
	disk := simio.NewDisk(clock, pageSize)

	// The strongest published horizon across devices. Horizons speak about
	// global LSNs and only ever grow, so the max over devices is valid for
	// every device's segments.
	var horizon wal.LSN
	for _, d := range in.Devices {
		if d.HavePos && wal.LSN(d.Pos.Horizon) > horizon {
			horizon = wal.LSN(d.Pos.Horizon)
		}
		info.CompactedBytes += d.CompactedBytes
	}
	if in.IgnoreHorizon {
		horizon = 0
	}

	// 1. Install the surviving segment files onto the scan disk (uncharged:
	// they are crash artifacts, not recovery work), skipping whole segments
	// below the horizon without touching their pages.
	var tasks []scanTask
	for di, d := range in.Devices {
		for _, s := range d.Segments {
			if horizon > 0 && s.LastLSN > 0 && wal.LSN(s.LastLSN) < horizon {
				info.SegmentsSkipped++
				continue
			}
			sp, err := disk.Create(seglog.SegmentSpace(d.Device, s.Index))
			if err != nil {
				return nil, info, fmt.Errorf("recovery: %w", err)
			}
			for _, img := range s.Pages {
				if _, err := sp.Append(img, simio.Uncharged); err != nil {
					return nil, info, fmt.Errorf("recovery: install segment: %w", err)
				}
			}
			tasks = append(tasks, scanTask{dev: di, sp: sp})
		}
	}

	// 2. Parallel segment scan: each task reads its segment (the first page
	// a random IO, for the seek; the rest sequential) and decodes the pages
	// with the per-record checksums cutting at the first torn record. The
	// reads charge the scan disk's clock.
	results := make([]scanResult, len(tasks))
	pool := exec.NewPool(in.Parallelism)
	err = pool.ForEach(context.Background(), len(tasks), func(ctx context.Context, i int) error {
		sp := tasks[i].sp
		res := scanResult{intact: true}
		for p := 0; p < sp.NumPages(); p++ {
			access := simio.Seq
			if p == 0 {
				access = simio.Rand // seek to the segment file
			}
			// The image is the stored page: segments are append-only,
			// and decoding copies each record out of it.
			img, err := sp.Read(p, access)
			if err != nil {
				return err
			}
			recs, whole := wal.DecodePageTail(img)
			res.recs = append(res.recs, recs...)
			if !whole {
				res.intact = false
				break
			}
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, info, fmt.Errorf("recovery: segment scan: %w", err)
	}

	// 3. Assemble fragments: one per scanned segment. A device's segments
	// are LSN-ordered among themselves, but horizon skipping leaves gaps,
	// so each segment stands alone and the merge dedups records (e.g. a
	// commit duplicated across a rotation boundary) by global LSN. A torn
	// segment contributes its intact prefix and cuts the rest of its
	// device's log.
	var fragments [][]wal.Record
	cut := make(map[int]bool) // device -> saw a torn segment
	for i, t := range tasks {
		if cut[t.dev] {
			continue
		}
		r := results[i]
		if len(r.recs) > 0 {
			fragments = append(fragments, r.recs)
		}
		if !r.intact {
			cut[t.dev] = true
		}
		info.SegmentsScanned++
	}
	if len(in.StableTail) > 0 {
		fragments = append(fragments, in.StableTail)
	}
	merged := wal.MergeFragments(fragments)

	// 4. Reload the snapshot (one sequential IO per page).
	snapPages := make([]int, 0, len(in.SnapshotPages))
	for p := range in.SnapshotPages {
		snapPages = append(snapPages, p)
	}
	sort.Ints(snapPages)
	for _, p := range snapPages {
		clock.SeqIOs(1)
		if err := st.InstallPage(p, in.SnapshotPages[p]); err != nil {
			return nil, info, fmt.Errorf("recovery: snapshot page %d: %w", p, err)
		}
		info.SnapshotPgs++
	}

	// 5. Analysis over the merged log (serial: it is one ordered pass).
	for i := 1; i < len(merged); i++ {
		if merged[i].LSN < merged[i-1].LSN {
			return nil, info, fmt.Errorf("recovery: merged log not LSN-ordered at index %d", i)
		}
	}
	clock.Comps(int64(len(merged)))
	for _, r := range merged {
		info.LogScanned++
		switch r.Type {
		case wal.Commit:
			info.Committed[r.Txn] = true
		case wal.End:
			info.Ended[r.Txn] = true
		}
	}
	for _, r := range merged {
		if r.Type == wal.Update && !info.resolved(r.Txn) {
			info.Losers[r.Txn] = true
		}
	}

	// 6–7. Replay, partitioned by store page: per page, redo every update
	// at or beyond the start point (and the horizon floor) in LSN order,
	// then undo the unresolved updates in reverse.
	info.Redone, info.Undone, err = replayByPage(pool, st, clock, merged, func(recs []wal.Record) (redone, undone int, err error) {
		for _, r := range recs {
			if in.HaveStart && r.LSN < in.StartLSN {
				continue
			}
			if r.LSN < horizon {
				continue // already in the snapshot
			}
			if err := st.Apply(r.Rec, r.New); err != nil {
				return 0, 0, fmt.Errorf("redo LSN %d: %w", r.LSN, err)
			}
			redone++
		}
		for j := len(recs) - 1; j >= 0; j-- {
			r := recs[j]
			if info.resolved(r.Txn) || r.LSN < horizon {
				continue // below the horizon every outcome was durably resolved
			}
			if r.Old == nil {
				return 0, 0, fmt.Errorf("loser txn %d update LSN %d has no pre-image (compression must only drop resolved old values)", r.Txn, r.LSN)
			}
			if err := st.Apply(r.Rec, r.Old); err != nil {
				return 0, 0, fmt.Errorf("undo LSN %d: %w", r.LSN, err)
			}
			undone++
		}
		return redone, undone, nil
	})
	if err != nil {
		return nil, info, fmt.Errorf("recovery: replay: %w", err)
	}

	info.Counters = clock.Counters()
	info.Virtual = clock.Now()
	return st, info, nil
}

// replayByPage partitions the Update records of log (LSN-ascending) by
// store page and runs apply over each page's updates on the pool. Updates
// to different pages touch disjoint byte ranges and store.Apply is a pure
// copy, so buckets never race; within a bucket the global LSN order is
// preserved by construction. It returns the summed counts apply reported
// and, after the barrier, charges clock one move per applied record; on
// error it charges no move. The moves are a function of the log alone, so
// they are bit-identical at every width.
func replayByPage(pool *exec.Pool, st *store.Store, clock *cost.Clock, log []wal.Record,
	apply func(recs []wal.Record) (redone, undone int, err error)) (redone, undone int, err error) {
	buckets := make(map[int][]wal.Record)
	for _, r := range log {
		if r.Type != wal.Update {
			continue
		}
		clock.Hashes(1)
		p := st.PageOf(r.Rec)
		buckets[p] = append(buckets[p], r)
	}
	pageIDs := make([]int, 0, len(buckets))
	for p := range buckets {
		pageIDs = append(pageIDs, p)
	}
	sort.Ints(pageIDs)

	type result struct{ redone, undone int }
	results := make([]result, len(pageIDs))
	err = pool.ForEach(context.Background(), len(pageIDs), func(ctx context.Context, i int) error {
		r, u, err := apply(buckets[pageIDs[i]])
		results[i] = result{redone: r, undone: u}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	for _, r := range results {
		redone += r.redone
		undone += r.undone
	}
	clock.Moves(int64(redone + undone))
	return redone, undone, nil
}

package recovery

import (
	"fmt"

	"mmdb/internal/store"
	"mmdb/internal/wal"
)

// ReferenceRecover is the serial, single-log recovery this package shipped
// before the segment directory became the only medium, kept as the
// independent oracle Recover is compared against. It reads in's geometry,
// snapshot and redo bound, ignores in.Devices and the commit.meta horizon,
// and replays log — the single merged log (see wal.MergeFragments,
// wal.Log.DurableRecords), in LSN order — charging nothing. Exported so
// the external grid test (which needs the txn engine) can reach it.
func ReferenceRecover(in Input, log []wal.Record) (*store.Store, Info, error) {
	info := Info{
		Committed: make(map[wal.TxnID]bool),
		Ended:     make(map[wal.TxnID]bool),
		Losers:    make(map[wal.TxnID]bool),
	}
	st, err := store.New(in.NumRecords, in.RecSize, in.RecordsPerPage)
	if err != nil {
		return nil, info, err
	}

	// 1. Reload the snapshot.
	for p, img := range in.SnapshotPages {
		if err := st.InstallPage(p, img); err != nil {
			return nil, info, fmt.Errorf("recovery: snapshot page %d: %w", p, err)
		}
		info.SnapshotPgs++
	}

	// 2. Analysis: find durable commits; everything else that wrote is a
	// loser.
	for i := 1; i < len(log); i++ {
		if log[i].LSN < log[i-1].LSN {
			return nil, info, fmt.Errorf("recovery: log not LSN-ordered at index %d", i)
		}
	}
	for _, r := range log {
		info.LogScanned++
		switch r.Type {
		case wal.Commit:
			info.Committed[r.Txn] = true
		case wal.End:
			info.Ended[r.Txn] = true
		}
	}
	for _, r := range log {
		if r.Type == wal.Update && !info.resolved(r.Txn) {
			info.Losers[r.Txn] = true
		}
	}

	// 3. Redo from the start point, in LSN order, winners and losers both
	// (losers are compensated in step 4).
	for _, r := range log {
		if r.Type != wal.Update {
			continue
		}
		if in.HaveStart && r.LSN < in.StartLSN {
			continue
		}
		if err := st.Apply(r.Rec, r.New); err != nil {
			return nil, info, fmt.Errorf("recovery: redo LSN %d: %w", r.LSN, err)
		}
		info.Redone++
	}

	// 4. Undo losers in reverse LSN order using pre-images. Resolved
	// transactions (committed, or fully rolled back with compensations on
	// the log) are skipped.
	for i := len(log) - 1; i >= 0; i-- {
		r := log[i]
		if r.Type != wal.Update || info.resolved(r.Txn) {
			continue
		}
		if r.Old == nil {
			return nil, info, fmt.Errorf("recovery: loser txn %d update LSN %d has no pre-image (compression must only drop committed old values)", r.Txn, r.LSN)
		}
		if err := st.Apply(r.Rec, r.Old); err != nil {
			return nil, info, fmt.Errorf("recovery: undo LSN %d: %w", r.LSN, err)
		}
		info.Undone++
	}
	return st, info, nil
}

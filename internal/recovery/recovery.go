// Package recovery implements crash recovery for the memory-resident
// database (§5): reload the latest checkpoint snapshot, merge the log
// fragments into a single log, redo update records from the recovery start
// point (the oldest entry of the stable first-update table), and undo the
// updates of transactions without a durable commit record.
//
// Redo is physical (full record post-images) and therefore idempotent;
// undo by pre-image is safe because the pre-commit protocol guarantees
// that no durably committed transaction ever read or overwrote data
// written by a transaction that failed to commit (a dependent's commit
// group is never written before the group it depends on, §5.2).
package recovery

import (
	"time"

	"mmdb/internal/cost"
	"mmdb/internal/wal"
)

// Info reports what recovery did.
type Info struct {
	Committed   map[wal.TxnID]bool // transactions with durable commit records
	Ended       map[wal.TxnID]bool // transactions whose rollback completed (End record)
	Losers      map[wal.TxnID]bool // transactions with updates but neither commit nor end
	Redone      int                // update records re-applied
	Undone      int                // loser updates rolled back
	LogScanned  int                // total log records examined
	SnapshotPgs int                // snapshot pages installed

	// Replay telemetry.
	SegmentsScanned int           // segment files read and decoded
	SegmentsSkipped int           // segments skipped entirely below the commit.meta horizon
	ReplayWorkers   int           // exec pool width used for scan and redo fan-out
	CompactedBytes  int64         // bytes reclaimed by §5.6 compaction, as seen at the crash
	Counters        cost.Counters // virtual work of the replay itself
	Virtual         time.Duration // virtual recovery time (bit-identical at every width)
}

// resolved reports whether txn needs no undo: it either committed or
// finished rolling itself back (its compensating updates are replayed by
// redo).
func (info Info) resolved(txn wal.TxnID) bool {
	return info.Committed[txn] || info.Ended[txn]
}

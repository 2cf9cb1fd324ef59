package recovery_test

import (
	"fmt"
	"testing"
	"time"

	"mmdb/internal/event"
	"mmdb/internal/recovery"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// TestRecoverMatchesReferenceGrid crashes the §5 engine across commit
// policy × log width × torn-tail exposure × log maintenance × crash
// instant, and at every cell compares Recover against the serial
// reference run over the merged durable log of the same instant: the
// full-scan recovery must rebuild an Equal store and find the same
// committed transactions, and the horizon-skipping recovery the same
// store. Small pages and two-page segments make rotation, skipping,
// truncation-by-deletion and compaction all happen inside a 1.2 s run; the
// stable-memory cells round-robin a transaction's records across devices,
// which is where a commit record hides in a skipped segment while its
// updates sit in a scanned one (the undo floor), and where a record is
// both on disk and still in stable memory (the merge's LSN dedup).
func TestRecoverMatchesReferenceGrid(t *testing.T) {
	policies := []struct {
		name     string
		policy   wal.CommitPolicy
		compress bool
	}{
		{"flush", wal.FlushPerCommit, false},
		{"group", wal.GroupCommit, false},
		{"stable+compress", wal.StableMemory, true},
	}
	const runFor = 1200 * time.Millisecond
	skipped, undone := 0, 0
	for _, p := range policies {
		for _, devices := range []int{1, 4} {
			for _, torn := range []bool{false, true} {
				for _, maintain := range []bool{false, true} {
					for _, crashAt := range []time.Duration{137 * time.Millisecond, 611 * time.Millisecond, 1093 * time.Millisecond} {
						name := fmt.Sprintf("%s/dev%d/torn=%v/truncate+compact=%v/%v", p.name, devices, torn, maintain, crashAt)
						cfg := txn.Config{
							Accounts:       512,
							RecordsPerPage: 16,
							Terminals:      20,
							AbortEvery:     7,
							Seed:           int64(devices)*100 + crashAt.Milliseconds(),
							Checkpoint:     true,
							DataDevice:     wal.NewDevice("data", 2*time.Millisecond),
							TruncateLog:    maintain,
							TruncateEvery:  8,
							Log: wal.Config{
								Policy:          p.policy,
								Compress:        p.compress,
								PageSize:        512,
								SegmentPages:    2,
								CompactSegments: maintain,
							},
						}
						for i := 0; i < devices; i++ {
							d := wal.NewDevice(fmt.Sprintf("log%d", i), 10*time.Millisecond)
							d.ExposeTorn = torn
							cfg.Log.Devices = append(cfg.Log.Devices, d)
						}
						sim := &event.Sim{}
						e, err := txn.New(sim, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						var in recovery.Input
						var log []wal.Record
						sim.At(crashAt, func() {
							in = e.CrashInput()
							log, err = e.Log().DurableRecords(crashAt)
						})
						e.Run(runFor)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						// Stable memory drains a transaction's records round-robin
						// across devices, so truncation can delete the segment
						// holding its commit record on one device while an update
						// of it survives on another. Only the published horizon
						// tells recovery that update is resolved and checkpointed;
						// a scan that ignores the horizon is no oracle there.
						fullScan := !(maintain && devices > 1 && p.policy == wal.StableMemory)
						s, u := checkAgainstReference(t, name, in, log, maintain, fullScan)
						skipped += s
						undone += u
					}
				}
			}
		}
	}
	if skipped == 0 || undone == 0 {
		t.Fatalf("grid never exercised skipping (%d segments) or undo (%d updates)", skipped, undone)
	}
}

// checkAgainstReference runs the reference and both recoveries on one
// crash image and reports the segments the horizon run skipped and the
// updates it undid. fullScan is false where ignoring the horizon is not a
// valid oracle (see the caller).
func checkAgainstReference(t *testing.T, name string, in recovery.Input, log []wal.Record, truncated, fullScan bool) (skipped, undone int) {
	t.Helper()
	for i := 1; i < len(log); i++ {
		if log[i].LSN <= log[i-1].LSN {
			t.Fatalf("%s: merged durable log repeats or reorders LSN %d at index %d", name, log[i].LSN, i)
		}
	}
	refStore, refInfo, err := recovery.ReferenceRecover(in, log)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}

	skipStore, skipInfo, err := recovery.Recover(in)
	if err != nil {
		t.Fatalf("%s: horizon-skipping recovery: %v", name, err)
	}
	if !skipStore.Equal(refStore) {
		t.Fatalf("%s: horizon-skipping recovery differs from the serial reference (%d segments skipped)", name, skipInfo.SegmentsSkipped)
	}
	if !fullScan {
		return skipInfo.SegmentsSkipped, skipInfo.Undone
	}

	in.IgnoreHorizon = true
	in.Parallelism = 4
	fullStore, fullInfo, err := recovery.Recover(in)
	if err != nil {
		t.Fatalf("%s: full-scan recovery: %v", name, err)
	}
	if !fullStore.Equal(refStore) {
		t.Fatalf("%s: full-scan recovery differs from the serial reference", name)
	}
	// Truncation deletes whole segments, so the directory may retain
	// records below the truncation point that DurableRecords trims: those
	// belong to transactions resolved entirely below it, which the
	// reference never sees. Everything the reference sees must agree.
	inLog := make(map[wal.TxnID]bool)
	for _, r := range log {
		inLog[r.Txn] = true
	}
	for id := range refInfo.Committed {
		if !fullInfo.Committed[id] {
			t.Fatalf("%s: txn %d committed per the reference, not per Recover", name, id)
		}
	}
	for id := range fullInfo.Committed {
		if !refInfo.Committed[id] && (inLog[id] || !truncated) {
			t.Fatalf("%s: txn %d committed per Recover, not per the reference", name, id)
		}
	}
	if fullInfo.Undone != refInfo.Undone {
		t.Fatalf("%s: undone %d, reference %d", name, fullInfo.Undone, refInfo.Undone)
	}
	if !truncated && (fullInfo.LogScanned != refInfo.LogScanned || fullInfo.Redone != refInfo.Redone) {
		t.Fatalf("%s: scanned/redone %d/%d, reference %d/%d", name,
			fullInfo.LogScanned, fullInfo.Redone, refInfo.LogScanned, refInfo.Redone)
	}
	return skipInfo.SegmentsSkipped, skipInfo.Undone
}

package mmdb

import (
	"testing"
	"time"
)

// TestSegmentedRecoveryEndToEnd crashes a segmented-log engine mid-run and
// checks the parallel replay path end to end: the replay works, its
// virtual time and replay counts are identical at different widths.
func TestSegmentedRecoveryEndToEnd(t *testing.T) {
	run := func(par int) (RecoveryStats, RecoveryInfo) {
		sim, err := NewRecoverySim(RecoveryConfig{
			Accounts:          2000,
			Terminals:         20,
			Policy:            GroupCommit,
			Checkpoint:        true,
			TruncateLog:       true,
			SegmentPages:      4,
			CompactSegments:   true,
			ReplayParallelism: par,
			Seed:              7,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, info, _, err := sim.RunAndCrash(2*time.Second, 1500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return st, info
	}
	stats, i1 := run(1)
	_, i8 := run(8)

	if stats.Committed == 0 {
		t.Fatal("workload committed nothing")
	}
	if i1.SegmentsScanned == 0 {
		t.Fatalf("no segments scanned: %+v", i1)
	}
	if i1.Virtual <= 0 {
		t.Fatalf("no virtual replay time: %+v", i1)
	}
	if i1.ReplayWorkers != 1 || i8.ReplayWorkers != 8 {
		t.Fatalf("replay widths %d/%d, want 1/8", i1.ReplayWorkers, i8.ReplayWorkers)
	}
	// Same seed, same crash instant: the replay must be bit-identical in
	// everything but the width.
	if i1.Virtual != i8.Virtual {
		t.Fatalf("virtual replay time drifts across widths: %v vs %v", i1.Virtual, i8.Virtual)
	}
	if i1.Redone != i8.Redone || i1.Undone != i8.Undone || i1.Committed != i8.Committed ||
		i1.SegmentsScanned != i8.SegmentsScanned || i1.SegmentsSkipped != i8.SegmentsSkipped {
		t.Fatalf("replay work drifts across widths:\n w=1: %+v\n w=8: %+v", i1, i8)
	}
}

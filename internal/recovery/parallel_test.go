package recovery

import (
	"testing"
	"time"

	"mmdb/internal/event"
	"mmdb/internal/seglog"
	"mmdb/internal/store"
	"mmdb/internal/wal"
)

// buildSegmentedCrash runs a two-device segmented group-commit log through
// a workload with committed winners and one in-flight loser, then returns
// the crash image plus the merged durable log for the serial oracle.
func buildSegmentedCrash(t *testing.T) (Input, []wal.Record) {
	t.Helper()
	sim := &event.Sim{}
	dev0 := wal.NewDevice("log0", 10*time.Millisecond)
	dev1 := wal.NewDevice("log1", 10*time.Millisecond)
	l, err := wal.NewLog(sim, wal.Config{
		PageSize:     512,
		Policy:       wal.GroupCommit,
		Devices:      []*wal.Device{dev0, dev1},
		SegmentPages: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	val := func(b byte) []byte { return []byte{b, b, b, b, b, b, b, b} }
	for i := 1; i <= 40; i++ {
		id := wal.TxnID(i)
		l.Append(wal.Record{Txn: id, Type: wal.Begin})
		l.Append(wal.Record{Txn: id, Type: wal.Update, Rec: uint64(i % 13), Old: val(0), New: val(byte(i))})
		l.AppendCommit(id, nil)
	}
	// An in-flight transaction with durable updates but no commit: the
	// replay must undo it from its pre-images.
	l.Append(wal.Record{Txn: 99, Type: wal.Begin})
	l.Append(wal.Record{Txn: 99, Type: wal.Update, Rec: 3, Old: val(40 - 40%13 + 3), New: val(0xEE)})
	l.Append(wal.Record{Txn: 99, Type: wal.Update, Rec: 14, Old: val(0), New: val(0xEF)})
	l.Flush()
	sim.Run()
	crash := sim.Now()

	in := Input{
		NumRecords:     64,
		RecSize:        8,
		RecordsPerPage: 8,
		PageSize:       512,
	}
	for _, d := range []*wal.Device{dev0, dev1} {
		in.Devices = append(in.Devices, d.DurableSegments(crash))
	}
	merged, err := l.DurableRecords(crash)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 {
		t.Fatal("empty durable log")
	}
	return in, merged
}

func TestSegmentedRecoveryMatchesSerial(t *testing.T) {
	in, merged := buildSegmentedCrash(t)
	serialStore, serialInfo, err := ReferenceRecover(in, merged)
	if err != nil {
		t.Fatal(err)
	}
	segStore, segInfo, err := Recover(in)
	if err != nil {
		t.Fatal(err)
	}
	if !serialStore.Equal(segStore) {
		t.Fatal("segmented recovery store differs from serial recovery")
	}
	if segInfo.Redone != serialInfo.Redone || segInfo.Undone != serialInfo.Undone {
		t.Fatalf("replay counts differ: segmented redo=%d undo=%d, serial redo=%d undo=%d",
			segInfo.Redone, segInfo.Undone, serialInfo.Redone, serialInfo.Undone)
	}
	if len(segInfo.Committed) != len(serialInfo.Committed) || len(segInfo.Losers) != len(serialInfo.Losers) {
		t.Fatalf("analysis differs: segmented %d committed %d losers, serial %d/%d",
			len(segInfo.Committed), len(segInfo.Losers), len(serialInfo.Committed), len(serialInfo.Losers))
	}
	if segInfo.SegmentsScanned == 0 {
		t.Fatal("no segments scanned")
	}
	if segInfo.Virtual <= 0 {
		t.Fatal("no virtual time accounted")
	}
}

func TestReplayCountersIdenticalAcrossWidths(t *testing.T) {
	// The replay's cost counters — and therefore its virtual recovery
	// time — must be bit-identical at every pool width: every worker
	// charges the one recovery clock and counter addition commutes.
	in, _ := buildSegmentedCrash(t)
	var baseStore *store.Store
	var baseInfo Info
	for _, w := range []int{1, 2, 4, 8} {
		in.Parallelism = w
		st, info, err := Recover(in)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if info.ReplayWorkers != w {
			t.Fatalf("width %d reported %d workers", w, info.ReplayWorkers)
		}
		if baseStore == nil {
			baseStore, baseInfo = st, info
			continue
		}
		if info.Counters != baseInfo.Counters {
			t.Fatalf("width %d counters drift: %v vs width 1 %v", w, info.Counters, baseInfo.Counters)
		}
		if info.Virtual != baseInfo.Virtual {
			t.Fatalf("width %d virtual time %v != width 1 %v", w, info.Virtual, baseInfo.Virtual)
		}
		if !baseStore.Equal(st) {
			t.Fatalf("width %d store differs from width 1", w)
		}
		if info.Redone != baseInfo.Redone || info.Undone != baseInfo.Undone {
			t.Fatalf("width %d replay counts differ", w)
		}
	}
}

func TestHorizonSkipMatchesFullScan(t *testing.T) {
	// Craft a device whose first segment falls wholly below the published
	// horizon: the skipping recovery must not read it, yet rebuild a store
	// bit-identical to a full scan. The skipped segment hides txn 1's
	// commit, so Losers over-approximates under skipping — but the floor
	// rule keeps its below-horizon updates out of undo.
	val := func(b byte) []byte { return []byte{b, b, b, b, b, b, b, b} }
	seg0Recs := []wal.Record{
		{LSN: 1, Txn: 1, Type: wal.Begin},
		{LSN: 2, Txn: 1, Type: wal.Update, Rec: 0, Old: val(0), New: val(0x11)},
		{LSN: 3, Txn: 1, Type: wal.Commit},
	}
	seg1Recs := []wal.Record{
		{LSN: 4, Txn: 2, Type: wal.Begin},
		{LSN: 5, Txn: 2, Type: wal.Update, Rec: 5, Old: val(0), New: val(0x22)},
		{LSN: 6, Txn: 2, Type: wal.Commit},
		{LSN: 7, Txn: 3, Type: wal.Begin},
		{LSN: 8, Txn: 3, Type: wal.Update, Rec: 9, Old: val(0), New: val(0x33)},
	}
	encode := func(recs []wal.Record) [][]byte {
		img, err := wal.EncodePage(recs, 512)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{img}
	}
	mkInput := func(ignore bool) Input {
		return Input{
			NumRecords:     16,
			RecSize:        8,
			RecordsPerPage: 4,
			PageSize:       512,
			// Snapshot already reflects txn 1 (its effect is below the
			// horizon).
			SnapshotPages: map[int][]byte{
				0: append(val(0x11), val(0)...),
			},
			StartLSN:  4,
			HaveStart: true,
			Devices: []seglog.View{{
				Device: "log0",
				Segments: []seglog.SegmentView{
					{Index: 0, Pages: encode(seg0Recs), FirstLSN: 1, LastLSN: 3},
					{Index: 1, Pages: encode(seg1Recs), FirstLSN: 4, LastLSN: 8},
				},
				Pos:     seglog.CommitPos{Epoch: 1, Seg: 1, Off: 1, Durable: 8, Horizon: 4},
				HavePos: true,
			}},
			IgnoreHorizon: ignore,
		}
	}
	skipStore, skipInfo, err := Recover(mkInput(false))
	if err != nil {
		t.Fatal(err)
	}
	fullStore, fullInfo, err := Recover(mkInput(true))
	if err != nil {
		t.Fatal(err)
	}
	if skipInfo.SegmentsSkipped != 1 || skipInfo.SegmentsScanned != 1 {
		t.Fatalf("skip run scanned=%d skipped=%d, want 1/1", skipInfo.SegmentsScanned, skipInfo.SegmentsSkipped)
	}
	if fullInfo.SegmentsSkipped != 0 || fullInfo.SegmentsScanned != 2 {
		t.Fatalf("full run scanned=%d skipped=%d, want 2/0", fullInfo.SegmentsScanned, fullInfo.SegmentsSkipped)
	}
	if !skipStore.Equal(fullStore) {
		t.Fatal("horizon-skipping recovery differs from full scan")
	}
	// Full scan sees every outcome; the skip run must never undo txn 3's
	// loser update differently.
	if !fullInfo.Committed[1] || !fullInfo.Committed[2] || !fullInfo.Losers[3] {
		t.Fatalf("full-scan analysis wrong: %+v", fullInfo)
	}
	if got := skipStore.Read(9); got[0] != 0 {
		t.Fatalf("loser update not undone under skipping: % x", got)
	}
	if got := skipStore.Read(0); got[0] != 0x11 {
		t.Fatalf("below-horizon committed value lost: % x", got)
	}
	if skipInfo.Virtual >= fullInfo.Virtual {
		t.Fatalf("skipping did not reduce virtual recovery time: %v vs %v", skipInfo.Virtual, fullInfo.Virtual)
	}
}

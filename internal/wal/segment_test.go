package wal

import (
	"bytes"
	"testing"
	"time"

	"mmdb/internal/event"
)

// segLog builds a segmented group-commit log on one 10ms device with
// 2-page segments and a 512-byte page.
func segLog(t *testing.T, sim *event.Sim, devs ...*Device) *Log {
	t.Helper()
	if len(devs) == 0 {
		devs = []*Device{NewDevice("log0", 10*time.Millisecond)}
	}
	l, err := NewLog(sim, Config{
		PageSize:     512,
		Policy:       GroupCommit,
		Devices:      devs,
		SegmentPages: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// commitTxn appends a single-update transaction and its commit.
func commitTxn(l *Log, id TxnID, rec uint64) {
	l.Append(Record{Txn: id, Type: Begin})
	l.Append(Record{Txn: id, Type: Update, Rec: rec, Old: []byte("old"), New: []byte("new")})
	l.AppendCommit(id, nil)
}

func TestSegmentDirTracksDeviceWrites(t *testing.T) {
	sim := &event.Sim{}
	l := segLog(t, sim)
	for i := 1; i <= 20; i++ {
		commitTxn(l, TxnID(i), uint64(i))
	}
	l.Flush()
	sim.Run()
	dir := l.Config().Devices[0].SegmentDir()
	v := dir.DurableView(sim.Now(), false)
	if len(v.Segments) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(v.Segments))
	}
	// LSN tags must be monotone across segments with no overlap gaps.
	for i := 1; i < len(v.Segments); i++ {
		if v.Segments[i].FirstLSN <= v.Segments[i-1].LastLSN {
			t.Fatalf("segment %d first LSN %d overlaps previous last %d",
				i, v.Segments[i].FirstLSN, v.Segments[i-1].LastLSN)
		}
	}
	if !v.HavePos {
		t.Fatal("no commit.meta published after durable writes")
	}
	if v.Pos.Durable == 0 {
		t.Fatalf("published durable LSN = 0: %+v", v.Pos)
	}
}

func TestTornRecordAtRotationBoundaryReadsAsEndOfLog(t *testing.T) {
	// A record torn exactly across a rotation boundary — the first page of
	// a fresh segment tears mid-record — must read as end-of-log: every
	// record before the boundary survives, nothing after it appears, and
	// no error is reported.
	sim := &event.Sim{}
	dev := NewDevice("log0", 10*time.Millisecond)
	dev.ExposeTorn = true
	dev.Injector = &tornOnWrite{n: 3, bytes: pageHeader + 10} // 3rd page = segment 1's first page; cut inside record 1
	l := segLog(t, sim, dev)
	for i := 1; i <= 20; i++ {
		commitTxn(l, TxnID(i), uint64(i))
	}
	l.Flush()
	sim.Run()

	// The torn write was in flight when the device died; probe a crash
	// instant inside its service window so the prefix is on the medium.
	crash := sim.Now() + 5*time.Millisecond
	v := dev.DurableSegments(crash)
	if len(v.Segments) != 2 {
		t.Fatalf("got %d segments, want 2 (boundary tear cuts the log)", len(v.Segments))
	}
	torn := v.Segments[1]
	if !torn.Torn || len(torn.Pages) != 1 {
		t.Fatalf("segment 1 = %+v, want single torn page", torn)
	}
	recs, intact := DecodePageTail(torn.Pages[0])
	if intact {
		t.Fatal("torn rotation page decoded as intact")
	}
	if len(recs) != 0 {
		t.Fatalf("torn 10-byte prefix yielded %d records", len(recs))
	}
	// The merged recovery view ends exactly at segment 0's last record.
	merged, err := l.DurableRecords(crash)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 || uint64(merged[len(merged)-1].LSN) != v.Segments[0].LastLSN {
		t.Fatalf("merged log ends at %d, want %d", merged[len(merged)-1].LSN, v.Segments[0].LastLSN)
	}
}

// tornOnWrite tears the n'th page write on any device, leaving bytes.
type tornOnWrite struct {
	n     int
	bytes int
	seen  int
}

func (f *tornOnWrite) PageWrite(string) WriteFault {
	f.seen++
	if f.seen == f.n {
		return WriteFault{Torn: true, TornBytes: f.bytes}
	}
	return WriteFault{}
}

func TestDuplicateCommitStraddlingSegmentsDedups(t *testing.T) {
	// Duplicate commit records straddling a segment boundary (a replayed
	// group-commit page after a partial rewrite, or a record both drained
	// to disk and still in stable memory) must collapse to one in
	// MergeFragments even when the copies arrive from different segment
	// fragments.
	seg0 := []Record{
		{LSN: 1, Txn: 1, Type: Begin},
		{LSN: 2, Txn: 1, Type: Update, Rec: 4, New: []byte("a")},
		{LSN: 3, Txn: 1, Type: Commit},
	}
	seg1 := []Record{
		{LSN: 3, Txn: 1, Type: Commit}, // duplicate of seg0's tail commit
		{LSN: 4, Txn: 2, Type: Begin},
		{LSN: 5, Txn: 2, Type: Commit},
	}
	merged := MergeFragments([][]Record{seg0, seg1})
	if len(merged) != 5 {
		t.Fatalf("merged %d records, want 5 (duplicate commit collapsed)", len(merged))
	}
	commits := 0
	for i, r := range merged {
		if i > 0 && merged[i-1].LSN >= r.LSN {
			t.Fatalf("merge not strictly LSN-ordered at %d", i)
		}
		if r.Type == Commit && r.Txn == 1 {
			commits++
		}
	}
	if commits != 1 {
		t.Fatalf("txn 1 commit appears %d times", commits)
	}
}

func TestCompactRecordsKeepsOnlyNewestResolvedValue(t *testing.T) {
	resolved := map[TxnID]bool{1: true, 2: true, 3: false}
	in := []Record{
		{LSN: 1, Txn: 1, Type: Begin},
		{LSN: 2, Txn: 1, Type: Update, Rec: 7, Old: []byte("v0"), New: []byte("v1")},
		{LSN: 3, Txn: 1, Type: Commit},
		{LSN: 4, Txn: 2, Type: Begin},
		{LSN: 5, Txn: 2, Type: Update, Rec: 7, Old: []byte("v1"), New: []byte("v2")},
		{LSN: 6, Txn: 2, Type: Update, Rec: 8, Old: []byte("x0"), New: []byte("x1")},
		{LSN: 7, Txn: 2, Type: Commit},
		{LSN: 8, Txn: 3, Type: Begin},
		{LSN: 9, Txn: 3, Type: Update, Rec: 9, Old: []byte("y0"), New: []byte("y1")},
	}
	out := CompactRecords(in, func(t TxnID) bool { return resolved[t] })

	byLSN := map[LSN]Record{}
	for _, r := range out {
		byLSN[r.LSN] = r
	}
	if _, ok := byLSN[2]; ok {
		t.Fatal("stale update of rec 7 survived compaction")
	}
	if r, ok := byLSN[5]; !ok || r.Old != nil || string(r.New) != "v2" {
		t.Fatalf("newest update of rec 7 = %+v, want pre-image stripped", byLSN[5])
	}
	if r, ok := byLSN[6]; !ok || r.Old != nil {
		t.Fatalf("rec 8 update = %+v, want kept with pre-image stripped", byLSN[6])
	}
	// Commits survive so analysis still sees the outcomes.
	if _, ok := byLSN[3]; !ok {
		t.Fatal("txn 1 commit dropped")
	}
	if _, ok := byLSN[7]; !ok {
		t.Fatal("txn 2 commit dropped")
	}
	// The unresolved transaction is untouched: Begin kept, pre-image kept.
	if _, ok := byLSN[8]; !ok {
		t.Fatal("unresolved Begin dropped")
	}
	if r, ok := byLSN[9]; !ok || string(r.Old) != "y0" {
		t.Fatalf("unresolved update = %+v, want pre-image intact", byLSN[9])
	}
	// Resolved Begins are droppable.
	if _, ok := byLSN[1]; ok {
		t.Fatal("resolved Begin survived")
	}
}

func TestBackgroundCompactionPreservesRecoveryView(t *testing.T) {
	// Run a segmented log with the background compactor enabled, resolved
	// bounds wired, and verify the merged recovery view after compaction
	// replays to the same final values as an uncompacted control: for
	// every record slot, the last committed New value must match.
	run := func(compact bool) ([]Record, int64) {
		sim := &event.Sim{}
		dev := NewDevice("log0", 10*time.Millisecond)
		l, err := NewLog(sim, Config{
			PageSize:        512,
			Policy:          GroupCommit,
			Devices:         []*Device{dev},
			SegmentPages:    2,
			CompactSegments: compact,
			CompactEvery:    30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		l.SetBoundsFunc(func() (LSN, LSN) {
			d := l.DurableLSN() + 1
			return 0, d // horizon 0 (no truncation), compactable = durable
		})
		for i := 1; i <= 60; i++ {
			commitTxn(l, TxnID(i), uint64(i%5))
		}
		l.Flush()
		sim.Run()
		recs, _ := l.DurableRecords(sim.Now())
		return recs, l.Config().Devices[0].SegmentDir().Stats().CompactedBytes
	}
	control, _ := run(false)
	compacted, saved := run(true)
	if saved <= 0 {
		t.Fatal("compactor reclaimed nothing")
	}
	if len(compacted) >= len(control) {
		t.Fatalf("compaction did not shrink the log: %d vs %d records", len(compacted), len(control))
	}
	final := func(recs []Record) map[uint64][]byte {
		committed := map[TxnID]bool{}
		for _, r := range recs {
			if r.Type == Commit {
				committed[r.Txn] = true
			}
		}
		vals := map[uint64][]byte{}
		for _, r := range recs {
			if r.Type == Update && committed[r.Txn] {
				vals[r.Rec] = r.New
			}
		}
		return vals
	}
	want, got := final(control), final(compacted)
	if len(want) != len(got) {
		t.Fatalf("slot counts differ: %d vs %d", len(want), len(got))
	}
	for rec, v := range want {
		if !bytes.Equal(got[rec], v) {
			t.Fatalf("slot %d: compacted view replays %q, control %q", rec, got[rec], v)
		}
	}
}

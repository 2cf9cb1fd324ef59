package recovery

import (
	"bytes"
	"testing"

	"mmdb/internal/seglog"
	"mmdb/internal/wal"
)

func rec(lsn wal.LSN, txn wal.TxnID, typ wal.RecordType, id uint64, old, new byte) wal.Record {
	r := wal.Record{LSN: lsn, Txn: txn, Type: typ, Rec: id}
	if typ == wal.Update {
		r.Old = []byte{old, 0, 0, 0, 0, 0, 0, 0}
		r.New = []byte{new, 0, 0, 0, 0, 0, 0, 0}
	}
	return r
}

// input is the crash image of one device holding log on a single page.
func input(log []wal.Record) Input {
	img, err := wal.EncodePage(log, 4096)
	if err != nil {
		panic(err)
	}
	return inputPages(img)
}

// inputPages is the crash image of one device whose only segment holds
// the given page images.
func inputPages(pages ...[]byte) Input {
	return Input{
		NumRecords: 16, RecSize: 8, RecordsPerPage: 4,
		Devices: []seglog.View{{
			Device:   "log0",
			Segments: []seglog.SegmentView{{Pages: pages}},
		}},
	}
}

func val(st interface{ Read(uint64) []byte }, id uint64) byte {
	return st.Read(id)[0]
}

func TestCommittedUpdatesRedone(t *testing.T) {
	st, info, err := Recover(input([]wal.Record{
		rec(1, 1, wal.Begin, 0, 0, 0),
		rec(2, 1, wal.Update, 3, 0, 7),
		rec(3, 1, wal.Commit, 0, 0, 0),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Committed[1] || info.Redone != 1 || info.Undone != 0 {
		t.Fatalf("info %+v", info)
	}
	if val(st, 3) != 7 {
		t.Fatalf("record 3 = %d", val(st, 3))
	}
}

func TestLoserUpdatesUndone(t *testing.T) {
	st, info, err := Recover(input([]wal.Record{
		rec(1, 1, wal.Begin, 0, 0, 0),
		rec(2, 1, wal.Update, 3, 0, 7), // no commit
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Losers[1] || info.Undone != 1 {
		t.Fatalf("info %+v", info)
	}
	if val(st, 3) != 0 {
		t.Fatalf("loser effect survived: %d", val(st, 3))
	}
}

func TestMultiUpdateLoserUndoneInReverse(t *testing.T) {
	st, _, err := Recover(input([]wal.Record{
		rec(1, 1, wal.Update, 3, 0, 5),
		rec(2, 1, wal.Update, 3, 5, 9),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if val(st, 3) != 0 {
		t.Fatalf("reverse undo broken: %d", val(st, 3))
	}
}

func TestEndedTransactionNotUndone(t *testing.T) {
	// An aborted transaction with compensations and an End record must be
	// left alone: its compensations already restore the pre-image.
	st, info, err := Recover(input([]wal.Record{
		rec(1, 1, wal.Update, 3, 0, 5),
		rec(2, 1, wal.Update, 3, 5, 0), // compensation
		rec(3, 1, wal.End, 0, 0, 0),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Ended[1] || info.Undone != 0 {
		t.Fatalf("info %+v", info)
	}
	if val(st, 3) != 0 {
		t.Fatalf("record 3 = %d", val(st, 3))
	}
}

func TestSnapshotPlusStartLSNSkipsPrefix(t *testing.T) {
	// Snapshot holds record 3 = 7 (LSN 2 already applied); StartLSN=3
	// skips redoing it, and a later committed update still lands.
	snap := map[int][]byte{0: {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0}}
	in := input([]wal.Record{
		rec(1, 1, wal.Begin, 0, 0, 0),
		rec(2, 1, wal.Update, 3, 0, 7),
		rec(3, 1, wal.Commit, 0, 0, 0),
		rec(4, 2, wal.Update, 3, 7, 9),
		rec(5, 2, wal.Commit, 0, 0, 0),
	})
	in.SnapshotPages = snap
	in.StartLSN, in.HaveStart = 4, true
	st, info, err := Recover(in)
	if err != nil {
		t.Fatal(err)
	}
	if info.Redone != 1 {
		t.Fatalf("redone %d, want only the post-snapshot update", info.Redone)
	}
	if val(st, 3) != 9 {
		t.Fatalf("record 3 = %d", val(st, 3))
	}
}

func TestRedoIsIdempotent(t *testing.T) {
	log := []wal.Record{
		rec(1, 1, wal.Update, 2, 0, 4),
		rec(2, 1, wal.Update, 2, 4, 6),
		rec(3, 1, wal.Commit, 0, 0, 0),
	}
	once, _, err := Recover(input(log))
	if err != nil {
		t.Fatal(err)
	}
	// Recovering from a snapshot that already contains the final state
	// (replaying everything again) converges to the same answer.
	in := input(log)
	in.SnapshotPages = map[int][]byte{0: once.PageImage(0)}
	twice, _, err := Recover(in)
	if err != nil {
		t.Fatal(err)
	}
	if !once.Equal(twice) {
		t.Fatal("redo not idempotent")
	}
}

func TestCompressedLoserWithoutPreImageFails(t *testing.T) {
	r := rec(1, 1, wal.Update, 3, 0, 7)
	r.Old = nil
	if _, _, err := Recover(input([]wal.Record{r})); err == nil {
		t.Fatal("loser without pre-image must be an error")
	}
}

func TestUnorderedLogRejected(t *testing.T) {
	if _, _, err := Recover(input([]wal.Record{
		rec(5, 1, wal.Update, 1, 0, 1),
		rec(2, 1, wal.Update, 1, 1, 2),
	})); err == nil {
		t.Fatal("unordered log accepted")
	}
}

func TestSnapshotInstallValidation(t *testing.T) {
	in := input(nil)
	in.SnapshotPages = map[int][]byte{99: bytes.Repeat([]byte{1}, 32)}
	if _, _, err := Recover(in); err == nil {
		t.Fatal("out-of-range snapshot page accepted")
	}
}

// TestChecksumCorruptRecordCutsLogMidPage flips one byte inside a
// mid-page update record: the tolerant page decode must stop at the last
// intact record, recovery must run on the surviving prefix (transaction 1
// committed, transaction 2 reduced to a harmless Begin), and everything
// encoded after the damage — including transaction 3's durable-looking
// commit on a later page — must be treated as never written.
func TestChecksumCorruptRecordCutsLogMidPage(t *testing.T) {
	page1 := []wal.Record{
		rec(1, 1, wal.Begin, 0, 0, 0),
		rec(2, 1, wal.Update, 1, 0, 7),
		rec(3, 1, wal.Commit, 0, 0, 0),
		rec(4, 2, wal.Begin, 0, 0, 0),
		rec(5, 2, wal.Update, 2, 0, 8),
	}
	page2 := []wal.Record{
		rec(6, 2, wal.Commit, 0, 0, 0),
		rec(7, 3, wal.Begin, 0, 0, 0),
		rec(8, 3, wal.Update, 3, 0, 9),
		rec(9, 3, wal.Commit, 0, 0, 0),
	}
	img1, err := wal.EncodePage(page1, 512)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := wal.EncodePage(page2, 512)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte in the pre-image of transaction 2's update, the last
	// record of page 1; the four records before it stay intact.
	intact := 0
	for _, r := range page1[:4] {
		intact += r.EncodedSize()
	}
	img1[6+intact+30] ^= 0xFF

	var log []wal.Record
	for _, img := range [][]byte{img1, img2} {
		recs, ok := wal.DecodePageTail(img)
		log = append(log, recs...)
		if !ok {
			break // FIFO device: nothing after a damaged page is durable
		}
	}
	if len(log) != 4 {
		t.Fatalf("decoded %d records from the damaged fragment, want 4", len(log))
	}

	st, info, err := Recover(inputPages(img1, img2))
	if err != nil {
		t.Fatalf("recovery over the cut log failed: %v", err)
	}
	if !info.Committed[1] || info.Committed[2] || info.Committed[3] {
		t.Fatalf("committed set wrong: %v", info.Committed)
	}
	if len(info.Losers) != 0 {
		t.Fatalf("no loser should have durable updates, got %v", info.Losers)
	}
	if val(st, 1) != 7 || val(st, 2) != 0 || val(st, 3) != 0 {
		t.Fatalf("state %d/%d/%d, want only transaction 1's update", val(st, 1), val(st, 2), val(st, 3))
	}
}

// TestDuplicateCommitRecordsAfterTornGroupCommit models the retry after a
// torn group-commit page: the same transaction's commit appears twice in
// the merged log (one copy from the partially surviving page, one
// re-logged). Recovery must count it once and produce the identical state.
func TestDuplicateCommitRecordsAfterTornGroupCommit(t *testing.T) {
	base := []wal.Record{
		rec(1, 1, wal.Begin, 0, 0, 0),
		rec(2, 1, wal.Update, 1, 0, 7),
		rec(3, 1, wal.Commit, 0, 0, 0),
	}
	dup := append(append([]wal.Record{}, base...), rec(6, 1, wal.Commit, 0, 0, 0))

	stBase, infoBase, err := Recover(input(base))
	if err != nil {
		t.Fatal(err)
	}
	stDup, infoDup, err := Recover(input(dup))
	if err != nil {
		t.Fatalf("duplicate commit broke recovery: %v", err)
	}
	if len(infoDup.Committed) != len(infoBase.Committed) {
		t.Fatalf("duplicate changed the committed set: %v vs %v", infoDup.Committed, infoBase.Committed)
	}
	if !stDup.Equal(stBase) {
		t.Fatal("duplicate commit changed the recovered state")
	}
}

// TestMergeCollapsesSameLSNAcrossFragments covers the other duplicate
// source: a record durable both on disk and still in stable memory shows
// up in two fragments with the same LSN, and the §5.2 sort-merge must
// keep exactly one copy.
func TestMergeCollapsesSameLSNAcrossFragments(t *testing.T) {
	fragA := []wal.Record{
		rec(1, 1, wal.Begin, 0, 0, 0),
		rec(2, 1, wal.Update, 1, 0, 7),
		rec(3, 1, wal.Commit, 0, 0, 0),
	}
	fragB := fragA[1:] // stable-memory survivors of the same records
	merged := wal.MergeFragments([][]wal.Record{fragA, fragB})
	if len(merged) != 3 {
		t.Fatalf("merge kept %d records, want 3", len(merged))
	}
	in := input(fragA)
	in.StableTail = fragB
	st, info, err := Recover(in)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Committed[1] || info.Redone != 1 || info.LogScanned != 3 {
		t.Fatalf("merged log misrecovered: %+v", info)
	}
	if val(st, 1) != 7 {
		t.Fatalf("merged log recovered %d, want 7", val(st, 1))
	}
}

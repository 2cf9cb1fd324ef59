package wal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"mmdb/internal/event"
)

func TestRecordRoundTrip(t *testing.T) {
	f := func(lsn uint64, txn uint64, rec uint64, old, new []byte) bool {
		if len(old) > 1000 || len(new) > 1000 {
			return true
		}
		r := Record{LSN: LSN(lsn), Txn: TxnID(txn), Type: Update, Rec: rec, Old: old, New: new}
		buf, err := r.AppendTo(nil)
		if err != nil {
			return false
		}
		got, n, err := DecodeRecord(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return got.LSN == r.LSN && got.Txn == r.Txn && got.Type == r.Type &&
			got.Rec == r.Rec && bytes.Equal(got.Old, old) && bytes.Equal(got.New, new)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	if _, _, err := DecodeRecord([]byte{1, 2}); err == nil {
		t.Error("truncated header accepted")
	}
	r := Record{LSN: 1, Txn: 2, Type: Update, Old: []byte("abc")}
	buf, _ := r.AppendTo(nil)
	if _, _, err := DecodeRecord(buf[:len(buf)-1]); err == nil {
		t.Error("truncated body accepted")
	}
	buf[16] = 99 // invalid type
	if _, _, err := DecodeRecord(buf); err == nil {
		t.Error("invalid type accepted")
	}
}

func TestPageRoundTripAndCorruption(t *testing.T) {
	records := []Record{
		{LSN: 1, Txn: 5, Type: Begin},
		{LSN: 2, Txn: 5, Type: Update, Rec: 9, Old: []byte("old"), New: []byte("new")},
		{LSN: 3, Txn: 5, Type: Commit},
	}
	img, err := EncodePage(records, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 512 {
		t.Fatalf("page image %d bytes", len(img))
	}
	got, intact := DecodePageTail(img)
	if !intact {
		t.Fatal("freshly encoded page does not decode whole")
	}
	if len(got) != 3 || got[1].Rec != 9 || string(got[1].New) != "new" {
		t.Fatalf("decoded %+v", got)
	}
	// Overflow rejected.
	var many []Record
	for i := 0; i < 100; i++ {
		many = append(many, Record{LSN: LSN(i), Type: Begin})
	}
	if _, err := EncodePage(many, 512); err == nil {
		t.Error("overfull page accepted")
	}
	// Corrupt header.
	img[2] = 0xFF
	if _, intact := DecodePageTail(img); intact {
		t.Error("corrupt payload length accepted")
	}
}

func TestRecordChecksumDetectsCorruption(t *testing.T) {
	r := Record{LSN: 9, Txn: 2, Type: Update, Rec: 1, Old: []byte("aaa"), New: []byte("bbb")}
	buf, _ := r.AppendTo(nil)
	for _, i := range []int{0, recordHeader, len(buf) - 1} {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, _, err := DecodeRecord(bad); err == nil {
			t.Errorf("flipped byte %d accepted", i)
		}
	}
	// Checksum failures are identifiable for tolerant tail decoding.
	bad := append([]byte(nil), buf...)
	bad[recordHeader] ^= 0x40
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("corruption error %v is not ErrChecksum", err)
	}
}

func TestDecodePageTail(t *testing.T) {
	records := []Record{
		{LSN: 1, Txn: 5, Type: Begin},
		{LSN: 2, Txn: 5, Type: Update, Rec: 9, Old: []byte("old"), New: []byte("new")},
		{LSN: 3, Txn: 5, Type: Commit},
	}
	img, err := EncodePage(records, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got, intact := DecodePageTail(img); !intact || len(got) != 3 {
		t.Fatalf("intact page: %d records, intact=%v", len(got), intact)
	}
	// Torn to a byte prefix inside record 3: records 1-2 survive.
	cut := pageHeader + records[0].EncodedSize() + records[1].EncodedSize() + 5
	if got, intact := DecodePageTail(img[:cut]); intact || len(got) != 2 || got[1].LSN != 2 {
		t.Fatalf("torn page: %d records, intact=%v", len(got), intact)
	}
	// A bit flip mid-page cuts the tail at the corrupt record.
	bad := append([]byte(nil), img...)
	bad[pageHeader+records[0].EncodedSize()+3] ^= 0x01
	if got, intact := DecodePageTail(bad); intact || len(got) != 1 {
		t.Fatalf("corrupt page: %d records, intact=%v", len(got), intact)
	}
	// Degenerate inputs.
	if got, intact := DecodePageTail(img[:3]); intact || got != nil {
		t.Fatalf("sub-header input: %v %v", got, intact)
	}
}

func TestWithoutOldHalvesUpdateSize(t *testing.T) {
	r := Record{Type: Update, Old: make([]byte, 100), New: make([]byte, 100)}
	if got := r.WithoutOld().EncodedSize(); got != r.EncodedSize()-100 {
		t.Fatalf("compressed size %d", got)
	}
}

// durablePages flattens a log device's crash view at t into its page
// images, in write order.
func durablePages(d *Device, t time.Duration) [][]byte {
	var out [][]byte
	for _, s := range d.DurableSegments(t).Segments {
		out = append(out, s.Pages...)
	}
	return out
}

func TestDeviceFIFOAndDurablePrefix(t *testing.T) {
	d := NewDevice("log", 10*time.Millisecond)
	d.EnableSegments(2) // the third page rotates into a second segment
	t1, _ := d.Write(0, []byte{1})
	t2, _ := d.Write(0, []byte{2})
	t3, _ := d.Write(25*time.Millisecond, []byte{3})
	if t1 != 10*time.Millisecond || t2 != 20*time.Millisecond || t3 != 35*time.Millisecond {
		t.Fatalf("completions %v %v %v", t1, t2, t3)
	}
	if got := len(durablePages(d, 20*time.Millisecond)); got != 2 {
		t.Fatalf("durable at 20ms: %d", got)
	}
	// A page mid-write (crash at 30ms, write completes at 35) is torn.
	if got := len(durablePages(d, 30*time.Millisecond)); got != 2 {
		t.Fatalf("torn page counted: %d", got)
	}
	if got := len(durablePages(d, 35*time.Millisecond)); got != 3 {
		t.Fatalf("durable at 35ms: %d", got)
	}
}

func TestMergeFragments(t *testing.T) {
	a := []Record{{LSN: 1}, {LSN: 4}, {LSN: 6}}
	b := []Record{{LSN: 2}, {LSN: 3}, {LSN: 5}}
	c := []Record{{LSN: 3}, {LSN: 7}} // duplicate LSN 3 collapses
	out := MergeFragments([][]Record{a, b, c})
	want := []LSN{1, 2, 3, 4, 5, 6, 7}
	if len(out) != len(want) {
		t.Fatalf("merged %d records", len(out))
	}
	for i, r := range out {
		if r.LSN != want[i] {
			t.Fatalf("position %d: LSN %d", i, r.LSN)
		}
	}
	if got := MergeFragments(nil); len(got) != 0 {
		t.Fatal("empty merge")
	}
}

func newGroupLog(t *testing.T, sim *event.Sim, devices int) *Log {
	t.Helper()
	var devs []*Device
	for i := 0; i < devices; i++ {
		devs = append(devs, NewDevice("log", 10*time.Millisecond))
	}
	l, err := NewLog(sim, Config{Policy: GroupCommit, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestGroupCommitBatchesCommits(t *testing.T) {
	sim := &event.Sim{}
	l := newGroupLog(t, sim, 1)
	var committed []TxnID
	l.SetOnCommit(func(id TxnID) { committed = append(committed, id) })
	for i := 1; i <= 5; i++ {
		id := TxnID(i)
		l.Append(Record{Txn: id, Type: Begin})
		l.Append(Record{Txn: id, Type: Update, Rec: 1, Old: make([]byte, 40), New: make([]byte, 40)})
		l.AppendCommit(id, nil)
	}
	sim.Run()
	if len(committed) != 5 {
		t.Fatalf("committed %d of 5", len(committed))
	}
	st := l.Stats()
	if st.Groups < 1 || st.MeanGroupSize() < 2 {
		t.Fatalf("no batching: %+v", st)
	}
}

func TestFlushPerCommitWritesOnePagePerCommit(t *testing.T) {
	sim := &event.Sim{}
	devs := []*Device{NewDevice("log", 10*time.Millisecond)}
	l, err := NewLog(sim, Config{Policy: FlushPerCommit, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	l.SetOnCommit(func(TxnID) { n++ })
	for i := 1; i <= 4; i++ {
		l.Append(Record{Txn: TxnID(i), Type: Begin})
		l.AppendCommit(TxnID(i), nil)
	}
	sim.Run()
	if n != 4 {
		t.Fatalf("committed %d", n)
	}
	if got := devs[0].PagesWritten(); got != 4 {
		t.Fatalf("%d pages for 4 commits", got)
	}
	if sim.Now() != 40*time.Millisecond {
		t.Fatalf("4 serial writes should take 40ms, took %v", sim.Now())
	}
}

func TestTopologicalOrderingAcrossDevices(t *testing.T) {
	// Txn 1 and txn 2 land on different fragments (ids mod devices); make
	// 2 depend on 1 and verify 2 never commits before 1, even though 2's
	// device is idle first.
	sim := &event.Sim{}
	l := newGroupLog(t, sim, 2)
	var order []TxnID
	var times []time.Duration
	l.SetOnCommit(func(id TxnID) {
		order = append(order, id)
		times = append(times, sim.Now())
	})
	// Busy up fragment of txn 1 (device index 1%2=1) so its commit group
	// finishes late.
	filler := Record{Txn: 1, Type: Update, Rec: 0, Old: make([]byte, 1500), New: make([]byte, 1500)}
	l.Append(filler)
	l.Append(Record{Txn: 1, Type: Begin})
	l.AppendCommit(1, nil)
	// Txn 2 on the other fragment depends on txn 1.
	l.Append(Record{Txn: 2, Type: Begin})
	l.AppendCommit(2, []TxnID{1})
	sim.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("commit order %v", order)
	}
	if times[1] < times[0] {
		t.Fatalf("dependent committed at %v before dependency at %v", times[1], times[0])
	}
}

func TestStableMemoryCommitsImmediatelyAndSurvivesCrash(t *testing.T) {
	sim := &event.Sim{}
	devs := []*Device{NewDevice("log", 10*time.Millisecond)}
	l, err := NewLog(sim, Config{Policy: StableMemory, Devices: devs, StableCapacity: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	committedAt := time.Duration(-1)
	l.SetOnCommit(func(TxnID) { committedAt = sim.Now() })
	l.Append(Record{Txn: 1, Type: Begin})
	l.Append(Record{Txn: 1, Type: Update, Rec: 1, Old: []byte("o"), New: []byte("n")})
	l.AppendCommit(1, nil)
	if committedAt != 0 {
		t.Fatalf("stable commit delayed to %v", committedAt)
	}
	// Crash right now: nothing on disk yet, but stable memory survives.
	recs, err := l.DurableRecords(sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("durable records %d, want 3 (stable memory survives)", len(recs))
	}
}

func TestStableBackpressure(t *testing.T) {
	sim := &event.Sim{}
	devs := []*Device{NewDevice("log", 10*time.Millisecond)}
	l, err := NewLog(sim, Config{Policy: StableMemory, Devices: devs, StableCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	drained := 0
	l.SetOnDrain(func() { drained++ })
	big := Record{Txn: 1, Type: Update, Rec: 1, Old: make([]byte, 400), New: make([]byte, 400)}
	accepted := 0
	for i := 0; i < 100; i++ {
		if _, ok := l.Append(big); ok {
			accepted++
		} else {
			break
		}
	}
	if accepted >= 100 {
		t.Fatal("no backpressure at 4 KB capacity")
	}
	sim.Run()
	if drained == 0 {
		t.Fatal("drain callback never fired")
	}
	// After draining, appends are accepted again.
	if _, ok := l.Append(big); !ok {
		t.Fatal("append still refused after drain")
	}
}

func TestCompressionDropsOldValuesOfCommittedOnly(t *testing.T) {
	sim := &event.Sim{}
	devs := []*Device{NewDevice("log", 10*time.Millisecond)}
	l, err := NewLog(sim, Config{Policy: StableMemory, Devices: devs, Compress: true, StableCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Committed txn 1, uncommitted txn 2.
	l.Append(Record{Txn: 1, Type: Update, Rec: 1, Old: make([]byte, 100), New: make([]byte, 100)})
	l.AppendCommit(1, nil)
	l.Append(Record{Txn: 2, Type: Update, Rec: 2, Old: make([]byte, 100), New: make([]byte, 100)})
	l.Flush()
	sim.Run()
	recs, err := l.DurableRecords(sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type != Update {
			continue
		}
		switch r.Txn {
		case 1:
			if len(r.Old) != 0 {
				t.Fatal("committed txn's old value not compressed away")
			}
		case 2:
			if len(r.Old) != 100 {
				t.Fatal("uncommitted txn's old value was dropped (needed for undo)")
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	sim := &event.Sim{}
	if _, err := NewLog(sim, Config{}); err == nil {
		t.Error("no devices accepted")
	}
	devs := []*Device{NewDevice("l", time.Millisecond)}
	if _, err := NewLog(sim, Config{Devices: devs, PageSize: 10}); err == nil {
		t.Error("tiny page accepted")
	}
	if _, err := NewLog(sim, Config{Devices: devs, Compress: true, Policy: GroupCommit}); err == nil {
		t.Error("compression without stable memory accepted")
	}
}

func TestDurableLSNAdvances(t *testing.T) {
	sim := &event.Sim{}
	l := newGroupLog(t, sim, 1)
	l.Append(Record{Txn: 1, Type: Begin})
	l.AppendCommit(1, nil)
	if l.DurableLSN() != 0 {
		t.Fatalf("durable LSN %d before any write completes", l.DurableLSN())
	}
	sim.Run()
	if l.DurableLSN() != 2 {
		t.Fatalf("durable LSN %d after flush, want 2", l.DurableLSN())
	}
}

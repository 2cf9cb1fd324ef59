package heap

import (
	"fmt"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

func env() (*simio.Disk, *cost.Clock) {
	clock := cost.NewClock(cost.DefaultParams())
	return simio.NewDisk(clock, 256), clock
}

func schema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.Int64},
		tuple.Field{Name: "p", Kind: tuple.String, Size: 12},
	)
}

func TestAppendScanRoundTrip(t *testing.T) {
	disk, _ := env()
	f := MustCreate(disk, "r", schema())
	const n = 100
	for i := int64(0); i < n; i++ {
		if err := f.Append(schema().MustEncode(tuple.IntValue(i), tuple.StringValue("x")), simio.Uncharged); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumTuples() != n {
		t.Fatalf("tuples = %d", f.NumTuples())
	}
	// 252/20 = 12 tuples/page -> 100 tuples = 9 pages (8 full + buffer).
	if f.TuplesPerPage() != 12 {
		t.Fatalf("tuples/page = %d", f.TuplesPerPage())
	}
	var got []int64
	err := f.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
		got = append(got, schema().Int(tp, 0))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scanned %d", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

func TestScanIncludesUnflushedBuffer(t *testing.T) {
	disk, _ := env()
	f := MustCreate(disk, "r", schema())
	f.Append(schema().MustEncode(tuple.IntValue(1), tuple.StringValue("a")), simio.Uncharged)
	count := 0
	f.Scan(simio.Uncharged, func(tuple.Tuple) bool { count++; return true })
	if count != 1 {
		t.Fatalf("scan of buffered tuple saw %d", count)
	}
	if f.NumPages() != 1 {
		t.Fatalf("pages = %d", f.NumPages())
	}
}

func TestFlushChargesAndScanCharges(t *testing.T) {
	disk, clock := env()
	f := MustCreate(disk, "r", schema())
	for i := 0; i < 30; i++ { // 12/page: 2 full pages + partial
		f.Append(schema().MustEncode(tuple.IntValue(int64(i)), tuple.StringValue("a")), simio.Seq)
	}
	if err := f.Flush(simio.Seq); err != nil {
		t.Fatal(err)
	}
	if got := clock.Counters().SeqIOs; got != 3 {
		t.Fatalf("writes charged %d, want 3", got)
	}
	clock.Reset()
	f.Scan(simio.Rand, func(tuple.Tuple) bool { return true })
	if got := clock.Counters().RandIOs; got != 3 {
		t.Fatalf("scan charged %d rand IOs, want 3", got)
	}
}

func TestEarlyScanStop(t *testing.T) {
	disk, _ := env()
	f := MustCreate(disk, "r", schema())
	f.Load([]tuple.Tuple{
		schema().MustEncode(tuple.IntValue(1), tuple.StringValue("a")),
		schema().MustEncode(tuple.IntValue(2), tuple.StringValue("b")),
	})
	n := 0
	f.Scan(simio.Uncharged, func(tuple.Tuple) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop saw %d", n)
	}
}

func TestWidthMismatchRejected(t *testing.T) {
	disk, _ := env()
	f := MustCreate(disk, "r", schema())
	if err := f.Append(make(tuple.Tuple, 3), simio.Uncharged); err == nil {
		t.Fatal("short tuple accepted")
	}
}

func TestReadPageBounds(t *testing.T) {
	disk, _ := env()
	f := MustCreate(disk, "r", schema())
	if _, err := f.ReadPage(0, simio.Uncharged); err == nil {
		t.Fatal("read of empty file succeeded")
	}
}

func TestDrop(t *testing.T) {
	disk, _ := env()
	f := MustCreate(disk, "r", schema())
	f.Load([]tuple.Tuple{schema().MustEncode(tuple.IntValue(1), tuple.StringValue("a"))})
	f.Drop()
	if f.NumTuples() != 0 || f.NumPages() != 0 {
		t.Fatal("drop left data")
	}
	// The name is free again.
	if _, err := Create(disk, "r", schema()); err != nil {
		t.Fatalf("name not released: %v", err)
	}
}

// TestRewriteWrongWidthReturnsError: a rewrite whose fn keeps a tuple of
// the wrong width returns an error and leaves every tuple in place.
func TestRewriteWrongWidthReturnsError(t *testing.T) {
	disk, _ := env()
	f := MustCreate(disk, "r", schema())
	const n = 30
	for i := int64(0); i < n; i++ {
		if err := f.Append(schema().MustEncode(tuple.IntValue(i), tuple.StringValue("x")), simio.Uncharged); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(simio.Uncharged); err != nil {
		t.Fatal(err)
	}
	err := f.Rewrite(func(tp tuple.Tuple) (tuple.Tuple, bool) {
		if schema().Int(tp, 0) == 20 {
			return tp[:4], true
		}
		return nil, false // drops every other tuple, if the rewrite ran
	})
	if err == nil {
		t.Fatal("wrong-width tuple accepted")
	}
	var keys []int64
	if err := f.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
		keys = append(keys, schema().Int(tp, 0))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if f.NumTuples() != n || len(keys) != n || keys[0] != 0 || keys[n-1] != n-1 {
		t.Fatalf("failed rewrite changed the file: %d tuples, keys %v", f.NumTuples(), keys)
	}
}

func keyed(k int64) tuple.Tuple {
	return schema().MustEncode(tuple.IntValue(k), tuple.StringValue("x"))
}

func scanKeys(t *testing.T, f *File) []int64 {
	t.Helper()
	var keys []int64
	if err := f.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
		keys = append(keys, schema().Int(tp, 0))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestInsertDeleteReusesSlots: a deleted slot disappears from scans and
// fetches, keeps every other RID where it was, and Insert refills freed
// slots most recent first before it appends.
func TestInsertDeleteReusesSlots(t *testing.T) {
	disk, _ := env()
	f := MustCreate(disk, "r", schema())
	rids := map[int64]RID{}
	for k := int64(0); k < 30; k++ { // 12/page: pages 0, 1 full, 6 on page 2
		rid, err := f.Insert(keyed(k))
		if err != nil {
			t.Fatal(err)
		}
		if want := (RID{Page: int32(k / 12), Slot: int32(k % 12)}); rid != want {
			t.Fatalf("insert %d at %v, want %v", k, rid, want)
		}
		rids[k] = rid
	}
	if err := f.Flush(simio.Uncharged); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{3, 15, 29} {
		if err := f.Delete(rids[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Delete(rids[15]); err == nil {
		t.Fatal("second delete of one slot accepted")
	}
	if _, err := f.Fetch(rids[3]); err == nil {
		t.Fatal("fetch of a dead slot succeeded")
	}
	if err := f.Delete(RID{Page: 2, Slot: 7}); err == nil {
		t.Fatal("delete past the last tuple accepted")
	}
	if f.NumTuples() != 27 || f.NumPages() != 3 || len(scanKeys(t, f)) != 27 {
		t.Fatalf("after deletes: %d tuples, %d pages, scan %v", f.NumTuples(), f.NumPages(), scanKeys(t, f))
	}
	for _, c := range []struct {
		k   int64
		rid RID
	}{{100, rids[29]}, {101, rids[15]}, {102, rids[3]}, {103, RID{Page: 2, Slot: 6}}} {
		rid, err := f.Insert(keyed(c.k))
		if err != nil || rid != c.rid {
			t.Fatalf("insert %d at %v (%v), want %v", c.k, rid, err, c.rid)
		}
		got, err := f.Fetch(rid)
		if err != nil || schema().Int(got, 0) != c.k {
			t.Fatalf("fetch %v: %v, %v", rid, got, err)
		}
	}
	var want []int64
	for k := int64(0); k < 29; k++ {
		switch k {
		case 3:
			want = append(want, 102)
		case 15:
			want = append(want, 101)
		default:
			want = append(want, k)
		}
	}
	want = append(want, 100, 103)
	if got := scanKeys(t, f); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan %v, want %v", got, want)
	}
	if f.NumTuples() != 31 || f.NumPages() != 3 {
		t.Fatalf("%d tuples, %d pages", f.NumTuples(), f.NumPages())
	}
}

// servedFromBuffer reports whether ReadPage serves f's last page from the
// append buffer rather than from the stored page.
func servedFromBuffer(t *testing.T, f *File) bool {
	t.Helper()
	p, err := f.ReadPage(f.NumPages()-1, simio.Uncharged)
	if err != nil {
		t.Fatal(err)
	}
	return &p.Bytes()[0] == &f.cur.Bytes()[0]
}

// TestFlushKeepsFillingTailPage: Flush writes the partial tail page in
// place and later appends keep filling it, so a file flushed after every
// tuple occupies the same pages as one flushed once.
func TestFlushKeepsFillingTailPage(t *testing.T) {
	disk, clock := env()
	f := MustCreate(disk, "r", schema())
	for k := int64(0); k < 30; k++ {
		if err := f.Append(keyed(k), simio.Seq); err != nil {
			t.Fatal(err)
		}
		if !servedFromBuffer(t, f) {
			t.Fatalf("tuple %d not served from the append buffer", k)
		}
		if err := f.Flush(simio.Seq); err != nil {
			t.Fatal(err)
		}
		if servedFromBuffer(t, f) {
			t.Fatalf("flushed tail still reads from the buffer")
		}
	}
	if f.NumPages() != 3 {
		t.Fatalf("30 flushed appends occupy %d pages, want 3", f.NumPages())
	}
	if got := clock.Counters().SeqIOs; got != 30 {
		t.Fatalf("30 flushes charged %d writes", got)
	}
	if err := f.Flush(simio.Seq); err != nil || clock.Counters().SeqIOs != 30 {
		t.Fatalf("flush of a clean tail wrote (%v)", err)
	}
	clock.Reset()
	if keys := scanKeys(t, f); len(keys) != 30 || keys[29] != 29 {
		t.Fatalf("scan %v", keys)
	}
	p, err := f.ReadPage(2, simio.Seq)
	if err != nil || p.Count() != 6 || clock.Counters().SeqIOs != 1 {
		t.Fatalf("tail page: %d tuples, %d IOs, %v", p.Count(), clock.Counters().SeqIOs, err)
	}
}

// TestRewriteVacuumsDeadSlots: Rewrite is the vacuum — it compacts the
// live tuples, and clears the live-slot map and the free-slot list, so
// the next Insert appends.
func TestRewriteVacuumsDeadSlots(t *testing.T) {
	disk, _ := env()
	f := MustCreate(disk, "r", schema())
	var rids []RID
	for k := int64(0); k < 30; k++ {
		rid, err := f.Insert(keyed(k))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, k := range []int{0, 5, 12, 13, 20} {
		if err := f.Delete(rids[k]); err != nil {
			t.Fatal(err)
		}
	}
	before := scanKeys(t, f)
	if err := f.Rewrite(func(tp tuple.Tuple) (tuple.Tuple, bool) { return tp, true }); err != nil {
		t.Fatal(err)
	}
	if got := scanKeys(t, f); fmt.Sprint(got) != fmt.Sprint(before) || f.NumTuples() != 25 || f.NumPages() != 3 {
		t.Fatalf("vacuum: %d tuples on %d pages, scan %v, want %v", f.NumTuples(), f.NumPages(), got, before)
	}
	if len(f.dead) != 0 || len(f.free) != 0 {
		t.Fatalf("vacuum kept %d dead pages, %d free slots", len(f.dead), len(f.free))
	}
	if rid, err := f.Insert(keyed(99)); err != nil || rid != (RID{Page: 2, Slot: 1}) {
		t.Fatalf("insert after vacuum at %v (%v), want the end", rid, err)
	}
}

// TestCopyToIsPhysical: a copy keeps every RID and the free-slot order, so
// the same Insert lands in the same slot of both files.
func TestCopyToIsPhysical(t *testing.T) {
	disk, _ := env()
	src := MustCreate(disk, "r", schema())
	var rids []RID
	for k := int64(0); k < 30; k++ {
		rid, _ := src.Insert(keyed(k))
		rids = append(rids, rid)
	}
	for _, k := range []int{4, 17, 9} {
		if err := src.Delete(rids[k]); err != nil {
			t.Fatal(err)
		}
	}
	other, _ := env()
	dst := MustCreate(other, "r", schema())
	if err := src.CopyTo(dst); err != nil {
		t.Fatal(err)
	}
	if err := src.CopyTo(dst); err == nil {
		t.Fatal("copy into a non-empty file accepted")
	}
	for i := int64(0); i < 5; i++ {
		a, errA := src.Insert(keyed(200 + i))
		b, errB := dst.Insert(keyed(200 + i))
		if errA != nil || errB != nil || a != b {
			t.Fatalf("insert %d: source slot %v, copy slot %v (%v, %v)", i, a, b, errA, errB)
		}
	}
	if a, b := scanKeys(t, src), scanKeys(t, dst); fmt.Sprint(a) != fmt.Sprint(b) || src.NumTuples() != dst.NumTuples() {
		t.Fatalf("copy diverges: %v vs %v", a, b)
	}
}

package heap

import (
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

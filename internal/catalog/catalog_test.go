package catalog

import (
	"bytes"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
	"mmdb/internal/workload"
)

func env() (*simio.Disk, *Catalog) {
	disk := simio.NewDisk(cost.NewClock(cost.DefaultParams()), 256)
	return disk, New(disk)
}

func schema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.Int64},
		tuple.Field{Name: "p", Kind: tuple.String, Size: 12},
	)
}

func TestCreateGetDrop(t *testing.T) {
	_, c := env()
	r, err := c.Create("emp", schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("emp", schema()); err == nil {
		t.Fatal("duplicate create accepted")
	}
	got, err := c.Get("emp")
	if err != nil || got != r {
		t.Fatalf("get: %v", err)
	}
	if _, err := c.Get("none"); err == nil {
		t.Fatal("missing relation found")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "emp" {
		t.Fatalf("names %v", names)
	}
	if err := c.Drop("emp"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("emp"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

func TestAdopt(t *testing.T) {
	disk, c := env()
	f := workload.MustGenerate(disk, workload.RelationSpec{Name: "w", Tuples: 10, PayloadWidth: 12, Seed: 1})
	if _, err := c.Adopt(f); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Adopt(f); err == nil {
		t.Fatal("double adopt accepted")
	}
}

func TestIndexesBothKinds(t *testing.T) {
	disk, c := env()
	f := workload.MustGenerate(disk, workload.RelationSpec{Name: "w", Tuples: 500, KeyDomain: 100, PayloadWidth: 12, Seed: 2})
	r, err := c.Adopt(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []IndexKind{BTree, AVL} {
		col := 0
		ix, err := c.BuildIndex("w", col, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if ix.Kind() != kind {
			t.Fatalf("kind %v", ix.Kind())
		}
		if ix.Len() != 500 {
			t.Fatalf("%v indexed %d tuples", kind, ix.Len())
		}
		// All tuples with each key found.
		sc := r.Schema()
		counts := map[int64]int{}
		f.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
			counts[sc.Int(tp, 0)]++
			return true
		})
		for k, n := range counts {
			probe := sc.MustEncode(tuple.IntValue(k), tuple.StringValue(""))
			if got := len(ix.Search(sc.KeyBytes(probe, 0))); got != n {
				t.Fatalf("%v: key %d found %d of %d", kind, k, got, n)
			}
		}
		// Ascend covers everything in key order, and each RID addresses a
		// row carrying its key.
		var last int64 = -1 << 62
		n := 0
		ix.Ascend(nil, func(key []byte, rid heap.RID) bool {
			row, err := f.Fetch(rid)
			if err != nil || !bytes.Equal(sc.KeyBytes(row, 0), key) || sc.Int(row, 0) < last {
				t.Fatalf("%v: entry %d: rid %v row %v (%v) out of order or off its key", kind, n, rid, row, err)
			}
			last = sc.Int(row, 0)
			n++
			return true
		})
		if n != 500 {
			t.Fatalf("%v: ascend visited %d", kind, n)
		}
	}
	if cols := r.IndexedColumns(); len(cols) != 1 || cols[0] != 0 {
		t.Fatalf("indexed columns %v", cols)
	}
	if _, err := c.BuildIndex("w", 9, BTree); err == nil {
		t.Fatal("bad column accepted")
	}
}

func TestStats(t *testing.T) {
	disk, c := env()
	f := workload.MustGenerate(disk, workload.RelationSpec{Name: "w", Tuples: 300, KeyDomain: 40, PayloadWidth: 12, Seed: 3})
	if _, err := c.Adopt(f); err != nil {
		t.Fatal(err)
	}
	s, err := c.Stats("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tuples != 300 || s.TuplesPerPage != 12 {
		t.Fatalf("stats %+v", s)
	}
	if d := s.Distinct[0]; d < 30 || d > 40 {
		t.Fatalf("distinct(key) = %d, domain 40", d)
	}
}

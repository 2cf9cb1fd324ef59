package mmdb

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// scanRows is the scan fixture's size: point_read's emp, 100 rows per
// dept.
const scanRows = 20000

// newScanDB opens a database with default options holding point_read's
// table: emp(id, dept, salary) of scanRows rows, dept = i%200+1, with a
// B+-tree on id (which no dept WHERE can use).
func newScanDB(tb testing.TB) *Database {
	tb.Helper()
	return newScanDBWidth(tb, 0)
}

// newScanDBWidth is newScanDB with its operators fanned out over
// parallelism workers.
func newScanDBWidth(tb testing.TB, parallelism int) *Database {
	tb.Helper()
	db := MustOpen(Options{Parallelism: parallelism})
	emp, err := db.CreateRelation("emp", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "dept", Kind: Int64},
		Field{Name: "salary", Kind: Int64},
	))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < scanRows; i++ {
		if err := emp.Insert(IntValue(int64(i+1)), IntValue(int64(i%200+1)), IntValue(int64(40000+i%1000))); err != nil {
			tb.Fatal(err)
		}
	}
	if err := emp.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := emp.CreateIndex("id", BTree); err != nil {
		tb.Fatal(err)
	}
	return db
}

// scanShapes are the scan fixture's two full-table reads: a filtered scan
// returning one dept, and an unfiltered projection returning every row.
var scanShapes = []struct {
	name, q string
	rows    int
}{
	{"where_dept", "SELECT * FROM emp WHERE dept = 37", scanRows / 200},
	{"all", "SELECT id FROM emp", scanRows},
}

// BenchmarkSQLScan times the scan fixture's full-table reads end to end
// through Database.Query (parse, bind, admission, scan, result rows).
func BenchmarkSQLScan(b *testing.B) {
	db := newScanDB(b)
	for _, c := range scanShapes {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(c.q)
				if err != nil || len(res.Rows) != c.rows {
					b.Fatal(fmt.Sprint(c.q, ": ", err, " rows ", len(res.Rows)))
				}
			}
		})
	}
}

// TestSQLFilterChargeAtEveryExit: a read bills its WHERE once per page,
// leaves × rows examined, and the totals equal one charge per row at
// every exit. On the lowering fixture (600 rows, 6 to a page, dept =
// i%7+1) a two-leaf WHERE examines every row when it runs to the end,
// the rows up to the one that satisfies its LIMIT when that stops it,
// and the rows of every page it read before a device failure.
func TestSQLFilterChargeAtEveryExit(t *testing.T) {
	db := newLoweringDB(t)
	const where = "SELECT id FROM emp WHERE dept = 3 AND salary >= 0"
	for _, c := range []struct {
		q        string
		examined int64
	}{
		{where, 600},
		// dept 3 is i%7 = 2: the fifth match is row 30.
		{where + " LIMIT 5", 31},
	} {
		res, err := db.Query(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.Comps != 2*c.examined {
			t.Errorf("%s: %d comparisons, want 2 × %d rows examined", c.q, res.Counters.Comps, c.examined)
		}
	}

	for _, after := range []int64{1, 7, 40} {
		db.ArmFaults(NewFaultInjector(1).PermanentAfter("", after))
		s, err := db.NewSession(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Query(where); !errors.Is(err, ErrFaultPermanent) {
			t.Fatalf("failure after %d IOs: got %v", after, err)
		}
		got := s.clock.Counters()
		s.Close()
		db.ArmFaults(nil)
		if got.SeqIOs != after || got.Comps != 2*6*got.SeqIOs {
			t.Errorf("failure after %d IOs: %d comparisons over %d pages read, want 2 × 6 rows a page", after, got.Comps, got.SeqIOs)
		}
	}
}

package mmdb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// newLoweringDB is a fixture big enough to spill: 600-row emp (~100
// pages of 256 B) against an 8-page grant, so the sort forms runs, the
// joins partition and the aggregates overflow their group table.
func newLoweringDB(t testing.TB) *Database {
	t.Helper()
	return newLoweringDBWidth(t, 0)
}

// newLoweringDBWidth is newLoweringDB with its operators fanned out over
// parallelism workers.
func newLoweringDBWidth(t testing.TB, parallelism int) *Database {
	t.Helper()
	return loadLoweringDB(t, Options{PageSize: 256, MemoryPages: 8, Parallelism: parallelism})
}

// loadLoweringDB opens a database with opts and loads the lowering
// fixture into it.
func loadLoweringDB(t testing.TB, opts Options) *Database {
	t.Helper()
	db := MustOpen(opts)
	emp, err := db.CreateRelation("emp", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "dept", Kind: Int64},
		Field{Name: "salary", Kind: Int64},
		Field{Name: "name", Kind: String, Size: 16},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := emp.Insert(IntValue(int64(i+1)), IntValue(int64(i%7+1)),
			IntValue(int64(40000+(i*37%600)*10)), StringValue(fmt.Sprintf("n%02d", i%53))); err != nil {
			t.Fatal(err)
		}
	}
	dept, err := db.CreateRelation("dept", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "budget", Kind: Int64},
		Field{Name: "city", Kind: String, Size: 12},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := dept.Insert(IntValue(int64(i+1)), IntValue(int64(100*(i+1))), StringValue(fmt.Sprintf("city%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	proj, err := db.CreateRelation("proj", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "dept", Kind: Int64},
		Field{Name: "hours", Kind: Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := proj.Insert(IntValue(int64(i+1)), IntValue(int64(i%5+1)), IntValue(int64(10*(i%9+1)))); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*Relation{emp, dept, proj} {
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// selectForms is one row per source the SELECT lowering picks, the
// planned one with two tables and with three; order is "" where ORDER BY
// is illegal (the single-row aggregate).
var selectForms = []struct{ name, sel, where, group, order string }{
	{"scan", "SELECT id, name FROM emp", "salary >= 43000 AND id != 17", "", "salary"},
	{"distinct", "SELECT dept FROM emp", "salary >= 43000", "GROUP BY dept", "dept"},
	{"distinct-string", "SELECT name FROM emp", "salary >= 43000", "GROUP BY name", "name"},
	{"grouped", "SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp", "salary >= 43000 OR id = 3", "GROUP BY dept", "dept"},
	{"global", "SELECT COUNT(*), SUM(salary), MIN(id), MAX(salary), AVG(id) FROM emp", "NOT (salary < 43000)", "", ""},
	{"join-two", "SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id", "salary >= 43000 AND budget > 200", "", "emp.id"},
	{"join-three", "SELECT emp.id, proj.id, city FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id", "salary >= 45000 AND hours > 20", "", "emp.id"},
}

// selectStatements expands every form × {WHERE, none} × {ASC, DESC,
// none} × {LIMIT, none}.
func selectStatements() []string {
	var out []string
	for _, f := range selectForms {
		for _, where := range []string{"", " WHERE " + f.where} {
			orders := []string{""}
			if f.order != "" {
				orders = append(orders, " ORDER BY "+f.order, " ORDER BY "+f.order+" DESC")
			}
			for _, order := range orders {
				for _, limit := range []string{"", " LIMIT 7"} {
					q := f.sel + where
					if f.group != "" {
						q += " " + f.group
					}
					out = append(out, q+order+limit)
				}
			}
		}
	}
	return out
}

// pinnedSelect is what one statement returned and charged at the commit
// before the six exec* executors became one lowering: the oracle.
type pinnedSelect struct {
	q           string
	rows        int
	first, last string
	counters    Counters
	elapsed     time.Duration
}

func observeSelect(t *testing.T, db *Database, q string) pinnedSelect {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	got := pinnedSelect{q: q, rows: len(res.Rows), counters: res.Counters, elapsed: res.Elapsed}
	if v := res.Values(); len(v) > 0 {
		got.first, got.last = fmt.Sprint(v[0]), fmt.Sprint(v[len(v)-1])
	}
	return got
}

// TestSQLSelectLoweringPinned: every SELECT form returns the rows, in
// the order, for the charges it did before the lowering was unified.
func TestSQLSelectLoweringPinned(t *testing.T) {
	db := newLoweringDB(t)
	stmts := selectStatements()
	if len(stmts) != len(pinnedSelects) {
		t.Fatalf("%d statements, %d pinned", len(stmts), len(pinnedSelects))
	}
	for i, q := range stmts {
		if got := observeSelect(t, db, q); got != pinnedSelects[i] {
			c := got.counters
			t.Errorf("drifted from the pinned oracle; got:\n\t{%q, %d, %q, %q, Counters{Comps: %d, Hashes: %d, Moves: %d, Swaps: %d, SeqIOs: %d, RandIOs: %d}, %d},",
				q, got.rows, got.first, got.last, c.Comps, c.Hashes, c.Moves, c.Swaps, c.SeqIOs, c.RandIOs, int64(got.elapsed))
		}
	}
}

// TestSQLProbeLoweringPinned: the probe's bill, exact and the same at
// widths 1 and 4.
func TestSQLProbeLoweringPinned(t *testing.T) {
	for _, width := range []int{1, 4} {
		db := newLoweringDBWidth(t, width)
		emp, err := db.Relation("emp")
		if err != nil {
			t.Fatal(err)
		}
		if err := emp.CreateIndex("id", BTree); err != nil {
			t.Fatal(err)
		}
		for _, want := range pinnedProbes {
			if got := observeSelect(t, db, want.q); got != want {
				c := got.counters
				t.Errorf("width %d drifted from the pinned probe; got:\n\t{%q, %d, %q, %q, Counters{Comps: %d, Hashes: %d, Moves: %d, Swaps: %d, SeqIOs: %d, RandIOs: %d}, %d},",
					width, want.q, got.rows, got.first, got.last, c.Comps, c.Hashes, c.Moves, c.Swaps, c.SeqIOs, c.RandIOs, int64(got.elapsed))
			}
		}
	}
}

// TestSQLSelectLeavesNothingBehind: a SELECT's intermediates are its own
// files — after it returns, the simulated disk and the catalog hold
// exactly what they held before.
func TestSQLSelectLeavesNothingBehind(t *testing.T) {
	db := newLoweringDB(t)
	spaces, rels := db.disk.Spaces(), db.Relations()
	for _, q := range selectStatements() {
		observeSelect(t, db, q)
		if got := db.disk.Spaces(); !reflect.DeepEqual(got, spaces) {
			t.Fatalf("%s\nleft disk spaces %v, want %v", q, got, spaces)
		}
		if got := db.Relations(); !reflect.DeepEqual(got, rels) {
			t.Fatalf("%s\nleft relations %v, want %v", q, got, rels)
		}
	}
	// The planned form again, repeatedly: nothing accumulates.
	q := selectForms[len(selectForms)-1]
	for i := 0; i < 1000; i++ {
		observeSelect(t, db, q.sel+" WHERE "+q.where)
	}
	if got := db.disk.Spaces(); len(got) != len(spaces) {
		t.Fatalf("after 1000 planned SELECTs: %d disk spaces, want %d", len(got), len(spaces))
	}
}

// TestSQLSelectTakesNoExclusiveIntent: with a guard refusing every
// exclusive intent (a fenced database), every SELECT form still runs.
func TestSQLSelectTakesNoExclusiveIntent(t *testing.T) {
	db := newLoweringDB(t)
	db.locks.SetExclusiveGuard(func(context.Context, uint64) error {
		return errors.New("exclusive intent taken by a read")
	})
	for _, q := range selectStatements() {
		if _, err := db.Query(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// TestSelectConcurrentWithDelete is the -race exercise for a SELECT's
// shared intent: a SQL DELETE, which frees slots and deletes index
// entries in place, must not run under a scan.
// Two scheduler slots let the two statements run at once.
func TestSelectConcurrentWithDelete(t *testing.T) {
	db := loadLoweringDB(t, Options{PageSize: 256, MemoryPages: 8, MaxConcurrentQueries: 2})
	done := make(chan error, 1)
	go func() {
		for id := int64(1); id <= 50; id++ {
			if _, err := db.Query(fmt.Sprintf("DELETE FROM emp WHERE id = %d", id)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 50; i++ {
		if _, err := db.Query("SELECT * FROM emp WHERE salary >= 43000"); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSQLAllocBudget bounds allocations per statement for the shapes
// bench/gen.go issues, at the values measured once reads took pages in
// place, compiled their WHERE and carved result rows from chunks, once
// the sort and the join build kept page views instead of copies, once
// GROUP BY's group table became the engine's hash table (97 → 89), and
// once the sort stopped re-homing its run files onto a worker clock's
// disk view (topk 315 → 295), and once a filtered ORDER BY sorted only
// the rows its WHERE keeps (topk 295 → 268), plus a margin of two or
// three. The indexed point and the delete run on the table indexed by id. The unfiltered projection runs on the scan fixture
// (20 000 rows): its rows cost O(log n) allocations, not one each (20 183
// per statement when each row was its own allocation).
// Allocation counts are meaningless under the race detector.
func TestSQLAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	db := newLoweringDB(t)
	for _, c := range []struct {
		shape, q string
		budget   float64
	}{
		{"point", "SELECT id, salary FROM emp WHERE id = 300", 58},
		{"fetch", "SELECT * FROM emp WHERE dept = 3", 58},
		{"join", "SELECT proj.id, emp.salary FROM proj JOIN emp ON proj.dept = emp.id WHERE proj.hours < 50", 177},
		{"group", "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept ORDER BY dept", 92},
		{"topk", "SELECT id, salary FROM emp WHERE salary >= 43000 ORDER BY salary DESC LIMIT 20", 271},
	} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := db.Query(c.q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("MEASURE %s %.1f", c.shape, got)
		if got > c.budget {
			t.Errorf("%s: %.0f allocs per statement, budget %.0f", c.shape, got, c.budget)
		}
	}

	// delete: the writer's two-row DELETE on the table indexed by id. The
	// two rows go back between runs, uncounted and each into its own
	// slot (the slot freed last refills first), so every run deletes
	// from the same fixture.
	emp, err := db.Relation("emp")
	if err != nil {
		t.Fatal(err)
	}
	if err := emp.CreateIndex("id", BTree); err != nil {
		t.Fatal(err)
	}
	// indexed point: the point shape once the index serves it, a probe
	// reading one page instead of a scan reading 100.
	const pointBudget = 66
	got := testing.AllocsPerRun(20, func() {
		if _, err := db.Query("SELECT id, salary FROM emp WHERE id = 300"); err != nil {
			t.Fatal(err)
		}
	})
	if got > pointBudget {
		t.Errorf("indexed point: %.0f allocs per statement, budget %d", got, pointBudget)
	}

	var victims []Tuple
	for _, id := range []int64{301, 300} {
		rows, err := emp.Lookup("id", IntValue(id))
		if err != nil || len(rows) != 1 {
			t.Fatalf("id %d: %d rows, %v", id, len(rows), err)
		}
		victims = append(victims, rows[0])
	}
	const budget = 65
	got = allocsPerRunAfter(20, func() {
		for _, v := range victims {
			if err := emp.InsertTuple(v); err != nil {
				t.Fatal(err)
			}
		}
	}, func() {
		if res, err := db.Query("DELETE FROM emp WHERE id = 300 OR id = 301"); err != nil || res.Affected != 2 {
			t.Fatalf("delete: %v, %v", res, err)
		}
	})
	if got > budget {
		t.Errorf("delete: %.0f allocs per statement, budget %d", got, budget)
	}

	// all: every row of the scan fixture, projected.
	const allBudget = 64
	scan := newScanDB(t)
	got = testing.AllocsPerRun(5, func() {
		if res, err := scan.Query("SELECT id FROM emp"); err != nil || len(res.Rows) != scanRows {
			t.Fatalf("all: %v", err)
		}
	})
	if got > allBudget {
		t.Errorf("all: %.0f allocs per statement, budget %d", got, allBudget)
	}
}

// allocsPerRunAfter is testing.AllocsPerRun for f alone, with setup run
// uncounted before each run (the warm-up run has none).
func allocsPerRunAfter(runs int, setup, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total / uint64(runs))
}

// TestSQLLimitZero: LIMIT trims every form, once (docs/SQL.md §3.7). The
// unordered scan and the global aggregate used to skip the trim and
// return one row.
func TestSQLLimitZero(t *testing.T) {
	db := newLoweringDB(t)
	for _, f := range selectForms {
		q := f.sel
		if f.group != "" {
			q += " " + f.group
		}
		if got := observeSelect(t, db, q+" LIMIT 0"); got.rows != 0 {
			t.Errorf("%s: %s LIMIT 0: %d rows", f.name, q, got.rows)
		}
	}
}

package mmdb

// SQL ORDER BY is the root package's one relation sort: the §3.4
// replacement-selection runs and n-way merge behind a one-table ORDER BY,
// and the only recorder of the SessionMetrics Sort* fields.

import (
	"fmt"
	"slices"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/extsort"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
)

// loadEvents loads events(key, seq) with n rows in shuffled key order.
func loadEvents(t *testing.T, db *Database, n int) {
	t.Helper()
	events, err := db.CreateRelation("events", MustSchema(
		Field{Name: "key", Kind: Int64},
		Field{Name: "seq", Kind: Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(99)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		if err := events.Insert(IntValue(int64(state%uint64(2*n))), IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := events.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestOrderByEarlyStopReleasesRuns: an ORDER BY whose LIMIT keeps a few
// rows still closes its sort, so every temporary run file is released —
// and, under a WHERE, the copy of the passing rows it sorted — and its
// rows are the prefix of the full ORDER BY.
func TestOrderByEarlyStopReleasesRuns(t *testing.T) {
	db := MustOpen(Options{PageSize: 512, MemoryPages: 16, Parallelism: 4})
	loadEvents(t, db, 4000)
	keys := func(q string) []int64 {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, v := range res.Values() {
			out = append(out, v[0].I)
		}
		return out
	}
	prefix := keys("SELECT key FROM events ORDER BY key LIMIT 10")
	if spaces := db.disk.Spaces(); !slices.Equal(spaces, []string{"events"}) {
		t.Fatalf("run files left behind: %v", spaces)
	}
	filtered := keys("SELECT key FROM events WHERE key < 4000 ORDER BY key LIMIT 10")
	if spaces := db.disk.Spaces(); !slices.Equal(spaces, []string{"events"}) {
		t.Fatalf("filtered ORDER BY left files behind: %v", spaces)
	}
	full := keys("SELECT key FROM events ORDER BY key")
	if len(prefix) != 10 || len(full) != 4000 {
		t.Fatalf("saw %d and %d rows, want 10 and 4000", len(prefix), len(full))
	}
	if !slices.Equal(prefix, full[:10]) {
		t.Fatalf("LIMIT rows %v are not the sorted prefix %v", prefix, full[:10])
	}
	// Keys are drawn below 8000, so about half pass and the ten smallest do.
	if !slices.Equal(filtered, full[:10]) {
		t.Fatalf("filtered LIMIT rows %v are not the sorted prefix %v", filtered, full[:10])
	}
	if !slices.IsSorted(full) {
		t.Fatal("ORDER BY rows out of order")
	}
}

// TestSQLOrderBySortMetrics: one ORDER BY statement adds exactly its
// sort's runs, merge passes and in-memory verdict to SessionMetrics —
// the sort an independent extsort run of the same rows, memory and
// fan-out reports: the relation's, or under a WHERE the rows it keeps —
// and a statement ordered without that sort (GROUP BY … ORDER BY, the
// keyed path) adds nothing.
func TestSQLOrderBySortMetrics(t *testing.T) {
	db := MustOpen(Options{PageSize: 512, MemoryPages: 256})
	loadEvents(t, db, 2000)
	for _, pages := range []int{4, 256} { // merge passes; fully in memory
		t.Run(fmt.Sprintf("grant=%d", pages), func(t *testing.T) {
			rel, err := db.cat.Get("events")
			if err != nil {
				t.Fatal(err)
			}
			f, err := rel.File.OnDisk(db.disk.View(cost.NewClock(db.opts.Params)))
			if err != nil {
				t.Fatal(err)
			}
			sortOf := func(f *heap.File) extsort.Stats {
				t.Helper()
				stream, st, err := extsort.SortWith(f, extsort.Config{
					Prefix: "oracle", Input: simio.Uncharged,
				}.WithMemory(f, pages, db.opts.Params.F))
				if err != nil {
					t.Fatal(err)
				}
				stream.Close()
				return st
			}
			want := sortOf(f)
			if pages == 4 && want.MergePasses == 0 || pages == 256 && !want.InMemory {
				t.Fatalf("grant %d: oracle sort %+v is not the regime under test", pages, want)
			}
			// passing holds the rows WHERE key < 2000 keeps, in storage
			// order: about half of them, since keys are drawn below 4000.
			passing, err := heap.Create(f.Disk(), "oracle.passing", f.Schema())
			if err != nil {
				t.Fatal(err)
			}
			defer passing.Drop()
			var rows []Tuple
			if err := f.Scan(simio.Uncharged, func(row Tuple) bool {
				if f.Schema().Int(row, 0) < 2000 {
					rows = append(rows, row)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if err := passing.Load(rows); err != nil {
				t.Fatal(err)
			}

			for _, c := range []struct {
				q    string
				want extsort.Stats
			}{
				{"SELECT * FROM events ORDER BY key", want},
				{"SELECT * FROM events WHERE key < 2000 ORDER BY key", sortOf(passing)},
			} {
				before := db.SessionMetrics()
				if _, err := sessionQuery(db, c.q, WithMinPages(pages)); err != nil {
					t.Fatal(err)
				}
				after := db.SessionMetrics()
				inMemory := uint64(0)
				if c.want.InMemory {
					inMemory = 1
				}
				if got := [4]uint64{
					after.Sorts - before.Sorts,
					after.SortRuns - before.SortRuns,
					after.SortMergePasses - before.SortMergePasses,
					after.SortsInMemory - before.SortsInMemory,
				}; got != [4]uint64{1, uint64(c.want.Runs), uint64(c.want.MergePasses), inMemory} {
					t.Fatalf("%s added sorts/runs/passes/in-memory %v, its sort was %+v", c.q, got, c.want)
				}
			}

			before := db.SessionMetrics()
			if _, err := sessionQuery(db, "SELECT key, COUNT(*) FROM events GROUP BY key ORDER BY key", WithMinPages(pages)); err != nil {
				t.Fatal(err)
			}
			if after := db.SessionMetrics(); after.Sorts != before.Sorts || after.SortRuns != before.SortRuns ||
				after.SortMergePasses != before.SortMergePasses || after.SortsInMemory != before.SortsInMemory {
				t.Fatalf("GROUP BY … ORDER BY recorded a sort: %+v → %+v", before, after)
			}
		})
	}
}

// TestSQLOrderBySortsWhatTheWhereKeeps: a one-table ORDER BY sorts the
// rows its WHERE's access path returns, not the whole table. On the scan
// fixture the B+-tree on id serves WHERE id < 10 with one page fetch, and
// the sort of its nine rows bills at most 1 % of the 525 158 comparisons
// that sorting all 20 000 rows before filtering billed.
func TestSQLOrderBySortsWhatTheWhereKeeps(t *testing.T) {
	const q = "SELECT id, salary FROM emp WHERE id < 10 ORDER BY salary"
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			db := newScanDBWidth(t, width)
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			var ids, salaries []int64
			for _, v := range res.Values() {
				ids, salaries = append(ids, v[0].I), append(salaries, v[1].I)
			}
			// salary = 40000 + (id-1)%1000, so ids 1..9 come out in id order.
			if want := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(ids, want) || !slices.IsSorted(salaries) {
				t.Fatalf("%s: ids %v salaries %v, want ids %v ascending by salary", q, ids, salaries, want)
			}
			if c := res.Counters; c.Comps > 525158/100 || c.SeqIOs != 0 || c.RandIOs != 1 {
				t.Fatalf("%s: billed %+v, want at most %d comparisons and one page fetched", q, c, 525158/100)
			}
		})
	}
}

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
// rows still closes its sort, so every temporary run file is released,
// and its rows are the prefix of the full ORDER BY.
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
	full := keys("SELECT key FROM events ORDER BY key")
	if len(prefix) != 10 || len(full) != 4000 {
		t.Fatalf("saw %d and %d rows, want 10 and 4000", len(prefix), len(full))
	}
	if !slices.Equal(prefix, full[:10]) {
		t.Fatalf("LIMIT rows %v are not the sorted prefix %v", prefix, full[:10])
	}
	if !slices.IsSorted(full) {
		t.Fatal("ORDER BY rows out of order")
	}
}

// TestSQLOrderBySortMetrics: one ORDER BY statement adds exactly its
// sort's runs, merge passes and in-memory verdict to SessionMetrics —
// the sort an independent extsort run of the same relation, memory and
// fan-out reports — and a statement ordered without that sort (GROUP BY
// … ORDER BY, the keyed path) adds nothing.
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
			stream, want, err := extsort.SortWith(f, extsort.Config{
				Prefix: "oracle", Input: simio.Uncharged,
			}.WithMemory(f, pages, db.opts.Params.F))
			if err != nil {
				t.Fatal(err)
			}
			stream.Close()
			if pages == 4 && want.MergePasses == 0 || pages == 256 && !want.InMemory {
				t.Fatalf("grant %d: oracle sort %+v is not the regime under test", pages, want)
			}

			before := db.SessionMetrics()
			if _, err := sessionQuery(db, "SELECT * FROM events ORDER BY key", WithMinPages(pages)); err != nil {
				t.Fatal(err)
			}
			after := db.SessionMetrics()
			inMemory := uint64(0)
			if want.InMemory {
				inMemory = 1
			}
			if got := [4]uint64{
				after.Sorts - before.Sorts,
				after.SortRuns - before.SortRuns,
				after.SortMergePasses - before.SortMergePasses,
				after.SortsInMemory - before.SortsInMemory,
			}; got != [4]uint64{1, uint64(want.Runs), uint64(want.MergePasses), inMemory} {
				t.Fatalf("ORDER BY added sorts/runs/passes/in-memory %v, its sort was %+v", got, want)
			}

			before = after
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

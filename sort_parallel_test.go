package mmdb

// Public-API determinism for the parallel sort: Session.OrderBy and a
// sort-merge Session.Join must produce bit-identical virtual counters,
// sort telemetry, and output order at Parallelism 1, 2 and 8 when the
// SortChunks plan is pinned. This is the -race exercise for the chunked
// formation workers, the merge-tree pumps, and the session clock folding.

import (
	"context"
	"fmt"
	"testing"
)

func loadSortTestDB(t *testing.T, chunks, parallelism int) *Database {
	t.Helper()
	db, err := Open(Options{
		PageSize:    512,
		MemoryPages: 16,
		Parallelism: parallelism,
		SortChunks:  chunks,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := db.CreateRelation("events", MustSchema(
		Field{Name: "key", Kind: Int64},
		Field{Name: "seq", Kind: Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(99)
	for i := 0; i < 4000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		if err := events.Insert(IntValue(int64(state%8000)), IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := events.Flush(); err != nil {
		t.Fatal(err)
	}
	ref, err := db.CreateRelation("ref", MustSchema(
		Field{Name: "key", Kind: Int64},
		Field{Name: "tag", Kind: Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := ref.Insert(IntValue(int64(i*17%8000)), IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	return db
}

type sortRun struct {
	order    string
	counters Counters
	join     JoinResult
	sorts    uint64
	runs     uint64
	passes   uint64
}

func runSortAPI(t *testing.T, chunks, parallelism int) sortRun {
	t.Helper()
	db := loadSortTestDB(t, chunks, parallelism)
	before := db.Counters()
	var order []byte
	schema := MustSchema(Field{Name: "key", Kind: Int64}, Field{Name: "seq", Kind: Int64})
	err := db.withSession(context.Background(), func(s *Session) error {
		return s.OrderBy("events", "key", func(tp Tuple) bool {
			order = fmt.Appendf(order, "%d,", schema.Int(tp, 0))
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := oneShotJoin(context.Background(), db, SortMerge, "ref", "events", "key", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := db.SessionMetrics()
	return sortRun{
		order:    string(order),
		counters: db.Counters().Sub(before),
		join:     jr,
		sorts:    m.Sorts,
		runs:     m.SortRuns,
		passes:   m.SortMergePasses,
	}
}

func TestSortParallelismDeterministicViaPublicAPI(t *testing.T) {
	for _, chunks := range []int{1, 8} {
		t.Run(fmt.Sprintf("chunks=%d", chunks), func(t *testing.T) {
			want := runSortAPI(t, chunks, 1)
			if want.sorts != 3 {
				t.Fatalf("expected 3 recorded sorts (OrderBy + two join inputs), got %d", want.sorts)
			}
			if want.join.SortR.Runs == 0 || want.join.SortS.Runs == 0 {
				t.Fatalf("join result lacks sort stats: %+v", want.join)
			}
			for _, width := range []int{2, 8} {
				got := runSortAPI(t, chunks, width)
				if got.counters != want.counters {
					t.Errorf("width %d: counters diverge:\n  got  %v\n  want %v", width, got.counters, want.counters)
				}
				if got.order != want.order {
					t.Errorf("width %d: OrderBy output order diverges", width)
				}
				if got.join != want.join {
					t.Errorf("width %d: JoinResult diverges:\n  got  %+v\n  want %+v", width, got.join, want.join)
				}
				if got.sorts != want.sorts || got.runs != want.runs || got.passes != want.passes {
					t.Errorf("width %d: sort telemetry diverges: got %d/%d/%d want %d/%d/%d",
						width, got.sorts, got.runs, got.passes, want.sorts, want.runs, want.passes)
				}
			}
		})
	}
}

// TestOrderByEarlyStopReleasesRuns stops the OrderBy callback after a few
// rows: the deferred stream Close must still release every temporary run
// file (and, for chunked plans, charge the remaining merge reads), so a
// second full OrderBy still sees only the base relations on disk and
// agrees with the first run's prefix.
func TestOrderByEarlyStopReleasesRuns(t *testing.T) {
	for _, chunks := range []int{1, 8} {
		db := loadSortTestDB(t, chunks, 4)
		schema := MustSchema(Field{Name: "key", Kind: Int64}, Field{Name: "seq", Kind: Int64})
		orderBy := func(fn func(Tuple) bool) error {
			return db.withSession(context.Background(), func(s *Session) error {
				return s.OrderBy("events", "key", fn)
			})
		}
		var prefix []int64
		err := orderBy(func(tp Tuple) bool {
			prefix = append(prefix, schema.Int(tp, 0))
			return len(prefix) < 10
		})
		if err != nil {
			t.Fatal(err)
		}
		var full []int64
		err = orderBy(func(tp Tuple) bool {
			full = append(full, schema.Int(tp, 0))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(full) != 4000 {
			t.Fatalf("chunks=%d: second OrderBy saw %d rows, want 4000", chunks, len(full))
		}
		for i, k := range prefix {
			if full[i] != k {
				t.Fatalf("chunks=%d: prefix diverges at %d", chunks, i)
			}
		}
	}
}

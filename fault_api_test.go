package mmdb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"mmdb/internal/join"
	"mmdb/internal/simio"
)

func pairSchema() *Schema {
	return MustSchema(
		Field{Name: "k", Kind: Int64},
		Field{Name: "pad", Kind: String, Size: 16},
	)
}

// loadKeyed loads equally sized relations whose keys collide 5x5 per
// value between any two of them: n tuples each over n/5 distinct keys k.
func loadKeyed(t *testing.T, db *Database, n int, names ...string) {
	t.Helper()
	for _, name := range names {
		rel, err := db.CreateRelation(name, pairSchema())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := rel.Insert(IntValue(int64(i%(n/5))), StringValue(fmt.Sprintf("%s%04d", name, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := rel.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// pairKey formats one emitted (r, s) pair for a multiset.
func pairKey(l, r Tuple) string { return fmt.Sprintf("%x|%x", []byte(l), []byte(r)) }

// TestShedMemoryDegradesJoin revokes most of a session's memory grant
// while a hybrid hash join runs on the session's views (from inside the
// emit callback, so the timing is deterministic) and asserts the join
// degrades to the GRACE spill fallback with a bit-identical result.
func TestShedMemoryDegradesJoin(t *testing.T) {
	db, err := Open(Options{PageSize: 512, MemoryPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	loadKeyed(t, db, 500, "r", "s")

	want := map[string]int{}
	var wres join.Result
	err = db.withSession(context.Background(), func(s *Session) (err error) {
		wres, err = viewJoin(s, join.HybridHash, "r", "s", "k", "k", func(l, r Tuple) { want[pairKey(l, r)]++ })
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if wres.GraceFallback {
		t.Fatal("baseline run reported degradation")
	}

	s, err := db.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if g := s.GrantedPages(); g != 64 {
		t.Fatalf("granted %d pages, want 64", g)
	}
	got := map[string]int{}
	shed := false
	res, err := viewJoin(s, join.HybridHash, "r", "s", "k", "k", func(l, r Tuple) {
		got[pairKey(l, r)]++
		if !shed {
			shed = true
			if n := s.ShedMemory(1000); n != 62 {
				t.Errorf("shed %d pages, want 62 (down to the 2-page floor)", n)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.GraceFallback {
		t.Fatal("revoked grant did not degrade the join")
	}
	if res.Matches != wres.Matches || !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded join diverged: %d matches, want %d", res.Matches, wres.Matches)
	}
	if g := s.GrantedPages(); g != MinGrantPages {
		t.Fatalf("post-shed grant %d, want %d", g, MinGrantPages)
	}
	s.Close()
	if g := db.SessionMetrics().GrantedPages; g != 0 {
		t.Fatalf("broker still holds %d granted pages after Close", g)
	}
}

// rsJoinSQL joins loadKeyed's r and s; at 500 tuples (24 pages) each
// against an 8-page grant, hybrid hash partitions, so the statement
// charges IO a fault plan can hit.
const rsJoinSQL = "SELECT r.pad, s.pad FROM r JOIN s ON r.k = s.k"

// openRSJoinDB loads r and s and returns the undisturbed rsJoinSQL result.
func openRSJoinDB(t *testing.T) (*Database, *SQLResult) {
	t.Helper()
	db := MustOpen(Options{PageSize: 512, MemoryPages: 8})
	loadKeyed(t, db, 500, "r", "s")
	want, err := db.Query(rsJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	return db, want
}

// sessionQuery runs q in a session of its own opened with opts.
func sessionQuery(db *Database, q string, opts ...SessionOption) (*SQLResult, error) {
	s, err := db.NewSession(context.Background(), opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Query(q)
}

// TestWithRetrySurvivesTransientFaults arms a one-shot transient burst
// long enough to kill two whole statement attempts and asserts a
// WithRetry session absorbs them: the third attempt succeeds with the
// exact fault-free rows, and no rows from the failed attempts leak out.
func TestWithRetrySurvivesTransientFaults(t *testing.T) {
	db, want := openRSJoinDB(t)

	// Burst 12 at the 10th charged IO: the write path's bounded retry (5
	// attempts per page) exhausts twice — two statement attempts die —
	// and the third attempt absorbs the 2-fault remainder.
	inj := NewFaultInjector(3).TransientAt("", 10, 12)
	db.ArmFaults(inj)
	defer db.ArmFaults(nil)

	got, err := sessionQuery(db, rsJoinSQL, WithRetry(2))
	if err != nil {
		t.Fatalf("retried query failed: %v", err)
	}
	if len(got.Rows) != len(want.Rows) || !sameRows(got, want) {
		t.Fatalf("retried join returned %d rows, want %d, or other rows", len(got.Rows), len(want.Rows))
	}
	if tr := inj.Stats().Transient; tr != 12 {
		t.Fatalf("injected %d transients, want the whole burst of 12", tr)
	}
}

// TestWithoutRetryTransientFaultSurfaces is the control: the same burst
// kills a session without WithRetry, and the error carries the full
// taxonomy.
func TestWithoutRetryTransientFaultSurfaces(t *testing.T) {
	db, _ := openRSJoinDB(t)
	db.ArmFaults(NewFaultInjector(3).TransientAt("", 10, 12))
	defer db.ArmFaults(nil)

	_, err := sessionQuery(db, rsJoinSQL)
	if err == nil {
		t.Fatal("transient burst was swallowed without WithRetry")
	}
	if !errors.Is(err, ErrFaultTransient) || !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("error lost its taxonomy: %v", err)
	}
}

// TestRetryDoesNotMaskPermanentFaults verifies WithRetry gives up
// immediately on a permanent failure, and that disarming restores the
// database.
func TestRetryDoesNotMaskPermanentFaults(t *testing.T) {
	db, want := openRSJoinDB(t)

	inj := NewFaultInjector(5).PermanentAfter("", 10)
	db.ArmFaults(inj)
	_, err := sessionQuery(db, rsJoinSQL, WithRetry(8))
	if !errors.Is(err, ErrFaultPermanent) {
		t.Fatalf("want a permanent fault, got %v", err)
	}
	// A single failing attempt injects exactly one permanent verdict per
	// IO past the threshold; a retry storm would multiply them. Allow the
	// one attempt's worth and no more.
	if perm := inj.Stats().Permanent; perm != 1 {
		t.Fatalf("permanent fault consulted %d times: WithRetry retried a dead device", perm)
	}

	db.ArmFaults(nil)
	got, err := sessionQuery(db, rsJoinSQL)
	if err != nil {
		t.Fatalf("disarmed database still failing: %v", err)
	}
	if !sameRows(got, want) {
		t.Fatal("disarmed database returned other rows")
	}
}

// sqlJoins are a two- and a three-table SQL join over loadKeyed's r, s and
// u; at 200 tuples (10 pages) each against an 8-page grant, every step
// partitions.
var sqlJoins = []struct{ name, q string }{
	{"two-table", "SELECT r.pad, s.pad FROM r JOIN s ON r.k = s.k"},
	{"three-table", "SELECT r.pad, s.pad, u.pad FROM r JOIN s ON r.k = s.k JOIN u ON u.k = s.k"},
}

func openSQLJoinDB(t *testing.T) (*Database, map[string]*SQLResult) {
	t.Helper()
	db := MustOpen(Options{PageSize: 512, MemoryPages: 8})
	loadKeyed(t, db, 200, "r", "s", "u")
	want := map[string]*SQLResult{}
	for _, c := range sqlJoins {
		res, err := db.Query(c.q)
		if err != nil {
			t.Fatal(err)
		}
		want[c.name] = res
	}
	return db, want
}

// sameRows reports whether two results hold the same multiset of rows.
func sameRows(a, b *SQLResult) bool {
	rows := func(r *SQLResult) []string {
		var out []string
		for _, v := range r.Values() {
			out = append(out, fmt.Sprint(v))
		}
		sort.Strings(out)
		return out
	}
	return reflect.DeepEqual(rows(a), rows(b))
}

// shedOnIO sheds its session's grant to the floor at the first charged IO
// after it is armed — from inside whatever statement the session runs.
type shedOnIO struct{ s atomic.Pointer[Session] }

func (h *shedOnIO) ChargedIO(string, simio.Access) simio.Outcome {
	if s := h.s.Swap(nil); s != nil {
		s.ShedMemory(1 << 20)
	}
	return simio.Outcome{}
}

// TestSQLJoinShedMemory: a grant shed from inside a SQL join reaches
// every join step — the rows are the undisturbed ones, and the counters
// show the spill.
func TestSQLJoinShedMemory(t *testing.T) {
	db, want := openSQLJoinDB(t)
	for _, c := range sqlJoins {
		t.Run(c.name, func(t *testing.T) {
			s, err := db.NewSession(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h := &shedOnIO{}
			h.s.Store(s)
			db.disk.SetInjector(h)
			got, err := s.Query(c.q)
			db.disk.SetInjector(nil)
			if err != nil {
				t.Fatal(err)
			}
			if h.s.Load() != nil || s.GrantedPages() != MinGrantPages {
				t.Fatalf("grant %d pages: the statement never shed", s.GrantedPages())
			}
			if !sameRows(got, want[c.name]) {
				t.Fatalf("shed grant returned %d rows, undisturbed %d, or other rows", len(got.Rows), len(want[c.name].Rows))
			}
			io := func(c Counters) int64 { return c.SeqIOs + c.RandIOs }
			if io(got.Counters) <= io(want[c.name].Counters) {
				t.Fatalf("shed grant charged %v, undisturbed %v: no spill", got.Counters, want[c.name].Counters)
			}
		})
	}
}

// TestSQLJoinWithRetry: a transient burst that kills two attempts of a SQL
// join is absorbed under WithRetry(2), returning the undisturbed rows, and
// fails the statement without retry.
func TestSQLJoinWithRetry(t *testing.T) {
	db, want := openSQLJoinDB(t)
	for _, c := range sqlJoins {
		t.Run(c.name, func(t *testing.T) {
			for _, retries := range []int{2, 0} {
				inj := NewFaultInjector(3).TransientAt("", 10, 12)
				db.ArmFaults(inj)
				got, err := db.Query(c.q, WithRetry(retries))
				db.ArmFaults(nil)
				if retries == 0 {
					if !errors.Is(err, ErrFaultTransient) {
						t.Fatalf("without retry: %v, want the transient fault", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("retried query failed: %v", err)
				}
				if !sameRows(got, want[c.name]) {
					t.Fatalf("retried join returned %d rows, undisturbed %d, or other rows", len(got.Rows), len(want[c.name].Rows))
				}
				if tr := inj.Stats().Transient; tr != 12 {
					t.Fatalf("injected %d transients, want the whole burst of 12", tr)
				}
			}
		})
	}
}

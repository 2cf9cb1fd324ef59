package mmdb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mmdb/internal/planner"
)

func openConcurrentDB(t *testing.T, slots, queue int) *Database {
	t.Helper()
	db, err := Open(Options{
		PageSize:             512,
		MemoryPages:          64,
		MaxConcurrentQueries: slots,
		QueueDepth:           queue,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestConcurrentQueries runs many identical queries from parallel
// goroutines. On the pre-session engine this was a data race (shared heap
// cursors, one global clock); under -race it now must pass cleanly with
// every query seeing the same result.
func TestConcurrentQueries(t *testing.T) {
	db := openConcurrentDB(t, 4, 64)
	loadCompany(t, db, 600, 12)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	matches := make([]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := empDeptJoin(db)
			errs[i] = err
			matches[i] = res.Matches
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if matches[i] != 600 {
			t.Fatalf("query %d: %d matches, want 600", i, matches[i])
		}
	}
	m := db.SessionMetrics()
	if m.Completed != n {
		t.Fatalf("completed %d sessions, want %d", m.Completed, n)
	}
}

// TestConcurrentMixedOperators interleaves joins, SQL aggregates and
// sorts, and point lookups across goroutines under -race.
func TestConcurrentMixedOperators(t *testing.T) {
	db := openConcurrentDB(t, 4, 64)
	emp, _ := loadCompany(t, db, 400, 8)
	if err := emp.CreateIndex("id", BTree); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	run := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		run(func() error {
			_, err := empDeptJoin(db)
			return err
		})
		run(func() error {
			res, err := db.Query("SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept")
			if err == nil && len(res.Rows) != 8 {
				return errors.New("wrong group count")
			}
			return err
		})
		run(func() error {
			res, err := db.Query("SELECT * FROM emp ORDER BY salary")
			if err == nil && len(res.Rows) != 400 {
				return errors.New("wrong sorted row count")
			}
			return err
		})
		run(func() error {
			out, err := emp.Lookup("id", IntValue(7))
			if err == nil && len(out) != 1 {
				return errors.New("lookup miss")
			}
			return err
		})
	}
	wg.Wait()
}

// TestConcurrentCountersMatchSerial is the determinism acceptance check:
// with the static memory policy, N identical queries produce bit-identical
// per-query virtual-clock results whether they run one at a time or all at
// once, and the global clock totals agree too.
func TestConcurrentCountersMatchSerial(t *testing.T) {
	open := func() *Database {
		db := openConcurrentDB(t, 4, 64)
		loadCompany(t, db, 500, 10)
		return db
	}
	query := empDeptJoin

	serial := open()
	serial.ResetClock()
	var want joinRun
	const n = 4
	for i := 0; i < n; i++ {
		res, err := query(serial)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
		} else if res != want {
			t.Fatalf("serial run %d diverged: %+v vs %+v", i, res, want)
		}
	}

	conc := open()
	conc.ResetClock()
	var wg sync.WaitGroup
	results := make([]joinRun, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = query(conc)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != want {
			t.Fatalf("concurrent run %d: %+v, want %+v", i, results[i], want)
		}
	}
	if got, want := conc.Counters(), serial.Counters(); got != want {
		t.Fatalf("global counters diverged: %+v vs %+v", got, want)
	}
	if got, want := conc.VirtualTime(), serial.VirtualTime(); got != want {
		t.Fatalf("global virtual time diverged: %v vs %v", got, want)
	}
}

// TestSessionBrokerNeverOverGrants floods the scheduler and asserts the
// broker's invariant: simultaneous grants never exceed MemoryPages, and
// everything is returned when the queries drain.
func TestSessionBrokerNeverOverGrants(t *testing.T) {
	db := openConcurrentDB(t, 4, 64)
	loadCompany(t, db, 300, 6)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := empDeptJoin(db); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	m := db.SessionMetrics()
	if m.PeakGrantedPages > m.MemoryPages {
		t.Fatalf("broker over-granted: peak %d > |M| %d", m.PeakGrantedPages, m.MemoryPages)
	}
	if m.GrantedPages != 0 {
		t.Fatalf("%d pages still out on grant after drain", m.GrantedPages)
	}
	if m.Grants < 16 {
		t.Fatalf("only %d grants recorded", m.Grants)
	}
}

// TestSessionOverloaded verifies backpressure: with one slot and no queue,
// a second arrival is rejected with ErrOverloaded rather than blocking.
func TestSessionOverloaded(t *testing.T) {
	db := openConcurrentDB(t, 1, -1)
	loadCompany(t, db, 100, 4)

	s, err := db.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewSession(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second session: err=%v, want ErrOverloaded", err)
	}
	if _, err := empDeptJoin(db); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("query during held slot: err=%v, want ErrOverloaded", err)
	}
	s.Close()
	if _, err := empDeptJoin(db); err != nil {
		t.Fatalf("query after slot freed: %v", err)
	}
	if m := db.SessionMetrics(); m.Rejected != 2 {
		t.Fatalf("rejected %d, want 2", m.Rejected)
	}
}

// TestSessionQueueDeadline verifies a queued query abandons its wait when
// its context deadline fires.
func TestSessionQueueDeadline(t *testing.T) {
	db := openConcurrentDB(t, 1, 8)
	loadCompany(t, db, 100, 4)

	s, err := db.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := db.QueryContext(ctx, empDeptSQL); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query: err=%v, want DeadlineExceeded", err)
	}
}

// TestConcurrentWritersAndReaders races loads against queries: the
// relation-level S/X intents must serialize them without deadlock and
// every query must observe a consistent (fully loaded or fully absent)
// batch.
func TestConcurrentWritersAndReaders(t *testing.T) {
	db := openConcurrentDB(t, 4, 64)
	emp, dept := loadCompany(t, db, 200, 5)
	_ = dept

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := int64(10000 + w*100 + i)
				err := emp.Insert(IntValue(id), IntValue(id%5), IntValue(1234), StringValue("late"))
				if err != nil {
					t.Error(err)
					return
				}
			}
			if err := emp.Flush(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := empDeptJoin(db)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Matches < 200 {
					t.Errorf("join saw %d matches, want >= 200", res.Matches)
					return
				}
			}
		}()
	}
	wg.Wait()

	res, err := empDeptJoin(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 240 {
		t.Fatalf("final join matches %d, want 240", res.Matches)
	}
}

// TestConcurrentPlansExecute plans and executes multi-way joins from
// parallel sessions: each plans the three-table SQL join, then runs it,
// which executes the planner's HashOnly plan into files the statement
// owns.
func TestConcurrentPlansExecute(t *testing.T) {
	db := openConcurrentDB(t, 4, 64)
	loadCompany(t, db, 300, 6)
	site, err := db.CreateRelation("site", MustSchema(Field{Name: "dept", Kind: Int64}, Field{Name: "floor", Kind: Int64}))
	if err != nil {
		t.Fatal(err)
	}
	for d := int64(0); d < 6; d++ {
		if err := site.Insert(IntValue(d), IntValue(10+d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := site.Flush(); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT emp.id, floor FROM emp JOIN dept ON emp.dept = dept.id JOIN site ON site.dept = dept.id"
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := db.NewSession(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			b, err := bindSelect(db, q)
			if err != nil {
				t.Error(err)
				return
			}
			pq, err := s.plannerQuery(b)
			if err != nil {
				t.Error(err)
				return
			}
			plan, err := planner.OptimizeHashOnly(pq)
			if err != nil {
				t.Error(err)
				return
			}
			if order := plan.Order(pq); len(order) != 3 {
				t.Errorf("plan order %v", order)
			}
			res, err := s.Query(q)
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Rows) != 300 {
				t.Errorf("plan produced %d rows, want 300", len(res.Rows))
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentIndexProbes is the -race exercise for readers sharing an
// index: two sessions probing one B+-tree or AVL index at once (SQL point
// queries and Lookups) each count their comparisons without a data race,
// and every statement bills the same counters it bills alone.
func TestConcurrentIndexProbes(t *testing.T) {
	for _, kind := range []IndexKind{BTree, AVL} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openConcurrentDB(t, 2, 8)
			emp, _ := loadCompany(t, db, 400, 8)
			if err := emp.CreateIndex("id", kind); err != nil {
				t.Fatal(err)
			}
			alone, err := db.Query("SELECT id, salary FROM emp WHERE id = 7")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						res, err := db.Query("SELECT id, salary FROM emp WHERE id = 7")
						if err != nil || len(res.Rows) != 1 || res.Counters != alone.Counters {
							t.Errorf("point query: %v, %v; alone it billed %v", res, err, alone.Counters)
							return
						}
						if rows, err := emp.Lookup("id", IntValue(int64(i))); err != nil || len(rows) != 1 {
							t.Errorf("Lookup(id = %d): %d rows, %v", i, len(rows), err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

package mmdb

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openPriorityDB(t *testing.T, policy PickPolicy) *Database {
	t.Helper()
	opts := Options{
		PageSize:             1024,
		MemoryPages:          256,
		MaxConcurrentQueries: 1,
		QueueDepth:           64,
		PickPolicy:           policy,
	}
	opts.Classes[Interactive].ReservedPages = 32
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func durP95(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[int(0.95*float64(len(samples)-1))]
}

// runPriorityMix saturates the single slot with a closed-loop batch join
// stream while an interactive client issues short selections under
// interactiveClass, and returns the interactive queued-time samples plus
// the measured duration of one batch join. Interactive think time is
// paced by batch-join completions rather than a wall-clock timer: on a
// single-CPU host the saturating clients can starve runtime timer
// wakeups for seconds, while channel wakeups stay prompt.
func runPriorityMix(t *testing.T, policy PickPolicy, interactiveClass QueryClass) ([]time.Duration, time.Duration) {
	t.Helper()
	// On a single-processor runtime the saturating clients can starve a
	// woken waiter in the local run queue for seconds; a second processor
	// rescues it through work stealing (see experiments.RunPriority).
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	db := openPriorityDB(t, policy)
	loadCompany(t, db, 3000, 30)

	// One serial join to measure the batch service time D.
	start := time.Now()
	if _, err := empDeptJoin(db, HybridHash); err != nil {
		t.Fatal(err)
	}
	batchDur := time.Since(start)

	var stop atomic.Bool
	tick := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := empDeptJoin(db, HybridHash); err != nil {
					t.Error(err)
					return
				}
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}()
	}

	queued := make([]time.Duration, 0, 12)
	for q := 0; q < 12; q++ {
		for k := 0; k < 4; k++ { // think ≈ 4 batch completions
			<-tick
		}
		s, err := db.NewSession(context.Background(), WithClass(interactiveClass))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Query("SELECT * FROM dept WHERE id >= 0")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 30 {
			t.Fatalf("interactive select saw %d rows, want 30", len(res.Rows))
		}
		queued = append(queued, s.QueuedFor())
		s.Close()
	}
	stop.Store(true)
	wg.Wait()
	return queued, batchDur
}

// TestPriorityInteractiveBounded is the starvation test: a saturating
// batch stream runs alongside interactive arrivals, and under strict
// priority the interactive queued time must stay bounded by a small
// multiple of one batch service time (grant-time preemption waits out at
// most the in-flight batch query), while the single-class FIFO baseline
// queues interactive work behind the whole batch backlog.
func TestPriorityInteractiveBounded(t *testing.T) {
	fifoQueued, _ := runPriorityMix(t, StrictPriority, Batch) // one class: plain FIFO
	strictQueued, batchDur := runPriorityMix(t, StrictPriority, Interactive)

	fifoP95, strictP95 := durP95(fifoQueued), durP95(strictQueued)
	t.Logf("batch service ≈ %v; interactive queued p95: fifo %v, strict %v",
		batchDur, fifoP95, strictP95)
	// Bounded: at most the in-flight batch query plus scheduling noise.
	// 5× leaves slack for race-detector and CI jitter; the FIFO baseline
	// sits at the full backlog (≈ 4 clients × D) and must not be beaten
	// by this bound.
	if limit := 5 * batchDur; strictP95 > limit {
		t.Fatalf("strict-priority interactive p95 %v exceeds bound %v (batch D %v)",
			strictP95, limit, batchDur)
	}
	if strictP95 > fifoP95 {
		t.Fatalf("strict-priority p95 %v worse than FIFO baseline %v", strictP95, fifoP95)
	}
}

// TestPriorityWeightedFairServes asserts the weighted-fair policy also
// keeps interactive arrivals moving under batch saturation (share
// convergence itself is unit-tested in internal/session).
func TestPriorityWeightedFairServes(t *testing.T) {
	queued, batchDur := runPriorityMix(t, WeightedFair, Interactive)
	if p95 := durP95(queued); p95 > 8*batchDur {
		t.Fatalf("weighted-fair interactive p95 %v not bounded (batch D %v)", p95, batchDur)
	}
}

// TestSessionFunctionalOptions exercises the redesigned NewSession API:
// zero options keep the old behavior (Batch class, the class's default
// grant), WithClass and WithMinPages override it.
func TestSessionFunctionalOptions(t *testing.T) {
	db := openPriorityDB(t, StrictPriority)
	loadCompany(t, db, 100, 4)

	s, err := db.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s.Class() != Batch {
		t.Fatalf("default class = %v, want Batch", s.Class())
	}
	// general = 256-32 = 224; batch share = 224/1 = 224.
	if s.GrantedPages() != 224 {
		t.Fatalf("default batch grant = %d, want 224", s.GrantedPages())
	}
	s.Close()

	s, err = db.NewSession(context.Background(), WithClass(Interactive), WithMinPages(10))
	if err != nil {
		t.Fatal(err)
	}
	if s.Class() != Interactive {
		t.Fatalf("class = %v, want Interactive", s.Class())
	}
	if s.GrantedPages() != 10 {
		t.Fatalf("explicit grant = %d, want 10", s.GrantedPages())
	}
	if _, err := s.Join(HybridHash, "emp", "dept", "dept", "id", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	m := db.SessionMetrics()
	if m.PerClass[Interactive].Admitted != 1 || m.PerClass[Batch].Admitted != 1 {
		t.Fatalf("per-class admitted = %+v", m.PerClass)
	}
	if m.PerClass[Interactive].ReservedPages != 32 {
		t.Fatalf("reserved pages = %d, want 32", m.PerClass[Interactive].ReservedPages)
	}
}

// TestOverloadErrorClassDetails asserts shed queries report the class
// and depth that rejected them while still matching ErrOverloaded.
func TestOverloadErrorClassDetails(t *testing.T) {
	opts := Options{
		PageSize:             512,
		MemoryPages:          64,
		MaxConcurrentQueries: 1,
	}
	opts.Classes[Interactive].QueueDepth = -1 // no interactive queue
	opts.Classes[Batch].QueueDepth = -1       // no batch queue
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	loadCompany(t, db, 100, 4)

	s, err := db.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	_, err = db.NewSession(context.Background(), WithClass(Interactive))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("interactive shed: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Class != Interactive || oe.Depth != 0 {
		t.Fatalf("interactive shed detail = %+v", oe)
	}
	_, err = db.NewSession(context.Background())
	if !errors.As(err, &oe) || oe.Class != Batch {
		t.Fatalf("batch shed = %v (detail %+v)", err, oe)
	}
	m := db.SessionMetrics()
	if m.PerClass[Interactive].Rejected != 1 || m.PerClass[Batch].Rejected != 1 {
		t.Fatalf("per-class rejected = %+v", m.PerClass)
	}
	if m.Rejected != 2 {
		t.Fatalf("total rejected = %d, want 2", m.Rejected)
	}
}

// TestPriorityCountersMatchSerial is the class-mix determinism check:
// batch joins and interactive selections produce bit-identical per-query
// virtual-clock results whether they run serially or interleaved under
// priority admission with reservations configured — classes trade
// wall-clock queueing only, never the paper's accounting.
func TestPriorityCountersMatchSerial(t *testing.T) {
	open := func(slots int) *Database {
		opts := Options{
			PageSize:             1024,
			MemoryPages:          256,
			MaxConcurrentQueries: slots,
			QueueDepth:           64,
			PickPolicy:           StrictPriority,
		}
		opts.Classes[Interactive].ReservedPages = 32
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		loadCompany(t, db, 500, 10)
		return db
	}
	batchQuery := func(db *Database) (JoinResult, error) { return empDeptJoin(db, HybridHash) }
	type selResult struct {
		rows     int
		counters Counters
	}
	interactiveQuery := func(db *Database) (selResult, error) {
		s, err := db.NewSession(context.Background(), WithClass(Interactive))
		if err != nil {
			return selResult{}, err
		}
		defer s.Close()
		res, err := s.Query("SELECT * FROM dept WHERE id >= 0")
		if err != nil {
			return selResult{}, err
		}
		return selResult{rows: len(res.Rows), counters: s.Counters()}, nil
	}

	// Serial reference: same Options (slots included) so static grants
	// are identical; run queries one at a time.
	serial := open(4)
	wantJoin, err := batchQuery(serial)
	if err != nil {
		t.Fatal(err)
	}
	wantSel, err := interactiveQuery(serial)
	if err != nil {
		t.Fatal(err)
	}

	conc := open(4)
	const perKind = 6
	joins := make([]JoinResult, perKind)
	sels := make([]selResult, perKind)
	errs := make([]error, 2*perKind)
	var wg sync.WaitGroup
	for i := 0; i < perKind; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			joins[i], errs[i] = batchQuery(conc)
		}(i)
		go func(i int) {
			defer wg.Done()
			sels[i], errs[perKind+i] = interactiveQuery(conc)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	for i := 0; i < perKind; i++ {
		if joins[i] != wantJoin {
			t.Fatalf("batch join %d diverged under contention:\n got %+v\nwant %+v", i, joins[i], wantJoin)
		}
		if sels[i] != wantSel {
			t.Fatalf("interactive select %d diverged under contention:\n got %+v\nwant %+v", i, sels[i], wantSel)
		}
	}
	m := conc.SessionMetrics()
	if m.PeakGrantedPages > m.MemoryPages {
		t.Fatalf("broker over-granted: peak %d > |M| %d", m.PeakGrantedPages, m.MemoryPages)
	}
}

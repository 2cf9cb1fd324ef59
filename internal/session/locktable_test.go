package session

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mmdb/internal/lock"
	"mmdb/internal/wal"
)

func TestSessionLockTableSharedCompatible(t *testing.T) {
	lt := NewLockTable()
	const res = 7
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			txn := lt.NextID()
			if _, err := lt.Acquire(context.Background(), txn, res, lock.Shared); err != nil {
				t.Error(err)
				return
			}
			lt.Release(txn)
		}()
	}
	wg.Wait()
	if err := lt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h := lt.Holders(res); len(h) != 0 {
		t.Fatalf("leaked holders %v", h)
	}
}

func TestSessionLockTableExclusiveBlocksAndFIFO(t *testing.T) {
	lt := NewLockTable()
	const res = 1
	writer := lt.NextID()
	if _, err := lt.Acquire(context.Background(), writer, res, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	// Queue readers behind the writer; they must all be granted together
	// after release, in wait-queue order.
	const readers = 4
	order := make(chan wal.TxnID, readers)
	var txns []wal.TxnID
	for i := 0; i < readers; i++ {
		txn := lt.NextID()
		txns = append(txns, txn)
		go func() {
			if _, err := lt.Acquire(context.Background(), txn, res, lock.Shared); err != nil {
				t.Error(err)
				return
			}
			order <- txn
		}()
		waitFor(t, func() bool { return len(lt.Waiting(res)) == i+1 })
	}
	lt.Release(writer)
	seen := make(map[wal.TxnID]bool)
	for i := 0; i < readers; i++ {
		seen[<-order] = true
	}
	for _, txn := range txns {
		if !seen[txn] {
			t.Fatalf("reader %d never granted", txn)
		}
		lt.Release(txn)
	}
	if err := lt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLockTablePreCommitDependencies(t *testing.T) {
	lt := NewLockTable()
	const res = 3
	writer := lt.NextID()
	if _, err := lt.Acquire(context.Background(), writer, res, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	reader := lt.NextID()
	got := make(chan []wal.TxnID, 1)
	go func() {
		deps, err := lt.Acquire(context.Background(), reader, res, lock.Shared)
		if err != nil {
			t.Error(err)
		}
		got <- deps
	}()
	waitFor(t, func() bool { return len(lt.Waiting(res)) == 1 })
	// Pre-commit (not release): the reader is granted with a dependency on
	// the not-yet-durable writer, per §5.2.
	lt.PreCommit(writer)
	deps := <-got
	if len(deps) != 1 || deps[0] != writer {
		t.Fatalf("deps = %v, want [%d]", deps, writer)
	}
	lt.Finish(writer)
	lt.Release(reader)
	if err := lt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLockTableCancelWhileWaiting(t *testing.T) {
	lt := NewLockTable()
	const res = 9
	holder := lt.NextID()
	if _, err := lt.Acquire(context.Background(), holder, res, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiter := lt.NextID()
	done := make(chan error, 1)
	go func() {
		_, err := lt.Acquire(ctx, waiter, res, lock.Exclusive)
		done <- err
	}()
	waitFor(t, func() bool { return len(lt.Waiting(res)) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("expected Canceled, got %v", err)
	}
	if w := lt.Waiting(res); len(w) != 0 {
		t.Fatalf("canceled waiter still queued: %v", w)
	}
	lt.Release(holder)
	if err := lt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLockTableRacingMixedModes stresses racing S/X acquisition across
// goroutines and resources under the race detector.
func TestSessionLockTableRacingMixedModes(t *testing.T) {
	lt := NewLockTable()
	resources := []uint64{1, 2, 3}
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				txn := lt.NextID()
				mode := lock.Shared
				if (g+i)%3 == 0 {
					mode = lock.Exclusive
				}
				if _, err := lt.AcquireAll(context.Background(), txn, resources, mode); err != nil {
					t.Error(err)
					return
				}
				lt.Release(txn)
			}
		}()
	}
	wg.Wait()
	if err := lt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, res := range resources {
		if h := lt.Holders(res); len(h) != 0 {
			t.Fatalf("resource %d leaked holders %v", res, h)
		}
	}
}

// TestSessionLockTableQuiesceExclusive: the promotion barrier. A quiesce
// with writers holding and queued blocks until they all finish, returns
// immediately on an idle table, respects context cancellation, and —
// combined with an exclusive guard refusing new writers — observes a
// drained table that stays drained.
func TestSessionLockTableQuiesceExclusive(t *testing.T) {
	lt := NewLockTable()
	ctx := context.Background()

	// Idle table: immediate.
	if err := lt.QuiesceExclusive(ctx); err != nil {
		t.Fatalf("quiesce on idle table: %v", err)
	}

	// One holder, one queued writer behind it.
	const res = 3
	holder := lt.NextID()
	if _, err := lt.Acquire(ctx, holder, res, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	queuedDone := make(chan struct{})
	queued := lt.NextID()
	go func() {
		defer close(queuedDone)
		if _, err := lt.Acquire(ctx, queued, res, lock.Exclusive); err != nil {
			t.Error(err)
			return
		}
		lt.Release(queued)
	}()
	for {
		if p, h := lt.ExclusiveInFlight(); p == 1 && h == 1 {
			break
		}
	}

	quiesced := make(chan error, 1)
	go func() { quiesced <- lt.QuiesceExclusive(ctx) }()
	select {
	case <-quiesced:
		t.Fatal("quiesce returned with a writer holding and another queued")
	case <-time.After(10 * time.Millisecond):
	}

	// Fence new writers (the promotion guard), then let the in-flight
	// ones finish: the quiesce must complete.
	lt.SetExclusiveGuard(func(context.Context, uint64) error { return errors.New("fenced") })
	lt.Release(holder)
	<-queuedDone
	if err := <-quiesced; err != nil {
		t.Fatalf("quiesce after drain: %v", err)
	}
	if p, h := lt.ExclusiveInFlight(); p != 0 || h != 0 {
		t.Fatalf("in-flight (%d pending, %d held) after drain", p, h)
	}
	// The fence holds: a new writer is refused at the lock layer, a
	// reader passes.
	if _, err := lt.Acquire(ctx, lt.NextID(), res, lock.Exclusive); err == nil {
		t.Fatal("guard admitted a new exclusive during the fence")
	}
	rd := lt.NextID()
	if _, err := lt.Acquire(ctx, rd, res, lock.Shared); err != nil {
		t.Fatalf("guard blocked a shared intent: %v", err)
	}
	lt.Release(rd)

	// A pre-committed writer no longer blocks the barrier (§5.2 group
	// commit: its effects are shipped; durability is the log's problem).
	lt.SetExclusiveGuard(nil)
	pc := lt.NextID()
	if _, err := lt.Acquire(ctx, pc, res, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	lt.PreCommit(pc)
	if err := lt.QuiesceExclusive(ctx); err != nil {
		t.Fatalf("quiesce over a pre-committed writer: %v", err)
	}
	lt.Finish(pc)

	// Cancellation: a quiesce that cannot complete returns ctx's error.
	blocker := lt.NextID()
	if _, err := lt.Acquire(ctx, blocker, res, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	shortCtx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	if err := lt.QuiesceExclusive(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled quiesce: %v, want deadline exceeded", err)
	}
	lt.Release(blocker)
	if err := lt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

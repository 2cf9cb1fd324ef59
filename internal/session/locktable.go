package session

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"mmdb/internal/lock"
	"mmdb/internal/wal"
)

// LockTable makes the §5.2 lock manager usable from concurrent goroutines.
// The underlying lock.Manager is single-threaded by design (the recovery
// simulator drives it from its event loop); this façade serializes all
// mutations behind one mutex and converts the manager's callback-style
// grants into blocking waits with context cancellation.
//
// Sessions take Shared intents on every relation a query reads; loads and
// DDL take Exclusive intents. Because it is the same lock machinery, a
// grant still carries the pre-committed dependency list of §5.2 — a query
// admitted after a pre-committed writer released its lock learns which
// transactions its answer depends on.
type LockTable struct {
	mu  sync.Mutex
	m   *lock.Manager
	ids atomic.Uint64 // session/DDL transaction ids, disjoint per table

	// exclusiveGuard, when set, vets every Exclusive acquisition before
	// it is enqueued — the read-only admission hook for replica
	// databases: reads (Shared intents) pass untouched, writes are
	// refused at the lock layer unless the guard allows the acquisition
	// (the replication applier, identified by the context it locks
	// through, or a session-private temporary, identified by resource).
	exclusiveGuard func(ctx context.Context, res uint64) error

	// Exclusive in-flight accounting for QuiesceExclusive: requests
	// queued but not yet granted, grants currently held per txn, and the
	// waiters to wake when both drain to zero. A promotion fences new
	// writes with the guard, then quiesces — every writer that slipped
	// past the fence is either queued (it will be granted later) or
	// holding, so this count is exactly the in-flight write set.
	xPending int
	xHeld    map[wal.TxnID]int
	xWaiters []chan struct{}
}

// NewLockTable returns a façade over a fresh lock manager.
func NewLockTable() *LockTable {
	return &LockTable{m: lock.NewManager(), xHeld: make(map[wal.TxnID]int)}
}

// SetExclusiveGuard installs (or clears, with nil) the Exclusive-mode
// admission guard. The guard is handed the acquiring call's context and
// runs under the table mutex; it must not block or re-enter the table.
func (t *LockTable) SetExclusiveGuard(fn func(ctx context.Context, res uint64) error) {
	t.mu.Lock()
	t.exclusiveGuard = fn
	t.mu.Unlock()
}

// NextID allocates a fresh transaction id for a session or a one-shot DDL
// operation.
func (t *LockTable) NextID() wal.TxnID {
	return wal.TxnID(t.ids.Add(1))
}

// Acquire takes the lock on res in the given mode for txn, blocking FIFO
// behind incompatible holders. It returns the pre-committed transactions
// the grant depends on. If ctx ends first, the queued request (and every
// lock txn holds) is released and the context error returned — a canceled
// session aborts wholesale, it does not keep partial lock sets.
func (t *LockTable) Acquire(ctx context.Context, txn wal.TxnID, res uint64, mode lock.Mode) ([]wal.TxnID, error) {
	ch := make(chan []wal.TxnID, 1)
	exclusive := mode == lock.Exclusive
	t.mu.Lock()
	if exclusive && t.exclusiveGuard != nil {
		if err := t.exclusiveGuard(ctx, res); err != nil {
			t.mu.Unlock()
			return nil, err
		}
	}
	if exclusive {
		t.xPending++
	}
	granted := t.m.Acquire(txn, res, mode, func(deps []wal.TxnID) {
		// Grant callbacks always run under t.mu (synchronously here, or
		// from a Release under the mutex), so the accounting is safe.
		if exclusive {
			t.xPending--
			t.xHeld[txn]++
		}
		ch <- deps
	})
	t.mu.Unlock()
	if granted {
		return <-ch, nil
	}
	select {
	case deps := <-ch:
		return deps, nil
	case <-ctx.Done():
		t.mu.Lock()
		select {
		case deps := <-ch:
			// Granted concurrently with cancellation: keep the grant;
			// the caller decides whether to proceed or Release.
			t.mu.Unlock()
			return deps, nil
		default:
		}
		if exclusive {
			// The queued request dies ungranted; its callback never runs.
			t.xPending--
		}
		t.releaseLocked(txn)
		t.mu.Unlock()
		return nil, ctx.Err()
	}
}

// releaseLocked drops txn's locks and queued requests and updates the
// exclusive accounting, waking quiesce waiters when the last exclusive
// in-flight drains. Callers hold t.mu.
func (t *LockTable) releaseLocked(txn wal.TxnID) {
	t.m.ReleaseAll(txn)
	delete(t.xHeld, txn)
	t.wakeQuiesceLocked()
}

// wakeQuiesceLocked signals QuiesceExclusive waiters once no exclusive
// work is queued or held. Callers hold t.mu.
func (t *LockTable) wakeQuiesceLocked() {
	if t.xPending != 0 || len(t.xHeld) != 0 {
		return
	}
	for _, ch := range t.xWaiters {
		close(ch)
	}
	t.xWaiters = nil
}

// QuiesceExclusive blocks until no exclusive lock is held or queued (or
// ctx ends). Combined with an exclusiveGuard that refuses new exclusive
// intents, this drains every in-flight writer — the promotion barrier:
// after it returns, all writes that will ever be acknowledged by this
// database have run their mutation and shipped their op.
func (t *LockTable) QuiesceExclusive(ctx context.Context) error {
	for {
		t.mu.Lock()
		if t.xPending == 0 && len(t.xHeld) == 0 {
			t.mu.Unlock()
			return nil
		}
		ch := make(chan struct{})
		t.xWaiters = append(t.xWaiters, ch)
		t.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ExclusiveInFlight reports the queued and held exclusive counts (for
// tests and introspection).
func (t *LockTable) ExclusiveInFlight() (pending int, held int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.xPending, len(t.xHeld)
}

// AcquireAll takes the locks on every resource in ascending id order (the
// canonical order that keeps multi-relation queries deadlock-free) and
// returns the union of pre-commit dependencies, deduplicated and sorted.
func (t *LockTable) AcquireAll(ctx context.Context, txn wal.TxnID, resources []uint64, mode lock.Mode) ([]wal.TxnID, error) {
	rs := append([]uint64(nil), resources...)
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	depSet := make(map[wal.TxnID]struct{})
	for i, res := range rs {
		if i > 0 && res == rs[i-1] {
			continue
		}
		deps, err := t.Acquire(ctx, txn, res, mode)
		if err != nil {
			return nil, err
		}
		for _, d := range deps {
			depSet[d] = struct{}{}
		}
	}
	out := make([]wal.TxnID, 0, len(depSet))
	for d := range depSet {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Release drops every lock and queued request of txn (the query-completion
// and abort path).
func (t *LockTable) Release(txn wal.TxnID) {
	t.mu.Lock()
	t.releaseLocked(txn)
	t.mu.Unlock()
}

// PreCommit moves txn's holds to the pre-committed state, granting
// eligible waiters with a dependency on txn (the §5.2 group-commit path).
// Pre-committed holds no longer block waiters, so for quiesce purposes
// the txn's exclusives are done.
func (t *LockTable) PreCommit(txn wal.TxnID) {
	t.mu.Lock()
	t.m.PreCommit(txn)
	delete(t.xHeld, txn)
	t.wakeQuiesceLocked()
	t.mu.Unlock()
}

// Finish removes a durably committed (or fully aborted) txn from all
// pre-committed lists.
func (t *LockTable) Finish(txn wal.TxnID) {
	t.mu.Lock()
	t.m.Finish(txn)
	t.mu.Unlock()
}

// Holders reports the current holders of res (for tests and
// introspection).
func (t *LockTable) Holders(res uint64) []wal.TxnID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m.Holders(res)
}

// Waiting reports the queued transactions on res in FIFO order.
func (t *LockTable) Waiting(res uint64) []wal.TxnID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m.Waiting(res)
}

// CheckInvariants verifies the underlying lock table's consistency.
func (t *LockTable) CheckInvariants() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m.CheckInvariants()
}

// Package lock implements the extended lock table of §5.2: besides the
// usual holder and waiter sets, every lock tracks the pre-committed
// transactions that have released it but are not yet durably committed.
// A transaction granted such a lock becomes dependent on those
// pre-committed transactions; the dependency list is what the log manager
// uses to order commit groups topologically.
package lock

import (
	"fmt"
	"slices"
	"sort"

	"mmdb/internal/wal"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// GrantFunc is invoked when a queued request is granted. deps lists the
// pre-committed transactions the grantee now depends on.
type GrantFunc func(deps []wal.TxnID)

type waiter struct {
	txn   wal.TxnID
	mode  Mode
	grant GrantFunc
}

type state struct {
	holders      map[wal.TxnID]Mode
	preCommitted map[wal.TxnID]struct{}
	waiters      []waiter
}

func (s *state) compatible(txn wal.TxnID, mode Mode) bool {
	for h, hm := range s.holders {
		if h == txn {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

// Manager is the lock table. Not safe for concurrent use; the engine runs
// it from the simulator's event loop.
type Manager struct {
	locks map[uint64]*state
	held  map[wal.TxnID]map[uint64]struct{}
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		locks: make(map[uint64]*state),
		held:  make(map[wal.TxnID]map[uint64]struct{}),
	}
}

func (m *Manager) stateOf(res uint64) *state {
	s, ok := m.locks[res]
	if !ok {
		s = &state{
			holders:      make(map[wal.TxnID]Mode),
			preCommitted: make(map[wal.TxnID]struct{}),
		}
		m.locks[res] = s
	}
	return s
}

// Acquire requests the lock on res for txn. If the lock is available the
// request is granted before Acquire returns (grant is called synchronously)
// and Acquire reports true; otherwise the request queues and grant runs
// when the lock frees up.
//
// Re-acquiring a held lock (same or weaker mode) is a no-op grant; a
// Shared→Exclusive upgrade is granted when txn is the only holder and
// queues otherwise.
func (m *Manager) Acquire(txn wal.TxnID, res uint64, mode Mode, grant GrantFunc) bool {
	s := m.stateOf(res)
	if cur, ok := s.holders[txn]; ok && (cur == Exclusive || mode == Shared) {
		grant(nil)
		return true
	}
	if s.compatible(txn, mode) && len(s.waiters) == 0 {
		m.grantNow(s, txn, res, mode, grant)
		return true
	}
	s.waiters = append(s.waiters, waiter{txn: txn, mode: mode, grant: grant})
	return false
}

func (m *Manager) grantNow(s *state, txn wal.TxnID, res uint64, mode Mode, grant GrantFunc) {
	s.holders[txn] = mode
	if m.held[txn] == nil {
		m.held[txn] = make(map[uint64]struct{})
	}
	m.held[txn][res] = struct{}{}
	deps := make([]wal.TxnID, 0, len(s.preCommitted))
	for t := range s.preCommitted {
		deps = append(deps, t)
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
	grant(deps)
}

// PreCommit moves txn from the holding list to the pre-committed list on
// every lock it holds (the paper assumes all locks are held until
// pre-commit) and grants eligible waiters.
func (m *Manager) PreCommit(txn wal.TxnID) {
	for _, res := range m.heldSorted(txn) {
		s := m.locks[res]
		delete(s.holders, txn)
		s.preCommitted[txn] = struct{}{}
		m.grantWaiters(s, res)
	}
	delete(m.held, txn)
}

// Finish removes a durably committed (or fully aborted) transaction from
// all pre-committed lists.
func (m *Manager) Finish(txn wal.TxnID) {
	for res, s := range m.locks {
		delete(s.preCommitted, txn)
		m.cleanup(res, s)
	}
}

// ReleaseAll drops txn's holds and queued requests without pre-committing
// (the abort path) and grants eligible waiters.
func (m *Manager) ReleaseAll(txn wal.TxnID) {
	for _, res := range m.heldSorted(txn) {
		s := m.locks[res]
		delete(s.holders, txn)
		m.grantWaiters(s, res)
	}
	delete(m.held, txn)
	// A transaction queues on at most one resource at a time, so this
	// pass grants on at most one: map order cannot reorder anything.
	for res, s := range m.locks {
		filtered := s.waiters[:0]
		for _, w := range s.waiters {
			if w.txn != txn {
				filtered = append(filtered, w)
			}
		}
		s.waiters = filtered
		m.grantWaiters(s, res)
	}
}

// heldSorted returns the resources txn holds in ascending order. Releasing
// grants waiters resource by resource, and each grant callback schedules
// simulator events, so the order must be a fixed one and not the map's —
// or a virtual-clock run is not reproducible.
func (m *Manager) heldSorted(txn wal.TxnID) []uint64 {
	out := make([]uint64, 0, len(m.held[txn]))
	for res := range m.held[txn] {
		out = append(out, res)
	}
	slices.Sort(out)
	return out
}

func (m *Manager) grantWaiters(s *state, res uint64) {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if cur, ok := s.holders[w.txn]; ok && (cur == Exclusive || w.mode == Shared) {
			s.waiters = s.waiters[1:]
			w.grant(nil)
			continue
		}
		if !s.compatible(w.txn, w.mode) {
			return
		}
		s.waiters = s.waiters[1:]
		m.grantNow(s, w.txn, res, w.mode, w.grant)
	}
}

func (m *Manager) cleanup(res uint64, s *state) {
	if len(s.holders) == 0 && len(s.preCommitted) == 0 && len(s.waiters) == 0 {
		delete(m.locks, res)
	}
}

// Holders returns the transactions currently holding res (for tests).
func (m *Manager) Holders(res uint64) []wal.TxnID {
	s, ok := m.locks[res]
	if !ok {
		return nil
	}
	out := make([]wal.TxnID, 0, len(s.holders))
	for t := range s.holders {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PreCommitted returns the pre-committed set of res (for tests).
func (m *Manager) PreCommitted(res uint64) []wal.TxnID {
	s, ok := m.locks[res]
	if !ok {
		return nil
	}
	out := make([]wal.TxnID, 0, len(s.preCommitted))
	for t := range s.preCommitted {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Waiting returns the queued transactions on res in order (for tests).
func (m *Manager) Waiting(res uint64) []wal.TxnID {
	s, ok := m.locks[res]
	if !ok {
		return nil
	}
	out := make([]wal.TxnID, 0, len(s.waiters))
	for _, w := range s.waiters {
		out = append(out, w.txn)
	}
	return out
}

// CheckInvariants verifies internal consistency (for tests).
func (m *Manager) CheckInvariants() error {
	for res, s := range m.locks {
		x := 0
		for _, mode := range s.holders {
			if mode == Exclusive {
				x++
			}
		}
		if x > 1 {
			return fmt.Errorf("lock: resource %d has %d exclusive holders", res, x)
		}
		if x == 1 && len(s.holders) > 1 {
			return fmt.Errorf("lock: resource %d mixes X with other holders", res)
		}
	}
	for txn, resources := range m.held {
		for res := range resources {
			s, ok := m.locks[res]
			if !ok {
				return fmt.Errorf("lock: txn %d claims missing resource %d", txn, res)
			}
			if _, ok := s.holders[txn]; !ok {
				return fmt.Errorf("lock: txn %d claims unheld resource %d", txn, res)
			}
		}
	}
	return nil
}

package mmdb

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mmdb/internal/catalog"
	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/join"
	"mmdb/internal/lock"
	"mmdb/internal/session"
	"mmdb/internal/simio"
	"mmdb/internal/wal"
)

// Session is one admitted query context: a scheduler slot, a memory grant
// carved out of the database's MemoryPages, relation-level shared intents
// taken as relations are referenced, and a private virtual clock.
//
// Every operator a session runs consumes the *granted* |M| — so the §3
// algorithm behavior (hybrid staying resident, GRACE partitioning, sort
// fan-in) and the §4 planner choices stay faithful to the cost model under
// contention — and charges the session clock, keeping per-query counters
// bit-identical however many sessions run at once. Close releases the
// slot, the grant and the locks, and folds the session's counters into
// the database's global clock.
//
// A Session is not itself safe for concurrent use: it represents one
// query stream. Open many sessions for concurrency.
type Session struct {
	db      *Database
	txn     wal.TxnID
	clock   *cost.Clock
	view    *simio.Disk
	class   QueryClass
	grant   *session.Grant
	retries int
	queued  time.Duration
	ctx     context.Context

	mu     sync.Mutex
	closed bool
}

// NewSession admits a query context: it waits for a scheduler slot (FIFO
// within its priority class, the pick policy deciding between classes;
// honoring ctx cancellation and deadlines; rejecting with an
// *OverloadError wrapping ErrOverloaded when the class's wait queue is
// full) and reserves a memory grant. Sessions default to the Batch class
// and the class's default grant; pass WithClass / WithMinPages to
// override:
//
//	s, err := db.NewSession(ctx, mmdb.WithClass(mmdb.Interactive))
//
// Close must be called when the session's queries are done. SQL (Query)
// is a session's one operator surface; every statement runs against the
// session's grant and charges its clock.
func (db *Database) NewSession(ctx context.Context, opts ...SessionOption) (*Session, error) {
	cfg := resolveSessionConfig(opts)
	queued, err := db.sched.Admit(ctx, cfg.class)
	if err != nil {
		return nil, err
	}
	grant, err := db.broker.ReserveGrant(ctx, cfg.class, cfg.minPages)
	if err != nil {
		db.sched.Done(cfg.class)
		return nil, err
	}
	clock := cost.NewClock(db.opts.Params)
	return &Session{
		db:      db,
		txn:     db.locks.NextID(),
		clock:   clock,
		view:    db.disk.View(clock),
		class:   cfg.class,
		grant:   grant,
		retries: cfg.retries,
		queued:  queued,
		ctx:     ctx,
	}, nil
}

// withSession runs fn inside a one-shot admitted session, closed (its
// counters folded into the database clock) before it returns. One-shot
// sessions admit under the Batch class unless opts say otherwise.
func (db *Database) withSession(ctx context.Context, fn func(s *Session) error, opts ...SessionOption) error {
	s, err := db.NewSession(ctx, opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(s)
}

// Close releases the session's locks, memory grant and scheduler slot and
// merges its virtual-clock counters into the database's global clock.
// Close is idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.db.locks.Release(s.txn)
	s.grant.Release()
	s.db.sched.Done(s.class)
	s.db.clock.Charge(s.clock.Counters())
}

// Class returns the session's admission priority class.
func (s *Session) Class() QueryClass { return s.class }

// GrantedPages returns the session's current memory grant (its live |M|).
// The value shrinks when the grant is revoked from (ShedMemory).
func (s *Session) GrantedPages() int { return s.grant.Pages() }

// ShedMemory takes up to pages back from the session's memory grant and
// returns them to the database's broker immediately, reporting how many
// were reclaimed. The grant never shrinks below the 2-page floor any §3
// operator needs to finish. A hybrid hash join in flight observes the
// shrinkage through its live-|M| hook and degrades to the GRACE spill
// fallback rather than overcommitting — memory pressure costs extra IO
// passes, never a wrong answer or an overrun.
func (s *Session) ShedMemory(pages int) int { return s.grant.Revoke(pages) }

// QueuedFor returns the wall time the session waited for admission.
func (s *Session) QueuedFor() time.Duration { return s.queued }

// Counters returns the operations this session has charged so far.
func (s *Session) Counters() Counters { return s.clock.Counters() }

// VirtualTime returns the session's elapsed virtual time.
func (s *Session) VirtualTime() time.Duration { return s.clock.Now() }

// lockAndView takes shared intents on the named relations (canonical
// order) and returns their catalog entries plus per-session heap-file
// views charging the session clock.
func (s *Session) lockAndView(names ...string) ([]*catalog.Relation, []*heap.File, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("mmdb: session is closed")
	}
	s.mu.Unlock()
	resources := make([]uint64, len(names))
	for i, n := range names {
		resources[i] = catalog.ResourceID(n)
	}
	if _, err := s.db.locks.AcquireAll(s.ctx, s.txn, resources, lock.Shared); err != nil {
		return nil, nil, err
	}
	rels := make([]*catalog.Relation, len(names))
	files := make([]*heap.File, len(names))
	for i, n := range names {
		r, err := s.db.cat.Get(n)
		if err != nil {
			return nil, nil, err
		}
		f, err := r.File.OnDisk(s.view)
		if err != nil {
			return nil, nil, err
		}
		rels[i] = r
		files[i] = f
	}
	return rels, files, nil
}

// joinSpec is every join the session runs before its inputs are filled
// in: the granted |M| as of now, the live grant a revocation shrinks
// (ShedMemory), and the database's execution settings.
func (s *Session) joinSpec() join.Spec {
	return join.Spec{
		M:           s.grant.Pages(),
		F:           s.db.opts.Params.F,
		LiveM:       s.grant.Pages,
		Parallelism: s.db.opts.Parallelism,
	}
}

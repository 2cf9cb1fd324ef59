package mmdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/catalog"
	"mmdb/internal/cost"
	"mmdb/internal/extsort"
	"mmdb/internal/fault"
	"mmdb/internal/heap"
	"mmdb/internal/join"
	"mmdb/internal/lock"
	"mmdb/internal/session"
	"mmdb/internal/simio"
	"mmdb/internal/wal"
)

// JoinAlgorithm selects one of the §3 join implementations.
type JoinAlgorithm = join.Algorithm

// Join algorithms.
const (
	NestedLoops = join.NestedLoops
	SortMerge   = join.SortMerge
	SimpleHash  = join.SimpleHash
	GraceHash   = join.GraceHash
	HybridHash  = join.HybridHash
)

// SortStats reports how one relation sort of the §3.4 machinery executed:
// how many replacement-selection runs formed, how many streams the final
// on-the-fly merge combined, whether intermediate merge passes were needed
// (the deepest chain when the sort was chunked), and whether the relation
// fit in memory outright.
type SortStats struct {
	Runs        int
	FinalRuns   int
	MergePasses int
	Chunks      int // run-formation chunks (1 = the classic single queue)
	InMemory    bool
}

// JoinResult reports an executed join.
type JoinResult struct {
	Algorithm  JoinAlgorithm
	Matches    int64
	Counters   Counters      // operations this join charged
	Elapsed    time.Duration // virtual time consumed
	Passes     int
	Partitions int
	// Degraded reports that the session's memory grant shrank mid-join
	// and hybrid hash completed via the GRACE spill fallback — the
	// result is still exact, the pressure cost extra IO passes.
	Degraded bool
	// SortR and SortS detail how sort-merge sorted each input (zero for
	// the hash algorithms); SortR describes the build side after any
	// smaller-relation swap.
	SortR, SortS SortStats
}

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
	cancel  context.CancelFunc
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
// Close must be called when the session's queries are done. A session
// is the engine's one operator surface: SQL (Query), plus the §3
// operators Join and OrderBy (the sort behind a one-table ORDER BY),
// which the experiment ladders drive directly.
func (db *Database) NewSession(ctx context.Context, opts ...SessionOption) (*Session, error) {
	cfg := resolveSessionConfig(opts)
	var cancel context.CancelFunc
	if db.opts.QueryTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			ctx, cancel = context.WithTimeout(ctx, db.opts.QueryTimeout)
		}
	}
	queued, err := db.sched.Admit(ctx, cfg.class)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	grant, err := db.broker.ReserveGrant(ctx, cfg.class, cfg.minPages)
	if err != nil {
		db.sched.Done(cfg.class)
		if cancel != nil {
			cancel()
		}
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
		cancel:  cancel,
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
	if s.cancel != nil {
		s.cancel()
	}
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

// Join runs an equijoin between two relations within the session's memory
// grant, streaming joined pairs to emit (nil to count only). The smaller
// relation is the build side; pairs still reach emit as (left, right).
func (s *Session) Join(algorithm JoinAlgorithm, left, right, leftCol, rightCol string, emit func(l, r Tuple)) (JoinResult, error) {
	rels, files, err := s.lockAndView(left, right)
	if err != nil {
		return JoinResult{}, err
	}
	lc := rels[0].Schema().FieldIndex(leftCol)
	if lc < 0 {
		return JoinResult{}, fmt.Errorf("mmdb: %s has no column %q", left, leftCol)
	}
	rc := rels[1].Schema().FieldIndex(rightCol)
	if rc < 0 {
		return JoinResult{}, fmt.Errorf("mmdb: %s has no column %q", right, rightCol)
	}
	spec := s.joinSpec()
	spec.R, spec.S, spec.RCol, spec.SCol = files[0], files[1], lc, rc
	swapped := spec.S.NumPages() < spec.R.NumPages()
	if swapped {
		spec.R, spec.S, spec.RCol, spec.SCol = files[1], files[0], rc, lc
	}
	deliver := func(r, t Tuple) {
		if swapped {
			emit(t, r)
		} else {
			emit(r, t)
		}
	}
	// A retried join buffers each attempt's pairs and delivers them only on
	// success, so the caller never sees a partial result set.
	var buf [][2]Tuple
	var inner join.Emit
	switch {
	case emit == nil:
	case s.retries > 0:
		inner = func(r, t Tuple) { buf = append(buf, [2]Tuple{r.Clone(), t.Clone()}) }
	default:
		inner = deliver
	}
	var res join.Result
	err = s.retry(func() (err error) {
		buf = buf[:0]
		res, err = join.Run(algorithm, spec, inner)
		return err
	})
	if err != nil {
		return JoinResult{}, err
	}
	for _, p := range buf {
		deliver(p[0], p[1])
	}
	if res.Algorithm == SortMerge {
		s.db.sorts.record(res.RSort.Runs, res.RSort.MergePasses, res.RSort.InMemory)
		s.db.sorts.record(res.SSort.Runs, res.SSort.MergePasses, res.SSort.InMemory)
	}
	return JoinResult{
		Algorithm:  res.Algorithm,
		Matches:    res.Matches,
		Counters:   res.Counters,
		Elapsed:    res.Elapsed,
		Passes:     res.Passes,
		Partitions: res.Partitions,
		Degraded:   res.GraceFallback,
		SortR:      SortStats(res.RSort),
		SortS:      SortStats(res.SSort),
	}, nil
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
		SortChunks:  s.db.opts.SortChunks,
	}
}

// retry runs attempt, re-running it while it is killed by a transient
// injected fault and the session's WithRetry budget lasts; an exhausted
// budget or any other error surfaces the last error unchanged. An attempt
// must discard what a failed one produced.
func (s *Session) retry(attempt func() error) error {
	for n := 0; ; n++ {
		err := attempt()
		if err == nil || n >= s.retries || !errors.Is(err, fault.ErrTransient) {
			return err
		}
	}
}

var orderBySeq atomic.Uint64

// OrderBy streams the relation's rows in ascending column order to fn,
// until it returns false, using the §3.4 sort machinery
// (replacement-selection runs plus an n-way merge) within the session's
// memory grant. Run IO is charged exactly as in the sort-merge join.
func (s *Session) OrderBy(relation, column string, fn func(Tuple) bool) error {
	rels, files, err := s.lockAndView(relation)
	if err != nil {
		return err
	}
	col := rels[0].Schema().FieldIndex(column)
	if col < 0 {
		return fmt.Errorf("mmdb: %s has no column %q", relation, column)
	}
	capacity := int(float64(s.grant.Pages()) * float64(files[0].TuplesPerPage()) / s.db.opts.Params.F)
	if capacity < 2 {
		capacity = 2
	}
	fanout := s.grant.Pages()
	stream, stats, err := extsort.SortWith(files[0], extsort.Config{
		Col:         col,
		MemTuples:   capacity,
		MaxFanout:   fanout,
		Prefix:      fmt.Sprintf("orderby.%s.%d", relation, orderBySeq.Add(1)),
		Input:       simio.Uncharged,
		Chunks:      s.db.opts.SortChunks,
		Parallelism: s.db.opts.Parallelism,
	})
	if err != nil {
		return err
	}
	defer stream.Close() // releases run files even when fn stops early
	s.db.sorts.record(stats.Runs, stats.MergePasses, stats.InMemory)
	for {
		t, ok := stream.Next()
		if !ok {
			break
		}
		if !fn(t) {
			break
		}
	}
	return stream.Err()
}

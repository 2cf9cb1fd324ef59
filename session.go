package mmdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mmdb/internal/agg"
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
// and the policy-default grant; pass WithClass / WithMinPages to
// override:
//
//	s, err := db.NewSession(ctx, mmdb.WithClass(mmdb.Interactive))
//
// Close must be called when the session's queries are done.
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
// grant, streaming joined pairs to emit (nil to count only). See
// Database.Join.
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
	if algorithm == AutoJoin {
		algorithm = HybridHash
	}
	spec := join.Spec{
		R: files[0], S: files[1],
		RCol: lc, SCol: rc,
		M:           s.grant.Pages(),
		F:           s.db.opts.Params.F,
		LiveM:       s.grant.Pages,
		Parallelism: s.db.opts.Parallelism,
		SortChunks:  s.db.opts.SortChunks,
	}
	swapped := false
	if spec.S.NumPages() < spec.R.NumPages() {
		spec.R, spec.S = spec.S, spec.R
		spec.RCol, spec.SCol = spec.SCol, spec.RCol
		swapped = true
	}
	var wrapped join.Emit
	if emit != nil {
		wrapped = func(r, t Tuple) {
			if swapped {
				emit(t, r)
			} else {
				emit(r, t)
			}
		}
	}
	res, err := s.runJoin(algorithm, spec, wrapped)
	if err != nil {
		return JoinResult{}, err
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

// runJoin executes the join, optionally re-running it when it is killed
// by a transient injected fault (WithRetry). Each attempt buffers its
// emitted pairs and delivers them only on success, so the caller never
// sees a partial result set from a failed attempt; an exhausted budget or
// a permanent fault surfaces the last error unchanged.
func (s *Session) runJoin(algorithm JoinAlgorithm, spec join.Spec, emit join.Emit) (join.Result, error) {
	if s.retries <= 0 {
		return join.Run(algorithm, spec, emit)
	}
	for attempt := 0; ; attempt++ {
		var buf [][2]Tuple
		inner := emit
		if emit != nil {
			inner = func(r, t Tuple) { buf = append(buf, [2]Tuple{r.Clone(), t.Clone()}) }
		}
		res, err := join.Run(algorithm, spec, inner)
		if err == nil {
			if emit != nil {
				for _, p := range buf {
					emit(p[0], p[1])
				}
			}
			return res, nil
		}
		if attempt >= s.retries || !errors.Is(err, fault.ErrTransient) {
			return res, err
		}
	}
}

// Aggregate computes per-group count/sum/min/max/avg within the session's
// memory grant. See Database.Aggregate.
func (s *Session) Aggregate(relation, groupCol, valueCol string) ([]GroupRow, error) {
	rels, files, err := s.lockAndView(relation)
	if err != nil {
		return nil, err
	}
	schema := rels[0].Schema()
	gc := schema.FieldIndex(groupCol)
	vc := schema.FieldIndex(valueCol)
	if gc < 0 || vc < 0 {
		return nil, fmt.Errorf("mmdb: %s lacks column %q or %q", relation, groupCol, valueCol)
	}
	res, err := agg.Hash(agg.Spec{
		Input:       files[0],
		GroupCol:    gc,
		ValueCol:    vc,
		M:           s.grant.Pages(),
		F:           s.db.opts.Params.F,
		Parallelism: s.db.opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	out := make([]GroupRow, len(res.Groups))
	for i, g := range res.Groups {
		out[i] = GroupRow(g)
	}
	return out, nil
}

// Distinct returns the distinct values of a column within the session's
// memory grant. See Database.Distinct.
func (s *Session) Distinct(relation, column string) ([]Value, error) {
	rels, files, err := s.lockAndView(relation)
	if err != nil {
		return nil, err
	}
	col := rels[0].Schema().FieldIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("mmdb: %s has no column %q", relation, column)
	}
	return agg.Distinct(files[0], col, s.grant.Pages(), s.db.opts.Params.F, s.db.opts.Parallelism)
}

// Select scans the predicate's relation, streaming rows that satisfy p
// to fn until it returns false — the short interactive lookup path, run
// under the session's admission class with IO and comparisons charged to
// the session clock. See Relation.Select for the serial equivalent.
func (s *Session) Select(p *Pred, fn func(Tuple) bool) error {
	if err := p.Err(); err != nil {
		return err
	}
	_, files, err := s.lockAndView(p.rel.Name)
	if err != nil {
		return err
	}
	f := newFilter(p.inner)
	return files[0].Scan(simio.Seq, func(t Tuple) bool {
		return !f.pass(s.clock, t) || fn(t)
	})
}

// OrderBy streams the relation's rows in ascending column order using the
// §3.4 sort machinery within the session's memory grant. See
// Database.OrderBy.
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

// Plan optimizes a multi-way join under the session's memory grant: the
// §4 planner sees the granted |M|, not the global one, so its plan
// choices stay faithful to what the session can actually execute.
func (s *Session) Plan(q Query, mode PlanMode) (*QueryPlan, error) {
	names := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		names[i] = t.Relation
	}
	if _, _, err := s.lockAndView(names...); err != nil {
		return nil, err
	}
	pq, err := s.db.buildPlannerQuery(q, s.grant.Pages(), s.view)
	if err != nil {
		return nil, err
	}
	return s.db.finishPlan(pq, mode, s)
}

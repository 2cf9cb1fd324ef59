// Package mmdb is a main-memory relational database engine reproducing
// "Implementation Techniques for Main Memory Database Systems" (DeWitt,
// Katz, Olken, Shapiro, Stonebraker, Wood — SIGMOD 1984).
//
// The engine bundles the paper's building blocks behind one API:
//
//   - relations stored as paged heap files with AVL and B+-tree indexes
//     (§2), over a simulated disk that charges every operation to a
//     deterministic virtual clock using the paper's Table 2 hardware
//     parameters;
//   - the four §3 join algorithms (sort-merge, simple hash, GRACE hash,
//     hybrid hash) plus hash-based aggregation and duplicate elimination
//     (§3.9), each both executable and analytically costed;
//   - a Selinger-style access planner implementing the §4 observation
//     that large memories collapse planning to selectivity ordering over
//     hash joins;
//   - a §5 recovery simulator: group commit with pre-committed
//     transactions, partitioned logs, stable-memory log compression,
//     fuzzy checkpointing and crash recovery.
//
// Start with Open and load relations, then query them in SQL
// (Database.Query, docs/SQL.md; every join is planned by the §4 planner)
// or, for the §3 operators themselves, on a Session (Join, OrderBy). The
// cmd/mmdbench binary regenerates every table and figure of the paper;
// see EXPERIMENTS.md for the measured results.
package mmdb

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mmdb/internal/catalog"
	"mmdb/internal/cost"
	"mmdb/internal/fault"
	"mmdb/internal/lock"
	"mmdb/internal/session"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// Re-exported schema building blocks.
type (
	// Schema describes a relation's fixed-width tuple layout.
	Schema = tuple.Schema
	// Field is one typed column.
	Field = tuple.Field
	// Tuple is an encoded row.
	Tuple = tuple.Tuple
	// Value is a dynamically typed column value.
	Value = tuple.Value
	// Params is the hardware characterization (Table 2/3).
	Params = cost.Params
	// Counters tallies primitive operations charged to the virtual clock.
	Counters = cost.Counters
	// Kind is a column's value kind (Int64, Float64, String).
	Kind = tuple.Kind
)

// Column kinds.
const (
	Int64   = tuple.Int64
	Float64 = tuple.Float64
	String  = tuple.String
)

// Value constructors, re-exported.
var (
	IntValue    = tuple.IntValue
	FloatValue  = tuple.FloatValue
	StringValue = tuple.StringValue
	NewSchema   = tuple.NewSchema
	MustSchema  = tuple.MustSchema
)

// DefaultParams returns the paper's Table 2 parameter settings.
func DefaultParams() Params { return cost.DefaultParams() }

// Options configures a Database.
type Options struct {
	// PageSize is the storage page size in bytes (the paper's P).
	// 0 means 4096.
	PageSize int
	// MemoryPages is |M|, the pages of main memory query operators may
	// use. 0 means 1000 (4 MB at 4 KB pages, the paper's §3.2 example).
	MemoryPages int
	// Params is the virtual-clock hardware model. Zero value means
	// DefaultParams.
	Params Params
	// Parallelism bounds the worker goroutines the parallel operators
	// (the partition phases of GRACE and hybrid hash joins, spilled hash
	// aggregation) may use. 0 or 1 means serial execution, identical to
	// the original single-goroutine engine; a negative value means one
	// worker per CPU (GOMAXPROCS). Virtual time and operation counters
	// are the same at every setting — parallelism trades wall-clock time
	// only, never the paper's accounting.
	Parallelism int
	// SortChunks is the sort decomposition plan used by sort-merge joins
	// and OrderBy: run formation splits each relation into this many
	// page-range chunks (each with a proportional share of the sort
	// memory) whose sorted streams a merge tree recombines. Unlike
	// Parallelism this is a *plan* knob — like GRACE's partition count it
	// changes the virtual counters (more, shorter runs; one extra
	// selection-tree level) — but for a fixed SortChunks the counters are
	// bit-identical at every Parallelism. 0 or 1 means the classic
	// single-queue sort. Chunked sorts only speed up wall-clock time when
	// Parallelism > 1.
	SortChunks int

	// MaxConcurrentQueries bounds how many admitted queries may execute
	// simultaneously (the scheduler's slots). 0 means 1: queries are
	// admitted one at a time, which preserves the original serial
	// engine's behavior exactly — including whole-|M| memory grants —
	// while already making concurrent callers safe.
	MaxConcurrentQueries int
	// QueueDepth bounds how many queries of a class may wait for a slot
	// before new arrivals of that class are rejected with ErrOverloaded.
	// 0 means 64; negative means no queue (reject as soon as all slots
	// are busy). Classes[c].QueueDepth overrides it per class.
	QueueDepth int
	// PickPolicy selects which class a freed execution slot goes to when
	// several classes have queued queries: StrictPriority (the default —
	// Interactive ahead of Batch at grant time, no in-flight preemption)
	// or WeightedFair (slot grants proportional to class weights).
	// With a single class in use both degenerate to plain FIFO, the
	// pre-multiclass behavior.
	PickPolicy PickPolicy
	// Classes tunes admission per priority class, indexed by QueryClass
	// (Classes[Interactive], Classes[Batch]). Zero values inherit the
	// global defaults; see ClassConfig.
	Classes [NumClasses]ClassConfig
	// QueryTimeout, when positive, bounds each session's total time
	// (queueing included) unless its context already carries an earlier
	// deadline.
	QueryTimeout time.Duration
}

// QueryClass is an admission priority class; sessions carry one
// (WithClass) and the scheduler and broker treat classes separately.
type QueryClass = session.Class

// Priority classes. Sessions default to Batch; tag short terminal-style
// queries Interactive so they are never stuck behind bulk scans.
const (
	Interactive = session.Interactive
	Batch       = session.Batch
	// NumClasses sizes per-class arrays such as Options.Classes.
	NumClasses = int(session.NumClasses)
)

// PickPolicy selects how a freed execution slot chooses among queued
// classes (see Options.PickPolicy).
type PickPolicy = session.PickPolicy

// Pick policies.
const (
	StrictPriority = session.StrictPriority
	WeightedFair   = session.WeightedFair
)

// ClassConfig tunes one priority class's admission (see Options.Classes).
type ClassConfig struct {
	// QueueDepth bounds this class's admission queue. 0 inherits
	// Options.QueueDepth; negative means no queue.
	QueueDepth int
	// Weight is the class's slot share under WeightedFair: over time a
	// backlogged class receives freed slots in proportion to its weight.
	// 0 means the default (4 for Interactive, 1 for Batch); ignored
	// under StrictPriority.
	Weight int
	// ReservedPages sets aside that many of MemoryPages for exclusive
	// use by this class's memory grants: other classes' grants can never
	// draw them, so bulk work cannot starve this class of |M|. A class's
	// default grant is (general + reserved)/MaxConcurrentQueries, which
	// keeps any admitted mix fitting without memory waits. 0 means no
	// reservation.
	ReservedPages int
}

// ErrOverloaded is returned when a query cannot even be queued: all
// execution slots are busy and its class's admission queue is full. The
// concrete error is an *OverloadError carrying the shedding class and
// depth; errors.Is(err, ErrOverloaded) matches it.
var ErrOverloaded = session.ErrOverloaded

// OverloadError is the concrete ErrOverloaded rejection, reporting which
// class shed the query and the configured queue depth that was full. Use
// errors.As to recover it and distinguish interactive from batch
// shedding.
type OverloadError = session.OverloadError

// MinGrantPages is the smallest memory grant the broker hands out and
// the floor ShedMemory can never revoke past: any §3 operator needs two
// pages (one input, one output) to finish.
const MinGrantPages = session.MinGrant

// FaultInjector is a deterministic, seeded schedule of device faults —
// transient errors, permanent failures, latency stalls — consulted on
// every charged IO of the database's simulated disk. Build one with
// NewFaultInjector and its chainable rule methods, then install it with
// Database.ArmFaults.
type FaultInjector = fault.Injector

// NewFaultInjector returns an empty fault schedule; equal seeds replay
// identical fault sequences. See the fault package for the rule builders.
var NewFaultInjector = fault.NewInjector

// Fault taxonomy sentinels: every injected error matches ErrInjectedFault
// via errors.Is, and exactly one of the two refinements. Transient faults
// are absorbed by the engine's bounded retry (and by WithRetry sessions);
// permanent faults always surface.
var (
	ErrInjectedFault  = simio.ErrInjected
	ErrFaultTransient = fault.ErrTransient
	ErrFaultPermanent = fault.ErrPermanent
)

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.MemoryPages == 0 {
		o.MemoryPages = 1000
	}
	if o.Params == (Params{}) {
		o.Params = cost.DefaultParams()
	}
	if o.MaxConcurrentQueries == 0 {
		o.MaxConcurrentQueries = 1
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	for c := range o.Classes {
		if o.Classes[c].QueueDepth == 0 {
			o.Classes[c].QueueDepth = o.QueueDepth
		}
		if o.Classes[c].Weight == 0 {
			if QueryClass(c) == Interactive {
				o.Classes[c].Weight = 4
			} else {
				o.Classes[c].Weight = 1
			}
		}
	}
	return o
}

// Database is a main-memory relational database with simulated IO cost
// accounting. It is safe for concurrent use: queries pass through an
// admission scheduler (bounded slots plus a FIFO wait queue), receive a
// memory grant brokered out of MemoryPages, and take relation-level
// shared intents through the §5.2 lock table, while loads and DDL take
// exclusive intents. With the default Options the scheduler admits one
// query at a time, which reproduces the original serial engine's
// accounting exactly.
type Database struct {
	opts   Options
	clock  *cost.Clock
	disk   *simio.Disk
	cat    *catalog.Catalog
	sched  *session.Scheduler
	broker *session.Broker
	locks  *session.LockTable
	sorts  sortActivity
	replay replayActivity

	// Replication plumbing (cluster.go). ship, when set on a cluster
	// primary, receives every durable mutation — in serialization order,
	// invoked while the mutating call still holds its exclusive relation
	// intent; it may fail (a fenced or just-demoted primary), failing the
	// mutating call. readOnly marks a replica database: exclusive intents
	// are refused at the lock layer except for the replication applier
	// (which locks through applierCtx). Both are atomic because promotion
	// flips them at runtime while sessions are live; cluster back-points
	// to the owning Cluster so refusals can carry the current epoch and
	// primary hint.
	ship     atomic.Pointer[shipFn]
	readOnly atomic.Bool
	cluster  *Cluster // set once at OpenCluster, before any use
}

// shipFn receives one durable mutation for replication. A non-nil error
// aborts the mutating statement — the op was not acknowledged and did
// not replicate.
type shipFn func(op shipOp) error

// sortActivity accumulates relation-sort telemetry across sessions (the
// SessionMetrics Sort* fields).
type sortActivity struct {
	sorts       atomic.Uint64
	runs        atomic.Uint64
	mergePasses atomic.Uint64
	inMemory    atomic.Uint64
}

func (a *sortActivity) record(runs, mergePasses int, inMemory bool) {
	a.sorts.Add(1)
	a.runs.Add(uint64(runs))
	a.mergePasses.Add(uint64(mergePasses))
	if inMemory {
		a.inMemory.Add(1)
	}
}

// replayActivity accumulates crash-recovery telemetry across observed
// recoveries (the SessionMetrics Recovery* fields).
type replayActivity struct {
	recoveries     atomic.Uint64
	segsScanned    atomic.Uint64
	segsSkipped    atomic.Uint64
	workers        atomic.Uint64 // width of the most recent replay
	compactedBytes atomic.Int64
	virtualNanos   atomic.Int64
}

// ObserveRecovery folds a crash-recovery report into the database's
// session metrics, so operators watching SessionMetrics see replay
// effort — segments scanned versus skipped, the fan-out width, bytes
// reclaimed by log compaction, and virtual replay time — alongside query
// activity.
func (db *Database) ObserveRecovery(info RecoveryInfo) {
	db.replay.recoveries.Add(1)
	db.replay.segsScanned.Add(uint64(info.SegmentsScanned))
	db.replay.segsSkipped.Add(uint64(info.SegmentsSkipped))
	db.replay.workers.Store(uint64(info.ReplayWorkers))
	db.replay.compactedBytes.Add(info.CompactedBytes)
	db.replay.virtualNanos.Add(int64(info.Virtual))
}

// Open creates an empty database.
func Open(opts Options) (*Database, error) {
	opts = opts.withDefaults()
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.PageSize < 64 {
		return nil, fmt.Errorf("mmdb: page size %d too small", opts.PageSize)
	}
	if opts.MemoryPages < 2 {
		return nil, fmt.Errorf("mmdb: need at least 2 memory pages")
	}
	if opts.MaxConcurrentQueries < 0 {
		return nil, fmt.Errorf("mmdb: MaxConcurrentQueries %d must be positive", opts.MaxConcurrentQueries)
	}
	clock := cost.NewClock(opts.Params)
	disk := simio.NewDisk(clock, opts.PageSize)
	var limits [session.NumClasses]session.ClassLimits
	var reserved [session.NumClasses]int
	for c := range limits {
		limits[c] = session.ClassLimits{
			QueueDepth: opts.Classes[c].QueueDepth,
			Weight:     opts.Classes[c].Weight,
		}
		reserved[c] = opts.Classes[c].ReservedPages
	}
	return &Database{
		opts:   opts,
		clock:  clock,
		disk:   disk,
		cat:    catalog.New(disk),
		sched:  session.NewScheduler(opts.MaxConcurrentQueries, opts.PickPolicy, limits),
		broker: session.NewBroker(opts.MemoryPages, opts.MaxConcurrentQueries, reserved),
		locks:  session.NewLockTable(),
	}, nil
}

// MustOpen is Open that panics on error.
func MustOpen(opts Options) *Database {
	db, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// Options returns the effective configuration.
func (db *Database) Options() Options { return db.opts }

// MemoryPages returns |M|.
func (db *Database) MemoryPages() int { return db.opts.MemoryPages }

// Counters returns the operations charged so far.
func (db *Database) Counters() Counters { return db.clock.Counters() }

// VirtualTime returns the elapsed virtual time.
func (db *Database) VirtualTime() time.Duration { return db.clock.Now() }

// ResetClock zeroes the virtual clock and counters (between experiments).
func (db *Database) ResetClock() { db.clock.Reset() }

// ArmFaults installs a fault-injection schedule on the database's
// simulated disk: every subsequent charged IO (base relations, spill
// files, sort runs — through any session view) consults it. ArmFaults(nil)
// disarms. Chaos testing only; the injector is deterministic, so a given
// seed replays the same fault sequence against the same workload.
func (db *Database) ArmFaults(inj *FaultInjector) {
	if inj == nil {
		db.disk.SetInjector(nil)
		return
	}
	db.disk.SetInjector(inj)
}

// CreateRelation registers an empty relation. Like every other durable
// mutation it takes an exclusive relation intent, so a fencing guard or
// quiesce barrier sees creates too.
func (db *Database) CreateRelation(name string, schema *Schema) (*Relation, error) {
	return db.createRelation(false, name, schema)
}

// createRelation is CreateRelation for a client (applier false) or for the
// replication applier, whose handle it returns.
func (db *Database) createRelation(applier bool, name string, schema *Schema) (*Relation, error) {
	if db.readOnly.Load() && !applier {
		return nil, db.writeRefused()
	}
	unlock, err := db.lockRelations(lockCtx(applier), lock.Exclusive, name)
	if err != nil {
		return nil, err
	}
	defer unlock()
	r, err := db.cat.Create(name, schema)
	if err != nil {
		return nil, err
	}
	if err := db.shipOp(applier, shipOp{kind: opCreateRelation, rel: name, schema: schema}); err != nil {
		_ = db.cat.Drop(name)
		return nil, err
	}
	return &Relation{db: db, rel: r, applier: applier}, nil
}

// Relation looks up an existing relation.
func (db *Database) Relation(name string) (*Relation, error) {
	r, err := db.cat.Get(name)
	if err != nil {
		return nil, err
	}
	return &Relation{db: db, rel: r}, nil
}

// Relations lists all relation names.
func (db *Database) Relations() []string { return db.cat.Names() }

// DropRelation removes a relation and its storage, waiting for in-flight
// queries over it to drain (an exclusive relation intent).
func (db *Database) DropRelation(name string) error { return db.dropRelation(false, name) }

// dropRelation is DropRelation for a client (applier false) or for the
// replication applier.
func (db *Database) dropRelation(applier bool, name string) error {
	unlock, err := db.lockRelations(lockCtx(applier), lock.Exclusive, name)
	if err != nil {
		return err
	}
	defer unlock()
	// Ship before dropping: a refused ship (fenced primary) must leave
	// the relation in place. The existence check first keeps a
	// nonexistent-relation error from replicating.
	if _, err := db.cat.Get(name); err != nil {
		return err
	}
	if err := db.shipOp(applier, shipOp{kind: opDropRelation, rel: name}); err != nil {
		return err
	}
	return db.cat.Drop(name)
}

// shipOp forwards a mutation to the cluster ship hook, if any. A ship
// refusal (the database was fenced or demoted mid-call) fails the
// mutation. applier is set for a mutation the replication applier itself
// made: it never ships onward.
func (db *Database) shipOp(applier bool, op shipOp) error {
	fn := db.ship.Load()
	if fn == nil && (!db.readOnly.Load() || applier) {
		return nil // unreplicated database, or the applier's own op
	}
	if fn == nil {
		// No hook on a read-only database: a client writer that passed
		// the write guard before a crash failover demoted this node and
		// took its hook away. Acknowledging it would ack a write no
		// survivor holds.
		return db.writeRefused()
	}
	return (*fn)(op)
}

// writeRefused builds the error a refused write surfaces: on a clustered
// database a *NotPrimaryError carrying the current epoch and primary
// hint (it still matches ErrReadOnlyReplica via errors.Is), a plain
// ErrReadOnlyReplica otherwise.
func (db *Database) writeRefused() error {
	if c := db.cluster; c != nil {
		return c.notPrimaryErr()
	}
	return ErrReadOnlyReplica
}

// lockRelations takes a one-shot relation-level intent lock on every named
// relation (in canonical resource order, to stay deadlock-free) and
// returns the release func. Queries take lock.Shared; loads and DDL take
// lock.Exclusive.
func (db *Database) lockRelations(ctx context.Context, mode lock.Mode, names ...string) (func(), error) {
	txn := db.locks.NextID()
	resources := make([]uint64, len(names))
	for i, n := range names {
		resources[i] = catalog.ResourceID(n)
	}
	if _, err := db.locks.AcquireAll(ctx, txn, resources, mode); err != nil {
		return nil, err
	}
	return func() { db.locks.Release(txn) }, nil
}

// ClassMetrics reports one priority class's admission activity: volume
// counters, wall time spent queued, and queued-time quantiles read off
// the scheduler's per-class log₂-µs histogram (upper bucket edges —
// factor-of-two resolution, meant for tail monitoring).
type ClassMetrics struct {
	Admitted    uint64
	Rejected    uint64
	Canceled    uint64
	Completed   uint64
	QueuedTotal time.Duration
	QueuedMax   time.Duration
	QueuePeak   int // high-water mark of this class's wait queue

	QueuedP50 time.Duration
	QueuedP95 time.Duration
	QueuedP99 time.Duration

	ReservedPages int // pages only this class's grants may draw
}

// SessionMetrics reports the admission scheduler's and memory broker's
// activity counters: how many queries were admitted, rejected and
// completed (totals plus the per-class split), wall time spent queued,
// and the grant accounting (the peak can never exceed MemoryPages — the
// broker's no-over-grant invariant).
type SessionMetrics struct {
	Admitted    uint64
	Rejected    uint64
	Canceled    uint64
	Completed   uint64
	QueuedTotal time.Duration
	QueuedMax   time.Duration
	QueuePeak   int // high-water mark of total queued waiters, all classes
	RunningPeak int

	// PerClass splits the admission counters by priority class, indexed
	// by QueryClass (PerClass[Interactive], PerClass[Batch]).
	PerClass [NumClasses]ClassMetrics

	MemoryPages      int    // the brokered budget |M|
	GrantedPages     int    // pages currently out on grant
	PeakGrantedPages int    // high-water mark of simultaneous grants
	Grants           uint64 // grants issued so far

	// Cumulative relation-sort activity (every sort-merge join input and
	// OrderBy call): sorts executed, initial runs formed, intermediate
	// merge passes run, and sorts that completed fully in memory.
	Sorts           uint64
	SortRuns        uint64
	SortMergePasses uint64
	SortsInMemory   uint64

	// Crash-replay telemetry folded in via ObserveRecovery: recoveries
	// observed, segment files scanned versus skipped below the commit.meta
	// horizon, the most recent replay's fan-out width, bytes reclaimed by
	// §5.6 log compaction, and total virtual replay time.
	Recoveries              uint64
	RecoverySegmentsScanned uint64
	RecoverySegmentsSkipped uint64
	RecoveryReplayWorkers   int
	RecoveryCompactedBytes  int64
	RecoveryVirtual         time.Duration
}

// SessionMetrics returns a snapshot of scheduler and broker activity.
func (db *Database) SessionMetrics() SessionMetrics {
	m := db.sched.Metrics()
	t := m.Total()
	sm := SessionMetrics{
		Admitted:    t.Admitted,
		Rejected:    t.Rejected,
		Canceled:    t.Canceled,
		Completed:   t.Completed,
		QueuedTotal: t.QueuedTotal,
		QueuedMax:   t.QueuedMax,
		QueuePeak:   m.QueuePeak,
		RunningPeak: m.RunningPeak,

		MemoryPages:      db.broker.Total(),
		GrantedPages:     db.broker.Granted(),
		PeakGrantedPages: db.broker.Peak(),
		Grants:           db.broker.Grants(),

		Sorts:           db.sorts.sorts.Load(),
		SortRuns:        db.sorts.runs.Load(),
		SortMergePasses: db.sorts.mergePasses.Load(),
		SortsInMemory:   db.sorts.inMemory.Load(),

		Recoveries:              db.replay.recoveries.Load(),
		RecoverySegmentsScanned: db.replay.segsScanned.Load(),
		RecoverySegmentsSkipped: db.replay.segsSkipped.Load(),
		RecoveryReplayWorkers:   int(db.replay.workers.Load()),
		RecoveryCompactedBytes:  db.replay.compactedBytes.Load(),
		RecoveryVirtual:         time.Duration(db.replay.virtualNanos.Load()),
	}
	for c := range sm.PerClass {
		pc := m.PerClass[c]
		sm.PerClass[c] = ClassMetrics{
			Admitted:      pc.Admitted,
			Rejected:      pc.Rejected,
			Canceled:      pc.Canceled,
			Completed:     pc.Completed,
			QueuedTotal:   pc.QueuedTotal,
			QueuedMax:     pc.QueuedMax,
			QueuePeak:     pc.QueuePeak,
			QueuedP50:     pc.Queued.Quantile(0.50),
			QueuedP95:     pc.Queued.Quantile(0.95),
			QueuedP99:     pc.Queued.Quantile(0.99),
			ReservedPages: db.broker.Reserved(QueryClass(c)),
		}
	}
	return sm
}

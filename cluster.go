package mmdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/catalog"
	"mmdb/internal/expr"
	"mmdb/internal/lock"
	"mmdb/internal/simio"
	sqlfront "mmdb/internal/sql"
)

// ErrNotPrimary is the errors.Is sentinel for writes refused because the
// node is not the cluster's current primary (a replica, a fenced primary
// mid-promotion, or a demoted/crashed old primary). The concrete error is
// a *NotPrimaryError carrying the epoch and the current primary's name.
var ErrNotPrimary = errors.New("mmdb: not the primary")

// NotPrimaryError is the concrete write refusal on a clustered database
// that is not (or no longer) the primary. Epoch is the cluster epoch at
// refusal time — it increases at every promotion, so a client comparing
// epochs can tell a stale hint from a fresh one — and Hint names the node
// that was primary at that epoch. It matches ErrNotPrimary via errors.Is.
type NotPrimaryError struct {
	Epoch uint64
	Hint  string // node name of the current primary
}

func (e *NotPrimaryError) Error() string {
	return fmt.Sprintf("mmdb: not the primary (epoch %d, primary is %q)", e.Epoch, e.Hint)
}

// Is matches the ErrNotPrimary sentinel.
func (e *NotPrimaryError) Is(target error) bool { return target == ErrNotPrimary }

// LostTailError reports the acknowledged-but-unreplicated tail a lossy
// failover gave up: the old primary's WAL is gone and no surviving
// replica had applied past SettledLSN, so the acked writes in
// (SettledLSN, AckedLSN] are lost. FailoverLostWAL still completes the
// promotion — availability with an honest, typed admission of the loss.
type LostTailError struct {
	Epoch      uint64 // epoch of the new primary
	AckedLSN   uint64 // last LSN the old primary acknowledged
	SettledLSN uint64 // the surviving prefix the new primary starts from
}

func (e *LostTailError) Error() string {
	return fmt.Sprintf("mmdb: failover lost %d acked writes (settled LSN %d of %d, epoch %d)",
		e.Lost(), e.SettledLSN, e.AckedLSN, e.Epoch)
}

// Lost returns the number of acked operations the failover dropped.
func (e *LostTailError) Lost() uint64 { return e.AckedLSN - e.SettledLSN }

// shipOpKind enumerates the replicated mutations. Everything a primary
// does to durable relations reduces to these six logical operations;
// replaying them in log order on a replica that started from the same
// (empty) state reproduces the primary byte for byte, because every
// operation is deterministic.
type shipOpKind uint8

const (
	opCreateRelation shipOpKind = iota
	opDropRelation
	opInsert
	opFlush
	opIndex
	opDeleteWhere
)

// shipOp is one logical mutation in the primary's serialization order:
// one record of the cluster log. lsn is the cluster log sequence number
// the op was assigned at enqueue; a replica's applied LSN — its position
// in the log — is the lsn of the last op it applied.
type shipOp struct {
	lsn    uint64
	kind   shipOpKind
	rel    string
	tuple  Tuple
	schema *Schema
	column string
	ixKind IndexKind
	pred   expr.Predicate
}

// ReadPrefMode selects how a cluster routes a read-only operation.
type ReadPrefMode uint8

const (
	// ReadPrimary always reads from the primary (the default): every
	// read observes its own writes immediately.
	ReadPrimary ReadPrefMode = iota
	// ReadNearest reads from the most caught-up live replica, falling
	// back to the primary when no replica is live.
	ReadNearest
	// ReadBounded reads from a replica whose applied horizon is within
	// MaxLSNLag operations of the cluster LSN, falling back to the
	// primary — never an error — when every replica is too stale.
	ReadBounded
)

// ReadPreference directs a cluster's read routing. The zero value is
// primary-only. Attach one to a session or one-shot query with
// WithReadPreference; on a plain (non-cluster) Database it is accepted
// and ignored.
type ReadPreference struct {
	Mode ReadPrefMode
	// MaxLSNLag bounds a ReadBounded replica's staleness, measured in
	// cluster operations behind the primary's last enqueued mutation.
	MaxLSNLag uint64
}

// PrimaryOnly returns the default read preference: all reads on the
// primary.
func PrimaryOnly() ReadPreference { return ReadPreference{Mode: ReadPrimary} }

// NearestReplica prefers the most caught-up live replica.
func NearestReplica() ReadPreference { return ReadPreference{Mode: ReadNearest} }

// BoundedStaleness prefers any live replica at most maxLSNLag operations
// behind the cluster LSN, degrading to the primary otherwise.
func BoundedStaleness(maxLSNLag uint64) ReadPreference {
	return ReadPreference{Mode: ReadBounded, MaxLSNLag: maxLSNLag}
}

// Ship-link pacing: how long one injected stall unit delays a replica's
// apply stream, and how long a transiently faulted delivery backs off
// before retrying.
const (
	shipStallUnit    = 200 * time.Microsecond
	shipRetryBackoff = 50 * time.Microsecond
)

// linkDepth is the flow-control bound: enqueue waits while the slowest
// live replica is this many ops behind the head of the log, so the log a
// live replica has yet to read never outgrows it.
const linkDepth = 1024

// clusterReplica is one replica database and its position in the cluster
// log: applied is the LSN of the last op its single applier goroutine
// applied, so the replica applies the primary's mutations in
// serialization order and its replication slot is that one number.
type clusterReplica struct {
	name string
	db   *Database
	done chan struct{} // closed when the applier goroutine exits

	// Rejoin dedup, fixed before the applier starts: ops at or below
	// floor touching a snapshot relation are already in the copied
	// snapshot and are skipped.
	snap  map[string]bool
	floor uint64

	applied    atomic.Uint64 // cluster LSN of the last applied op: the log position
	ops        atomic.Uint64 // ops applied
	transients atomic.Uint64 // transient link faults absorbed
	stalls     atomic.Uint64 // injected stall units served
	broken     atomic.Bool   // severed: permanent fault or apply error; the applier parks
	joining    atomic.Bool   // mid-rejoin: not routable, not yet consistent
	expedite   atomic.Bool   // failover drain: bypass the link fault schedule
	detached   bool          // left the cluster (under Cluster.mu): the applier exits
	lastErr    atomic.Pointer[string]
}

// newReplica builds a replica positioned at LSN pos.
func newReplica(name string, db *Database, pos uint64) *clusterReplica {
	r := &clusterReplica{name: name, db: db, done: make(chan struct{})}
	r.applied.Store(pos)
	return r
}

// sever freezes the replica at its consistent prefix.
func (r *clusterReplica) sever(msg string) {
	r.lastErr.Store(&msg)
	r.broken.Store(true)
}

// primaryRef names the current primary; swapped atomically at promotion.
type primaryRef struct {
	db   *Database
	name string
}

// downNode is a demoted-and-not-yet-rejoined old primary after a
// crash-driven failover.
type downNode struct {
	name string
	db   *Database
}

// Cluster is a primary database plus N read-only replicas fed by logical
// operation shipping: every durable mutation on the primary is assigned a
// cluster LSN while the mutating call still holds its exclusive relation
// intent and appended to the cluster log, which each replica's applier
// reads in that order from its own position. Reads route by
// ReadPreference (Route, Query, NewSession); writes and DML always
// execute on the primary.
//
// Replication is asynchronous — a replica trails the primary by the log
// above its position — so reads on replicas are snapshot-stale by up to
// that lag. BoundedStaleness bounds it; a stalled or severed link simply
// degrades reads to the primary, never into a client-visible error.
//
// The primary role is not fixed: Promote switches it over cleanly (zero
// loss by construction), Failover recovers from primary loss by resuming
// the survivor from the cluster log (the model of the primary's durable
// WAL) so no acked write is lost while that log survives, and
// FailoverLostWAL models total primary loss, surfacing the dropped tail
// as a *LostTailError. Every role change increments the cluster epoch.
type Cluster struct {
	prim atomic.Pointer[primaryRef]
	reps atomic.Pointer[[]*clusterReplica] // copy-on-write under mu

	mu        sync.Mutex // orders enqueue: LSN assignment + append; guards the log and role flips
	grew      sync.Cond  // on mu: the log grew or a replica may proceed (appliers wait)
	room      sync.Cond  // on mu: a replica advanced or severed (throttled writers wait)
	seq       uint64     // last assigned cluster LSN (under mu)
	closed    bool
	switching bool // one Promote/Failover/Rejoin at a time
	fenced    bool // role-change fence: enqueue refuses

	// pending is the cluster log: the ops in (logBase, seq], in LSN
	// order — the in-memory model of the primary's durable WAL. Each
	// replica reads it from its own position, and it is trimmed below the
	// lowest one, broken and joining replicas included: that retention is
	// what lets a crash failover resume a severed survivor without loss.
	pending []shipOp
	logBase uint64

	epoch    atomic.Uint64            // current cluster epoch (starts at 1)
	lsn      atomic.Uint64            // mirror of seq for lock-free routing reads
	rr       atomic.Uint64            // round-robin cursor for replica ties
	down     atomic.Pointer[downNode] // crashed old primary awaiting Rejoin
	stop     chan struct{}            // closed in Close: interrupts stalled links
	injector atomic.Pointer[FaultInjector]

	wg sync.WaitGroup

	// Routing telemetry.
	primaryReads atomic.Uint64 // reads answered by the primary by preference
	replicaReads atomic.Uint64 // reads routed to a replica
	fallbacks    atomic.Uint64 // reads that wanted a replica but degraded
	writes       atomic.Uint64 // statements classified as writes/DML

	// Failover telemetry.
	promotions    atomic.Uint64 // planned switchovers completed
	failovers     atomic.Uint64 // crash-driven promotions completed
	tailRecovered atomic.Uint64 // acked ops a severed survivor recovered from the log
	tailLost      atomic.Uint64 // acked ops dropped by FailoverLostWAL
}

// OpenCluster opens a primary database plus replicas read-only copies
// wired to it by logical operation shipping. All databases share the
// same Options (each with its own scheduler, broker, lock table and
// virtual clock). Replicas start empty, exactly like the primary; load
// data through the primary and it flows to every replica. The primary
// node is named "p", replicas "r0".."rN-1".
func OpenCluster(primary Options, replicas int) (*Cluster, error) {
	if replicas < 0 {
		return nil, fmt.Errorf("mmdb: negative replica count %d", replicas)
	}
	pdb, err := Open(primary)
	if err != nil {
		return nil, err
	}
	c := &Cluster{stop: make(chan struct{})}
	c.grew.L = &c.mu
	c.room.L = &c.mu
	c.epoch.Store(1)
	c.prim.Store(&primaryRef{db: pdb, name: "p"})
	pdb.cluster = c
	reps := []*clusterReplica{}
	c.reps.Store(&reps)
	for i := 0; i < replicas; i++ {
		rdb, err := Open(primary)
		if err != nil {
			return nil, err
		}
		rdb.cluster = c
		rdb.readOnly.Store(true)
		rdb.locks.SetExclusiveGuard(writeGuard(rdb))
		c.mu.Lock()
		r := newReplica(fmt.Sprintf("r%d", i), rdb, 0)
		c.registerLocked(r)
		c.startLocked(r)
		c.mu.Unlock()
	}
	fn := c.shipFrom(1)
	pdb.ship.Store(&fn)
	return c, nil
}

// applierKey marks applierCtx, the context the replication applier takes
// its intents through. Being the applier is a property of one lock
// acquisition, not of the database: a client write racing the applier on
// the same database locks through its own context and is still refused.
type applierKey struct{}

var applierCtx = context.WithValue(context.Background(), applierKey{}, true)

// lockCtx is the context a one-shot intent locks through.
func lockCtx(applier bool) context.Context {
	if applier {
		return applierCtx
	}
	return context.Background()
}

// writeGuard is the write-admission hook for a database that is not the
// primary (a replica, or a primary being fenced for switchover),
// consulted by the lock table on every exclusive intent: the replication
// applier passes (it locks through applierCtx), everything else is a
// client write and is refused with the cluster's typed not-primary error.
func writeGuard(db *Database) func(ctx context.Context, res uint64) error {
	return func(ctx context.Context, res uint64) error {
		if ctx.Value(applierKey{}) != nil {
			return nil
		}
		return db.writeRefused()
	}
}

// notPrimaryErr builds the typed refusal carrying the current epoch and
// primary name.
func (c *Cluster) notPrimaryErr() error {
	p := c.prim.Load()
	return &NotPrimaryError{Epoch: c.epoch.Load(), Hint: p.name}
}

// shipFrom returns the ship hook for a primary of the given epoch. The
// epoch is captured so a demoted primary's in-flight writers — holding a
// stale hook pointer — are refused at enqueue instead of corrupting the
// new epoch's history.
func (c *Cluster) shipFrom(epoch uint64) shipFn {
	return func(op shipOp) error { return c.enqueue(epoch, op) }
}

// enqueue assigns the next cluster LSN and appends the op to the cluster
// log in one critical section, so every replica reads the same total
// order. It runs inside the primary's mutating call, while the exclusive
// relation intent is still held — log order is therefore exactly the
// primary's serialization order. The tuple is cloned here, once: every
// applier shares the log's copy read-only (a heap append copies the bytes
// into its page). Flow control: enqueue first waits while the slowest
// live replica is linkDepth ops behind; broken and joining replicas never
// throttle writers.
func (c *Cluster) enqueue(epoch uint64, op shipOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil
		}
		if c.fenced || epoch != c.epoch.Load() {
			return c.notPrimaryErr()
		}
		if c.seq-c.lowestLocked(true) < linkDepth {
			break
		}
		c.room.Wait()
	}
	c.seq++
	op.lsn = c.seq
	if op.tuple != nil {
		op.tuple = op.tuple.Clone()
	}
	c.pending = append(c.pending, op)
	c.lsn.Store(c.seq)
	if drop := c.lowestLocked(false) - c.logBase; drop > 0 {
		c.pending = c.pending[drop:]
		c.logBase += drop
	}
	c.grew.Broadcast()
	return nil
}

// lowestLocked returns the lowest log position among the replicas —
// live, non-joining ones only when live is set — or seq when there is
// none. Every replica pins the log's trim floor, so a severed survivor can
// resume and a rejoining node reads on from where it registered. Callers
// hold c.mu.
func (c *Cluster) lowestLocked(live bool) uint64 {
	low := c.seq
	for _, r := range *c.reps.Load() {
		if live && (r.broken.Load() || r.joining.Load()) {
			continue
		}
		low = min(low, r.applied.Load())
	}
	return low
}

// runApplier is one replica's applier: read the op at its position,
// consult the fault schedule, apply, advance. A permanent link fault or
// an apply error severs the link — the replica freezes at a consistent
// prefix and the applier parks until a failover resumes it. A rejoining
// replica skips ops its snapshot already contains.
func (c *Cluster) runApplier(r *clusterReplica) {
	defer c.wg.Done()
	defer close(r.done)
	for {
		op, ok := c.next(r)
		if !ok {
			return
		}
		if op.lsn <= r.floor && r.snap[op.rel] {
			r.applied.Store(op.lsn)
			continue
		}
		if !c.admitOp(r) {
			continue
		}
		if err := r.apply(op); err != nil {
			r.sever(err.Error())
			continue
		}
		r.ops.Add(1)
		r.applied.Store(op.lsn)
	}
}

// next returns the op after r's position, waiting while r is caught up
// or severed. It reports false when the applier should exit: r left the
// cluster, or the cluster closed with r caught up or severed (live links
// drain first).
func (c *Cluster) next(r *clusterReplica) (shipOp, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.room.Broadcast() // r advanced or severed since its last read
	for {
		pos := r.applied.Load()
		switch {
		case r.detached:
			return shipOp{}, false
		case !r.broken.Load() && pos < c.seq:
			return c.pending[pos-c.logBase], true
		case c.closed:
			return shipOp{}, false
		}
		c.grew.Wait()
	}
}

// admitOp consults the armed fault schedule for one delivery on this
// replica's link (scope "repl/ship/<name>"). Transient faults retry
// after a short backoff — the stream may not skip an op, or the replica
// would diverge. Stalls sleep, creating real staleness. Permanent faults
// sever the link. An expedited link (failover drain: the source is
// already dead, so its fault schedule is void) bypasses the injector;
// a cluster shutdown interrupts any sleep and severs the link.
func (c *Cluster) admitOp(r *clusterReplica) bool {
	inj := c.injector.Load()
	if inj == nil || r.expedite.Load() {
		return true
	}
	for {
		out := inj.ChargedIO("repl/ship/"+r.name, simio.Seq)
		if out.Stall > 0 {
			r.stalls.Add(uint64(out.Stall))
			select {
			case <-time.After(time.Duration(out.Stall) * shipStallUnit):
			case <-c.stop:
				r.broken.Store(true)
				return false
			}
		}
		if out.Err == nil {
			return true
		}
		if errors.Is(out.Err, ErrFaultPermanent) {
			r.sever(out.Err.Error())
			return false
		}
		r.transients.Add(1)
		select {
		case <-time.After(shipRetryBackoff):
		case <-c.stop:
			r.broken.Store(true)
			return false
		}
		if r.expedite.Load() {
			return true
		}
	}
}

// apply replays one logical op through the replica's own public mutation
// path — the same locking, index maintenance and rewrite code the
// primary ran — through the applier's own handles, which the read-only
// guard admits. Determinism of each operation makes replay byte-exact.
func (r *clusterReplica) apply(op shipOp) error {
	db := r.db
	switch op.kind {
	case opCreateRelation:
		_, err := db.createRelation(true, op.rel, op.schema)
		return err
	case opDropRelation:
		return db.dropRelation(true, op.rel)
	}
	rel, err := db.Relation(op.rel)
	if err != nil {
		return err
	}
	rel.applier = true
	switch op.kind {
	case opInsert:
		return rel.InsertTuple(op.tuple)
	case opFlush:
		return rel.Flush()
	case opIndex:
		return rel.CreateIndex(op.column, op.ixKind)
	case opDeleteWhere:
		_, err := rel.deleteWhere(op.pred)
		return err
	}
	return fmt.Errorf("mmdb: unknown ship op kind %d", op.kind)
}

// Primary returns the cluster's current writable database.
func (c *Cluster) Primary() *Database { return c.prim.Load().db }

// PrimaryName returns the current primary's node name ("p" at open;
// a replica's name after it is promoted).
func (c *Cluster) PrimaryName() string { return c.prim.Load().name }

// Epoch returns the cluster epoch: 1 at open, incremented by every
// Promote and Failover. Clients compare epochs to order role information.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// IsPrimary reports whether the named node is the current primary.
func (c *Cluster) IsPrimary(name string) bool { return c.prim.Load().name == name }

// DatabaseOf returns the database serving the named node, or nil: the
// primary, any replica (live, joining or broken), or the down node.
func (c *Cluster) DatabaseOf(name string) *Database {
	if p := c.prim.Load(); p.name == name {
		return p.db
	}
	for _, r := range *c.reps.Load() {
		if r.name == name {
			return r.db
		}
	}
	if d := c.down.Load(); d != nil && d.name == name {
		return d.db
	}
	return nil
}

// DownNode returns the name of the crashed old primary awaiting Rejoin,
// or "" when none is down.
func (c *Cluster) DownNode() string {
	if d := c.down.Load(); d != nil {
		return d.name
	}
	return ""
}

// NumReplicas returns the replica count.
func (c *Cluster) NumReplicas() int { return len(*c.reps.Load()) }

// Replica returns the i-th replica database (for tests and direct
// read-only use). Writes on it fail with ErrNotPrimary. The set shifts
// at promotion: the promoted replica leaves the list and the demoted
// primary joins it.
func (c *Cluster) Replica(i int) *Database { return (*c.reps.Load())[i].db }

// LSN returns the cluster log sequence number: the count of mutations
// enqueued so far. A replica whose applied horizon equals it is fully
// caught up.
func (c *Cluster) LSN() uint64 { return c.lsn.Load() }

// ArmShipFaults installs a fault-injection schedule on the replication
// links: each delivery on replica i consults scope "repl/ship/r<i>".
// Transient faults retry (absorbed), stalls delay the apply stream
// (visible as staleness), permanent faults sever the link — after which
// reads degrade to the remaining replicas or the primary. nil disarms.
func (c *Cluster) ArmShipFaults(inj *FaultInjector) { c.injector.Store(inj) }

// beginSwitch claims the single role-change slot.
func (c *Cluster) beginSwitch() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("mmdb: cluster is closed")
	}
	if c.switching {
		return fmt.Errorf("mmdb: a promotion, failover or rejoin is already in progress")
	}
	c.switching = true
	return nil
}

func (c *Cluster) endSwitch() {
	c.mu.Lock()
	c.switching = false
	c.mu.Unlock()
}

// FailoverReport describes a completed crash-driven promotion.
type FailoverReport struct {
	OldPrimary    string
	NewPrimary    string
	Epoch         uint64 // epoch of the new primary
	AckedLSN      uint64 // last LSN the old primary acknowledged
	SettledLSN    uint64 // survivor's position before settling (where a severed link broke)
	TailRecovered uint64 // acked ops a severed survivor recovered from the cluster log
	TailLost      uint64 // acked ops dropped (FailoverLostWAL only)
}

// Promote performs a planned switchover to replica i: fence the current
// primary read-only (new writes refuse with *NotPrimaryError), drain
// every in-flight writer (lock-table quiesce), barrier the target replica
// at the full acknowledged prefix, then flip the roles — the target
// leaves the replica set, the old primary rejoins it positioned at the
// acknowledged prefix, and the epoch increments. Zero acked-write loss by
// construction: nothing was acknowledged that the target has not applied.
// On error (ctx expired, target severed) the fence lifts and the cluster
// continues under the old primary.
func (c *Cluster) Promote(ctx context.Context, i int) error {
	_, err := c.changeRole(ctx, true, i, false)
	return err
}

// Failover performs a crash-driven promotion after primary loss, with
// the old primary's durable WAL tail (the cluster log) still available:
// fence and cut off the old primary, pick the surviving replica with the
// highest applied LSN (preferring live ones), let it read the acked tail
// it is missing from the log, and flip. Zero acked-write loss — even when
// the survivor's link was severed mid-stream, because a severed survivor
// resumes from its position and everything acknowledged is in the log.
// The old primary becomes the down node; Rejoin brings it back as a
// replica.
func (c *Cluster) Failover(ctx context.Context) (*FailoverReport, error) {
	return c.changeRole(ctx, false, 0, false)
}

// FailoverLostWAL is Failover for total primary loss: the old primary's
// WAL is gone, so the acked tail beyond the best survivor's applied
// horizon cannot be recovered. The promotion still completes — the
// cluster is available on the survivor's consistent prefix — and the
// dropped tail is surfaced as a *LostTailError alongside the report.
func (c *Cluster) FailoverLostWAL(ctx context.Context) (*FailoverReport, error) {
	return c.changeRole(ctx, false, 0, true)
}

// changeRole is the one role change behind Promote (planned: replica i
// takes over from a live primary) and Failover/FailoverLostWAL (a crash:
// the best survivor takes over from a dead primary, whose WAL is gone when
// walLost). In order: fence the old primary; quiesce its in-flight writers
// (planned only); freeze acked at the head of the log; pick the target;
// settle it at acked; detach it; flip. Writers are fenced from the third
// step on, so a settled target stays settled, and a target that fails to
// settle is never detached: an aborted switch lifts the fence and leaves
// it live at its position.
func (c *Cluster) changeRole(ctx context.Context, planned bool, i int, walLost bool) (*FailoverReport, error) {
	if err := c.beginSwitch(); err != nil {
		return nil, err
	}
	what := "failover"
	if planned {
		what = "promote"
	}
	old := c.prim.Load()
	old.db.readOnly.Store(true)
	old.db.locks.SetExclusiveGuard(writeGuard(old.db))
	var target *clusterReplica
	abort := func(err error) (*FailoverReport, error) {
		c.mu.Lock()
		c.fenced = false
		c.mu.Unlock()
		if target != nil {
			target.expedite.Store(false)
		}
		old.db.locks.SetExclusiveGuard(nil)
		old.db.readOnly.Store(false)
		c.endSwitch()
		return nil, fmt.Errorf("mmdb: %s: %w", what, err)
	}

	// A planned switch lets the writers already past the fence finish and
	// log their ops; a crashed primary's stragglers are cut off at enqueue,
	// so acked is final the moment it is read.
	if planned {
		if err := old.db.locks.QuiesceExclusive(ctx); err != nil {
			return abort(fmt.Errorf("quiescing the primary: %w", err))
		}
	}
	c.mu.Lock()
	c.fenced = true
	acked := c.seq
	c.room.Broadcast() // throttled stragglers wake to their refusal
	c.mu.Unlock()

	target, err := c.pickTarget(planned, i)
	if err != nil {
		return abort(err)
	}
	rep := &FailoverReport{OldPrimary: old.name, NewPrimary: target.name, AckedLSN: acked, SettledLSN: acked}
	newStart := acked
	severed := !planned && target.broken.Load()
	if severed && walLost {
		// The WAL is gone with the primary: the acked ops above the
		// survivor's position are lost. Promote its consistent prefix and
		// say so, honestly and typed.
		newStart = target.applied.Load()
		rep.SettledLSN, rep.TailLost = newStart, acked-newStart
	} else {
		if !planned {
			// The link's source is dead, so its fault schedule is void.
			target.expedite.Store(true)
		}
		if severed {
			// Resume the survivor from where its link broke: the log
			// above its position holds every acked op it is missing.
			rep.SettledLSN = target.applied.Load()
			rep.TailRecovered = acked - rep.SettledLSN
			c.mu.Lock()
			target.broken.Store(false)
			target.lastErr.Store(nil)
			c.grew.Broadcast()
			c.mu.Unlock()
		}
		if err := c.awaitApplied(ctx, target, acked); err != nil {
			return abort(fmt.Errorf("replica %s catching up to LSN %d: %w", target.name, acked, err))
		}
	}
	c.detach(target)
	c.flip(target, old, newStart, planned)

	rep.Epoch = c.epoch.Load()
	if planned {
		c.promotions.Add(1)
	} else {
		c.failovers.Add(1)
	}
	c.tailRecovered.Add(rep.TailRecovered)
	c.tailLost.Add(rep.TailLost)
	c.endSwitch()
	if rep.TailLost > 0 {
		return rep, &LostTailError{Epoch: rep.Epoch, AckedLSN: acked, SettledLSN: newStart}
	}
	return rep, nil
}

// pickTarget chooses the replica a role change promotes: replica i, which
// must be live, for a planned switch; for a crash, the replica with the
// highest applied LSN, preferring live ones — when every link was
// severed, the best frozen prefix.
func (c *Cluster) pickTarget(planned bool, i int) (*clusterReplica, error) {
	reps := *c.reps.Load()
	if planned {
		if i < 0 || i >= len(reps) {
			return nil, fmt.Errorf("no replica %d", i)
		}
		if r := reps[i]; r.broken.Load() || r.joining.Load() {
			return nil, fmt.Errorf("replica %s is not live (broken or rejoining)", r.name)
		}
		return reps[i], nil
	}
	var best *clusterReplica
	live := false
	for _, r := range reps {
		if r.joining.Load() {
			continue
		}
		rLive := !r.broken.Load()
		switch {
		case best == nil,
			rLive && !live,
			rLive == live && r.applied.Load() > best.applied.Load():
			best, live = r, rLive
		}
	}
	if best == nil {
		return nil, errors.New("no replica to promote")
	}
	return best, nil
}

// awaitApplied polls until the replica's applied horizon reaches lsn,
// its link breaks, or ctx ends.
func (c *Cluster) awaitApplied(ctx context.Context, r *clusterReplica, lsn uint64) error {
	for {
		if r.applied.Load() >= lsn {
			return nil
		}
		if r.broken.Load() {
			return fmt.Errorf("mmdb: replica %s link severed at LSN %d", r.name, r.applied.Load())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// registerLocked adds r to the replica set, where its position pins the
// log. Callers hold c.mu.
func (c *Cluster) registerLocked(r *clusterReplica) {
	reps := append(append([]*clusterReplica(nil), *c.reps.Load()...), r)
	c.reps.Store(&reps)
}

// startLocked starts r's applier unless the cluster is closed (so no
// applier outlives Close), reporting whether it did. Callers hold c.mu.
func (c *Cluster) startLocked(r *clusterReplica) bool {
	if c.closed {
		return false
	}
	c.wg.Add(1)
	go c.runApplier(r)
	return true
}

// removeLocked takes r out of the replica set and tells its applier to
// exit. Callers hold c.mu.
func (c *Cluster) removeLocked(target *clusterReplica) {
	reps := *c.reps.Load()
	out := make([]*clusterReplica, 0, len(reps))
	for _, r := range reps {
		if r != target {
			out = append(out, r)
		}
	}
	c.reps.Store(&out)
	target.detached = true
	c.grew.Broadcast()
}

// detach removes a replica whose applier is running and waits for the
// applier to exit. After detach the caller owns the replica's database
// exclusively.
func (c *Cluster) detach(r *clusterReplica) {
	c.mu.Lock()
	c.removeLocked(r)
	c.mu.Unlock()
	<-r.done
}

// flip installs the detached target as the new primary at newStart (the
// LSN its history ends at), demotes the old primary, and increments the
// epoch. The log is cut at newStart: ops above it are superseded history
// (a lost tail), so a replica positioned above it is severed. A planned
// switch re-adds the old primary as a replica positioned at newStart; a
// crash parks it as the down node for Rejoin.
func (c *Cluster) flip(target *clusterReplica, old *primaryRef, newStart uint64, oldRejoins bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	epoch := c.epoch.Add(1)
	c.seq = newStart
	c.lsn.Store(newStart)
	c.pending = c.pending[:newStart-c.logBase]
	for _, r := range *c.reps.Load() {
		if r.applied.Load() > newStart {
			r.sever(fmt.Sprintf("mmdb: replica %s applied past LSN %d, where epoch %d starts", r.name, newStart, epoch))
		}
	}

	// The target becomes the primary.
	ndb := target.db
	ndb.locks.SetExclusiveGuard(nil)
	ndb.readOnly.Store(false)
	fn := c.shipFrom(epoch)
	ndb.ship.Store(&fn)
	c.prim.Store(&primaryRef{db: ndb, name: target.name})

	// The old primary is already fenced (guard + readOnly set by
	// changeRole); drop its stale ship hook.
	old.db.ship.Store(nil)
	if oldRejoins {
		r := newReplica(old.name, old.db, newStart)
		c.registerLocked(r)
		c.startLocked(r)
	} else {
		c.down.Store(&downNode{name: old.name, db: old.db})
	}
	c.fenced = false
}

// Rejoin brings the down node (the old primary a Failover parked) back
// into the cluster as a replica. Its history may have diverged — after a
// lossy failover it can hold acked-but-superseded writes — so Rejoin
// rebuilds it from the new primary: drop its durable relations, register
// it at the head of the log (its position pins the log from there),
// freeze a consistent snapshot of the primary under shared relation
// intents, copy it over, then start its applier — which skips ops the
// snapshot already contains and applies the rest, catching the node up to
// the live stream. Concurrent writes are safe: ops that race the snapshot
// are deduplicated by the (floor, snapshot relation set) rule.
func (c *Cluster) Rejoin(ctx context.Context) error {
	if err := c.beginSwitch(); err != nil {
		return err
	}
	defer c.endSwitch()
	dn := c.down.Load()
	if dn == nil {
		return fmt.Errorf("mmdb: no node is down")
	}
	db := dn.db

	// Scrub the node's possibly-diverged durable state. The applier's
	// drop passes the node's own write guard; its ship hook is nil, so
	// nothing replicates.
	for _, name := range db.cat.Names() {
		if err := db.dropRelation(true, name); err != nil {
			return fmt.Errorf("mmdb: rejoin: scrubbing %q: %w", name, err)
		}
	}

	// Register first: no op enqueued from here on can be trimmed before
	// the applier reads it, so nothing between registration and the
	// snapshot can be missed.
	c.mu.Lock()
	r := newReplica(dn.name, db, c.seq)
	r.joining.Store(true)
	c.registerLocked(r)
	c.mu.Unlock()
	fail := func(err error) error {
		c.mu.Lock()
		c.removeLocked(r)
		c.mu.Unlock()
		return fmt.Errorf("mmdb: rejoin: %w", err)
	}

	// Freeze a snapshot: shared intents on every replicated relation
	// block writers, so in-flight mutations have enqueued (ship happens
	// under the exclusive intent) before the locks grant.
	p := c.prim.Load()
	names := p.db.cat.Names()
	txn := p.db.locks.NextID()
	resources := make([]uint64, len(names))
	for i, n := range names {
		resources[i] = catalog.ResourceID(n)
	}
	if _, err := p.db.locks.AcquireAll(ctx, txn, resources, lock.Shared); err != nil {
		return fail(fmt.Errorf("freezing the primary snapshot: %w", err))
	}
	if err := c.copyRelations(p.db, db, names); err != nil {
		p.db.locks.Release(txn)
		return fail(fmt.Errorf("copying the snapshot: %w", err))
	}

	// Start the applier: it skips ops at or below the snapshot's LSN
	// touching a snapshot relation (the copy already contains them) and
	// applies everything else.
	r.snap = make(map[string]bool, len(names))
	for _, n := range names {
		r.snap[n] = true
	}
	c.mu.Lock()
	r.floor = c.seq
	started := c.startLocked(r)
	c.mu.Unlock()
	p.db.locks.Release(txn)
	if !started {
		return fail(errors.New("cluster is closed"))
	}

	// Catch up to the live stream, then become routable.
	if err := c.awaitApplied(ctx, r, c.lsn.Load()); err != nil {
		c.detach(r)
		return fmt.Errorf("mmdb: rejoin: %s catching up: %w", r.name, err)
	}
	db.readOnly.Store(true)
	db.locks.SetExclusiveGuard(writeGuard(db))
	r.joining.Store(false)
	c.down.Store(nil)
	return nil
}

// copyRelations copies the named relations — schema, heap file page for
// page (dead slots and free-slot order included), index set built over the
// copied RIDs — from src into dst, which must be quiescent for the
// duration (Rejoin holds shared intents on src; dst is the detached down
// node). A physical copy keeps every row at its primary address, so the
// next INSERT lands in the same slot on both nodes.
func (c *Cluster) copyRelations(src, dst *Database, names []string) error {
	for _, name := range names {
		srel, err := src.cat.Get(name)
		if err != nil {
			return err
		}
		schema := srel.Schema()
		drel, err := dst.createRelation(true, name, schema)
		if err != nil {
			return err
		}
		if err := drel.withIntent(lock.Exclusive, func() error { return srel.File.CopyTo(drel.rel.File) }); err != nil {
			return err
		}
		for _, col := range srel.IndexedColumns() {
			ix, _ := srel.Index(col)
			if err := drel.CreateIndex(schema.Field(col).Name, ix.Kind()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Route picks the database a read with the given preference should run
// on. It never fails: when no replica qualifies the primary answers.
func (c *Cluster) Route(pref ReadPreference) *Database {
	if pref.Mode != ReadNearest && pref.Mode != ReadBounded {
		c.primaryReads.Add(1)
		return c.prim.Load().db
	}
	if r := c.pickReplica(pref); r != nil {
		c.replicaReads.Add(1)
		return r.db
	}
	c.fallbacks.Add(1)
	return c.prim.Load().db
}

// pickReplica returns the live replica a read preference routes to, or
// nil when none qualifies: for ReadNearest the highest applied horizon,
// for ReadBounded the first within MaxLSNLag ops of the cluster LSN. The
// scan starts round-robin, so ties spread. Joining replicas are not yet
// consistent and never serve reads.
func (c *Cluster) pickReplica(pref ReadPreference) *clusterReplica {
	reps := *c.reps.Load()
	n := len(reps)
	if n == 0 {
		return nil
	}
	lsn := c.lsn.Load()
	start := int(c.rr.Add(1)) % n
	var best *clusterReplica
	var bestApplied uint64
	for i := 0; i < n; i++ {
		r := reps[(start+i)%n]
		if r.broken.Load() || r.joining.Load() {
			continue
		}
		a := r.applied.Load()
		if pref.Mode == ReadBounded {
			if lsn-a <= pref.MaxLSNLag {
				return r
			}
		} else if best == nil || a > bestApplied {
			best, bestApplied = r, a
		}
	}
	return best
}

// databaseFor classifies one SQL statement for routing: SELECTs go to
// Route under the session's read preference, everything else — DML, and
// text that is not SQL (the primary surfaces the error) — to the primary.
func (c *Cluster) databaseFor(text string, opts []SessionOption) *Database {
	if sqlfront.IsSelect(text) {
		return c.Route(resolveSessionConfig(opts).readPref)
	}
	c.writes.Add(1)
	return c.prim.Load().db
}

// SessionFor admits a session on the database one SQL statement should
// run on: a replica for SELECTs when the read preference asks for one,
// the primary otherwise. The wire server's per-statement routing hook.
func (c *Cluster) SessionFor(ctx context.Context, text string, opts ...SessionOption) (*Session, error) {
	return c.databaseFor(text, opts).NewSession(ctx, opts...)
}

// NewSession admits a read session on the database the preference
// routes to (the primary without WithReadPreference). Sessions pinned to
// a replica see a consistent snapshot trailing the primary; writes in
// them fail with ErrNotPrimary.
func (c *Cluster) NewSession(ctx context.Context, opts ...SessionOption) (*Session, error) {
	return c.Route(resolveSessionConfig(opts).readPref).NewSession(ctx, opts...)
}

// Query runs one SQL statement on the cluster: SELECTs route by the
// session options' read preference, DML runs on the primary.
func (c *Cluster) Query(text string, opts ...SessionOption) (*SQLResult, error) {
	return c.QueryContext(context.Background(), text, opts...)
}

// QueryContext is the context-first Query.
func (c *Cluster) QueryContext(ctx context.Context, text string, opts ...SessionOption) (*SQLResult, error) {
	return c.databaseFor(text, opts).QueryContext(ctx, text, opts...)
}

// WaitCaughtUp blocks until every live replica's applied horizon reaches
// the cluster LSN (or ctx ends). Severed replicas are excluded — they
// will never catch up — and so are replicas mid-rejoin.
func (c *Cluster) WaitCaughtUp(ctx context.Context) error {
	for {
		c.mu.Lock()
		caught := c.lowestLocked(true) == c.seq
		c.mu.Unlock()
		if caught {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// VerifyReplicas compares every live replica against the primary byte
// for byte: same durable relations, same cardinalities, same tuples in
// storage order, same indexed columns. Call it on a quiesced, caught-up
// cluster (it reads heap files directly, uncharged and without intents).
// It is the cluster determinism oracle — any difference is a divergence
// bug, never expected staleness.
func (c *Cluster) VerifyReplicas() error {
	pdb := c.prim.Load().db
	names := pdb.cat.Names()
	for _, r := range *c.reps.Load() {
		if r.broken.Load() || r.joining.Load() {
			continue
		}
		for _, name := range names {
			if err := c.compareRelation(pdb, r, name); err != nil {
				return err
			}
		}
		// No extra durable relations on the replica either.
		for _, name := range r.db.cat.Names() {
			if _, err := pdb.cat.Get(name); err != nil {
				return fmt.Errorf("mmdb: replica %s has relation %q the primary lacks", r.name, name)
			}
		}
	}
	return nil
}

func (c *Cluster) compareRelation(pdb *Database, r *clusterReplica, name string) error {
	prel, err := pdb.cat.Get(name)
	if err != nil {
		return err
	}
	rrel, err := r.db.cat.Get(name)
	if err != nil {
		return fmt.Errorf("mmdb: replica %s lacks relation %q: %w", r.name, name, err)
	}
	if got, want := rrel.File.NumTuples(), prel.File.NumTuples(); got != want {
		return fmt.Errorf("mmdb: replica %s relation %q has %d tuples, primary %d", r.name, name, got, want)
	}
	var prim []Tuple
	if err := prel.File.Scan(simio.Uncharged, func(t Tuple) bool {
		prim = append(prim, t.Clone())
		return true
	}); err != nil {
		return err
	}
	i := 0
	var diverged error
	if err := rrel.File.Scan(simio.Uncharged, func(t Tuple) bool {
		if i >= len(prim) || !bytes.Equal(t, prim[i]) {
			diverged = fmt.Errorf("mmdb: replica %s relation %q diverges from the primary at tuple %d", r.name, name, i)
			return false
		}
		i++
		return true
	}); err != nil {
		return err
	}
	if diverged != nil {
		return diverged
	}
	pix, rix := prel.IndexedColumns(), rrel.IndexedColumns()
	if len(pix) != len(rix) {
		return fmt.Errorf("mmdb: replica %s relation %q has %d indexes, primary %d", r.name, name, len(rix), len(pix))
	}
	for i := range pix {
		if pix[i] != rix[i] {
			return fmt.Errorf("mmdb: replica %s relation %q indexes column %d, primary column %d", r.name, name, rix[i], pix[i])
		}
	}
	return nil
}

// ReplicaMetrics reports one replica's stream health.
type ReplicaMetrics struct {
	Name       string
	AppliedLSN uint64
	Lag        uint64 // ops behind the cluster LSN
	Ops        uint64 // ops applied
	Transients uint64 // transient link faults absorbed
	Stalls     uint64 // injected stall units served
	Broken     bool
	Joining    bool // mid-rejoin: not yet routable
	LastError  string
}

// ClusterMetrics reports cluster routing, replication and failover
// activity.
type ClusterMetrics struct {
	LSN          uint64 // mutations enqueued
	Epoch        uint64 // cluster epoch (increments per promotion)
	PrimaryName  string // current primary node
	PrimaryReads uint64 // reads answered by the primary by preference
	ReplicaReads uint64 // reads routed to a replica
	Fallbacks    uint64 // reads that wanted a replica but degraded
	Writes       uint64 // statements classified as writes/DML

	Promotions    uint64 // planned switchovers completed
	Failovers     uint64 // crash-driven promotions completed
	TailRecovered uint64 // acked ops replayed from the retained WAL tail
	TailLost      uint64 // acked ops dropped by FailoverLostWAL

	Replicas []ReplicaMetrics
}

// Metrics snapshots the cluster's routing counters and per-replica
// stream state.
func (c *Cluster) Metrics() ClusterMetrics {
	m := ClusterMetrics{
		LSN:           c.lsn.Load(),
		Epoch:         c.epoch.Load(),
		PrimaryName:   c.prim.Load().name,
		PrimaryReads:  c.primaryReads.Load(),
		ReplicaReads:  c.replicaReads.Load(),
		Fallbacks:     c.fallbacks.Load(),
		Writes:        c.writes.Load(),
		Promotions:    c.promotions.Load(),
		Failovers:     c.failovers.Load(),
		TailRecovered: c.tailRecovered.Load(),
		TailLost:      c.tailLost.Load(),
	}
	for _, r := range *c.reps.Load() {
		rm := ReplicaMetrics{
			Name:       r.name,
			AppliedLSN: r.applied.Load(),
			Ops:        r.ops.Load(),
			Transients: r.transients.Load(),
			Stalls:     r.stalls.Load(),
			Broken:     r.broken.Load(),
			Joining:    r.joining.Load(),
		}
		if rm.AppliedLSN <= m.LSN {
			rm.Lag = m.LSN - rm.AppliedLSN
		}
		if e := r.lastErr.Load(); e != nil {
			rm.LastError = *e
		}
		m.Replicas = append(m.Replicas, rm)
	}
	return m
}

// Close stops replication: new mutations stop logging, live links drain
// the log, and the applier goroutines exit — even mid-stall, because the
// stop channel interrupts injected sleeps (such a link is marked broken,
// frozen at its consistent prefix). The databases remain usable.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	c.grew.Broadcast()
	c.room.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

package mmdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/catalog"
	"mmdb/internal/expr"
	"mmdb/internal/lock"
	"mmdb/internal/simio"
	sqlfront "mmdb/internal/sql"
)

// ErrReadOnlyReplica is returned when a write reaches a replica database:
// replicas refuse exclusive relation intents at the lock layer, except for
// the replication applier itself.
var ErrReadOnlyReplica = errors.New("mmdb: database is a read-only replica")

// ErrNotPrimary is the errors.Is sentinel for writes refused because the
// node is not the cluster's current primary (a replica, a fenced primary
// mid-promotion, or a demoted/crashed old primary). The concrete error is
// a *NotPrimaryError carrying the epoch and the current primary's name.
var ErrNotPrimary = errors.New("mmdb: not the primary")

// NotPrimaryError is the concrete write refusal on a clustered database
// that is not (or no longer) the primary. Epoch is the cluster epoch at
// refusal time — it increases at every promotion, so a client comparing
// epochs can tell a stale hint from a fresh one — and Hint names the node
// that was primary at that epoch. It matches both ErrNotPrimary and
// ErrReadOnlyReplica via errors.Is, so pre-failover replica code keeps
// working.
type NotPrimaryError struct {
	Epoch uint64
	Hint  string // node name of the current primary
}

func (e *NotPrimaryError) Error() string {
	return fmt.Sprintf("mmdb: not the primary (epoch %d, primary is %q)", e.Epoch, e.Hint)
}

// Is matches the ErrNotPrimary sentinel and, for compatibility, the older
// ErrReadOnlyReplica sentinel.
func (e *NotPrimaryError) Is(target error) bool {
	return target == ErrNotPrimary || target == ErrReadOnlyReplica
}

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
// does to durable relations reduces to these seven logical operations;
// replaying them in ship order on a replica that started from the same
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
	opUpdate
)

// shipOp is one logical mutation in the primary's serialization order.
// lsn is the cluster log sequence number the op was assigned at enqueue;
// replicas publish it as their applied horizon once the op lands. epoch
// records which primary produced it: after a lossy failover, stale ops
// above the old epoch's cut LSN are superseded history and appliers
// discard them instead of diverging.
type shipOp struct {
	lsn       uint64
	epoch     uint64
	kind      shipOpKind
	rel       string
	tuple     Tuple
	schema    *Schema
	column    string
	setColumn string
	value     Value
	newValue  Value
	ixKind    IndexKind
	pred      expr.Predicate
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

// pendingRetain bounds how many settled ops the pending tail keeps beyond
// the slowest replica before trimming (amortizes the copy).
const pendingRetain = 1024

// clusterReplica is one replica database plus its ship link: a FIFO op
// channel drained by a single applier goroutine, so each replica applies
// the primary's mutations in serialization order.
type clusterReplica struct {
	name string
	db   *Database
	ch   chan shipOp
	done chan struct{} // closed when the applier goroutine exits

	// Rejoin gating: the applier parks on ready (when non-nil) until the
	// snapshot copy is in place, then skips ops the snapshot already
	// contains — ops at or below floor touching a snapshot relation.
	ready chan struct{}
	snap  map[string]bool // written before close(ready)
	floor atomic.Uint64

	applied    atomic.Uint64 // cluster LSN of the last applied op
	ops        atomic.Uint64 // ops applied
	transients atomic.Uint64 // transient link faults absorbed
	stalls     atomic.Uint64 // injected stall units served
	broken     atomic.Bool   // severed: permanent fault or apply error
	joining    atomic.Bool   // mid-rejoin: not routable, not yet consistent
	expedite   atomic.Bool   // failover drain: bypass the link fault schedule
	lastErr    atomic.Pointer[string]
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
// intent, and streamed to each replica's applier in that order. Reads
// route by ReadPreference (Route, Query, NewSession); writes and DML
// always execute on the primary.
//
// Replication is asynchronous — a replica trails the primary by the ops
// still in its link — so reads on replicas are snapshot-stale by up to
// that lag. BoundedStaleness bounds it; a stalled or severed link simply
// degrades reads to the primary, never into a client-visible error.
//
// The primary role is not fixed: Promote switches it over cleanly (zero
// loss by construction), Failover recovers from primary loss using the
// retained pending tail (the primary's durable WAL tail) so no acked
// write is lost while that tail survives, and FailoverLostWAL models
// total primary loss, surfacing the dropped tail as a *LostTailError.
// Every role change increments the cluster epoch.
type Cluster struct {
	prim atomic.Pointer[primaryRef]
	reps atomic.Pointer[[]*clusterReplica] // copy-on-write under mu

	mu        sync.Mutex // orders enqueue: LSN assignment + fan-out; guards seq/pending/role flips
	seq       uint64     // last assigned cluster LSN (under mu)
	closed    bool
	switching bool // one Promote/Failover/Rejoin at a time
	fenced    bool // crash fence: enqueue refuses (failover in progress)

	// pending retains the ship ops above every replica's applied horizon:
	// the in-memory model of the primary's durable WAL tail. Failover
	// replays it into the survivor, which is what makes crash promotion
	// lossless while the old primary's log survives. pendingBase is the
	// LSN of the op before pending[0].
	pending     []shipOp
	pendingBase uint64

	epoch    atomic.Uint64            // current cluster epoch (starts at 1)
	cuts     atomic.Pointer[[]uint64] // cuts[e-1] = highest LSN an epoch-e op may apply
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
	tailRecovered atomic.Uint64 // acked ops replayed into a survivor from the pending tail
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
	c.epoch.Store(1)
	cuts := []uint64{math.MaxUint64}
	c.cuts.Store(&cuts)
	c.prim.Store(&primaryRef{db: pdb, name: "p"})
	pdb.cluster = c
	var reps []*clusterReplica
	for i := 0; i < replicas; i++ {
		rdb, err := Open(primary)
		if err != nil {
			return nil, err
		}
		rdb.cluster = c
		rdb.readOnly.Store(true)
		rdb.locks.SetExclusiveGuard(writeGuard(rdb))
		r := &clusterReplica{
			name: fmt.Sprintf("r%d", i),
			db:   rdb,
			ch:   make(chan shipOp, 1024),
			done: make(chan struct{}),
		}
		reps = append(reps, r)
		c.wg.Add(1)
		go c.runApplier(r)
	}
	c.reps.Store(&reps)
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

// enqueue assigns the next cluster LSN and fans the op out to every
// replica link, in one critical section so all replicas see the same
// total order. It runs inside the primary's mutating call, while the
// exclusive relation intent is still held — ship order is therefore
// exactly the primary's serialization order. Channel sends block when a
// link's buffer is full (backpressure), but the appliers always drain,
// even severed links (discarding), so enqueue cannot wedge. The op is
// also retained in the pending tail (the durable-WAL model Failover
// replays from).
func (c *Cluster) enqueue(epoch uint64, op shipOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	if c.fenced || epoch != c.epoch.Load() {
		return c.notPrimaryErr()
	}
	c.seq++
	op.lsn = c.seq
	op.epoch = epoch
	c.lsn.Store(c.seq)
	keep := op
	if op.tuple != nil {
		keep.tuple = op.tuple.Clone()
	}
	c.pending = append(c.pending, keep)
	c.trimPendingLocked()
	for _, r := range *c.reps.Load() {
		ro := op
		if op.tuple != nil {
			// Each replica retains its copy in its own heap file.
			ro.tuple = op.tuple.Clone()
		}
		r.ch <- ro
	}
	return nil
}

// trimPendingLocked drops pending ops every replica has already applied,
// keeping a slack of pendingRetain before copying. Broken replicas still
// pin the tail — that retention is exactly what lets Failover resurrect a
// severed survivor without loss. Joining replicas don't pin it (their
// snapshot covers the floor). Callers hold c.mu.
func (c *Cluster) trimPendingLocked() {
	if len(c.pending) <= pendingRetain {
		return
	}
	floor := c.seq
	for _, r := range *c.reps.Load() {
		if r.joining.Load() {
			continue
		}
		if a := r.applied.Load(); a < floor {
			floor = a
		}
	}
	if floor <= c.pendingBase {
		return
	}
	drop := int(floor - c.pendingBase)
	if drop > len(c.pending) {
		drop = len(c.pending)
	}
	c.pending = append([]shipOp(nil), c.pending[drop:]...)
	c.pendingBase += uint64(drop)
}

// runApplier drains one replica's link: consult the fault schedule,
// apply, publish the new horizon. A permanent link fault or an apply
// error severs the link — the replica freezes at a consistent prefix and
// the goroutine keeps draining (discarding) so enqueue never blocks on a
// dead link. A rejoining replica's applier first parks until its
// snapshot is installed, then skips ops the snapshot already contains.
// Ops from a superseded epoch above that epoch's cut are discarded: they
// are the lost tail of a failed-over primary, not history.
func (c *Cluster) runApplier(r *clusterReplica) {
	defer c.wg.Done()
	defer close(r.done)
	if r.ready != nil {
		select {
		case <-r.ready:
		case <-c.stop:
			r.broken.Store(true)
		}
	}
	for op := range r.ch {
		if r.broken.Load() {
			continue
		}
		if op.lsn <= r.floor.Load() && r.snap[op.rel] {
			if op.lsn > r.applied.Load() {
				r.applied.Store(op.lsn)
			}
			continue
		}
		if cuts := *c.cuts.Load(); op.epoch >= 1 && op.epoch <= uint64(len(cuts)) && op.lsn > cuts[op.epoch-1] {
			continue
		}
		if !c.admitOp(r) {
			continue
		}
		if err := r.apply(op); err != nil {
			msg := err.Error()
			r.lastErr.Store(&msg)
			r.broken.Store(true)
			continue
		}
		if op.lsn > r.applied.Load() {
			r.applied.Store(op.lsn)
		}
		r.ops.Add(1)
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
			msg := out.Err.Error()
			r.lastErr.Store(&msg)
			r.broken.Store(true)
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
	case opUpdate:
		_, err := rel.Update(op.column, op.value, op.setColumn, op.newValue)
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
	SettledLSN    uint64 // survivor's horizon before the tail replay
	TailRecovered uint64 // acked ops replayed from the retained pending tail
	TailLost      uint64 // acked ops dropped (FailoverLostWAL only)
}

// Promote performs a planned switchover to replica i: fence the current
// primary read-only (new writes refuse with *NotPrimaryError), drain
// every in-flight writer (lock-table quiesce), barrier the target replica
// at the full acknowledged prefix, then flip the roles — the old primary
// rejoins as a replica, the target's applier channel drains into it and
// closes, and the epoch increments. Zero acked-write loss by
// construction: nothing was acknowledged that the target has not applied.
// On error (ctx expired, target severed) the fence lifts and the cluster
// continues under the old primary.
func (c *Cluster) Promote(ctx context.Context, i int) error {
	if err := c.beginSwitch(); err != nil {
		return err
	}
	reps := *c.reps.Load()
	if i < 0 || i >= len(reps) {
		c.endSwitch()
		return fmt.Errorf("mmdb: no replica %d", i)
	}
	target := reps[i]
	if target.broken.Load() || target.joining.Load() {
		c.endSwitch()
		return fmt.Errorf("mmdb: replica %s is not live (broken or rejoining)", target.name)
	}
	old := c.prim.Load()

	// Fence: new exclusive intents on the old primary refuse from here
	// on. In-flight writers already past the fence finish and ship.
	old.db.readOnly.Store(true)
	old.db.locks.SetExclusiveGuard(writeGuard(old.db))
	unfence := func() {
		old.db.locks.SetExclusiveGuard(nil)
		old.db.readOnly.Store(false)
		c.endSwitch()
	}

	// Drain in-flight writers: after the quiesce every acknowledged write
	// has enqueued its ship op, so c.seq is the final acked LSN.
	if err := old.db.locks.QuiesceExclusive(ctx); err != nil {
		unfence()
		return fmt.Errorf("mmdb: promote: quiescing the primary: %w", err)
	}
	c.mu.Lock()
	acked := c.seq
	c.mu.Unlock()

	// Barrier: the target must have applied the full acked prefix.
	if err := c.awaitApplied(ctx, target, acked); err != nil {
		unfence()
		return fmt.Errorf("mmdb: promote: replica %s catching up to LSN %d: %w", target.name, acked, err)
	}

	c.detach(target)
	if target.applied.Load() != acked || target.broken.Load() {
		// The applier failed between the barrier and the drain; the
		// target is not a consistent full prefix. Reverse the fence.
		c.reattach(target)
		unfence()
		return fmt.Errorf("mmdb: promote: replica %s failed during drain", target.name)
	}
	c.flipDetached(target, old, acked, true)
	c.promotions.Add(1)
	c.endSwitch()
	return nil
}

// Failover performs a crash-driven promotion after primary loss, with
// the old primary's durable WAL tail (the retained pending ops) still
// available: fence and cut off the old primary, settle the surviving
// replicas, pick the one with the highest applied LSN, replay the acked
// tail it is missing from the pending buffer, and flip. Zero acked-write
// loss — even when the survivor's link was severed mid-stream — because
// everything acknowledged is in the retained tail. The old primary
// becomes the down node; Rejoin brings it back as a replica.
func (c *Cluster) Failover(ctx context.Context) (*FailoverReport, error) {
	return c.failover(ctx, false)
}

// FailoverLostWAL is Failover for total primary loss: the old primary's
// WAL is gone, so the acked tail beyond the best survivor's applied
// horizon cannot be recovered. The promotion still completes — the
// cluster is available on the survivor's consistent prefix — and the
// dropped tail is surfaced as a *LostTailError alongside the report.
func (c *Cluster) FailoverLostWAL(ctx context.Context) (*FailoverReport, error) {
	return c.failover(ctx, true)
}

func (c *Cluster) failover(ctx context.Context, walLost bool) (*FailoverReport, error) {
	if err := c.beginSwitch(); err != nil {
		return nil, err
	}
	old := c.prim.Load()

	// Fence the (crashed) old primary: sessions still holding it refuse
	// new writes, and the crash fence cuts enqueue off even for writers
	// already past the guard — acked is frozen the moment we set it.
	old.db.readOnly.Store(true)
	old.db.locks.SetExclusiveGuard(writeGuard(old.db))
	c.mu.Lock()
	c.fenced = true
	acked := c.seq
	c.mu.Unlock()
	abort := func() {
		c.mu.Lock()
		c.fenced = false
		c.mu.Unlock()
		old.db.locks.SetExclusiveGuard(nil)
		old.db.readOnly.Store(false)
		c.endSwitch()
	}

	// Pick the survivor: the live replica with the highest applied LSN,
	// or — when every link was severed — the best frozen prefix, which
	// the pending tail can top up.
	reps := *c.reps.Load()
	var survivor *clusterReplica
	live := false
	for _, r := range reps {
		if r.joining.Load() {
			continue
		}
		rLive := !r.broken.Load()
		switch {
		case survivor == nil,
			rLive && !live,
			rLive == live && r.applied.Load() > survivor.applied.Load():
			survivor, live = r, rLive
		}
	}
	if survivor == nil {
		abort()
		return nil, fmt.Errorf("mmdb: failover: no replica to promote")
	}

	if live {
		// The survivor's link holds every acked op it has not applied
		// yet (live links never drop ops). Expedite past the injected
		// link faults — the link's source is dead, its schedule is void —
		// and drain to the acked horizon.
		survivor.expedite.Store(true)
		if err := c.awaitApplied(ctx, survivor, acked); err != nil {
			survivor.expedite.Store(false)
			abort()
			return nil, fmt.Errorf("mmdb: failover: draining replica %s: %w", survivor.name, err)
		}
	}
	c.detach(survivor)
	settled := survivor.applied.Load()
	if live && (settled != acked || survivor.broken.Load()) {
		c.reattach(survivor)
		abort()
		return nil, fmt.Errorf("mmdb: failover: replica %s failed during drain", survivor.name)
	}

	rep := &FailoverReport{
		OldPrimary: old.name,
		NewPrimary: survivor.name,
		AckedLSN:   acked,
		SettledLSN: settled,
	}
	var lost *LostTailError
	newStart := acked
	switch {
	case settled == acked:
		// Fully caught up; nothing to replay.
	case !walLost:
		// Replay the acked tail (settled, acked] from the retained
		// pending buffer — the primary's durable WAL tail — directly
		// into the survivor. The trim floor never passes the slowest
		// replica, so the tail is always there.
		if err := c.replayPending(survivor, settled, acked); err != nil {
			c.reattach(survivor)
			abort()
			return nil, fmt.Errorf("mmdb: failover: replaying WAL tail into %s: %w", survivor.name, err)
		}
		rep.TailRecovered = acked - settled
		c.tailRecovered.Add(acked - settled)
	default:
		// The WAL is gone with the primary: the acked ops above the
		// survivor's horizon are lost. Promote the consistent prefix and
		// say so, honestly and typed.
		rep.TailLost = acked - settled
		c.tailLost.Add(acked - settled)
		newStart = settled
		lost = &LostTailError{AckedLSN: acked, SettledLSN: settled}
	}
	survivor.broken.Store(false)
	survivor.lastErr.Store(nil)
	survivor.expedite.Store(false)
	c.flipDetached(survivor, old, newStart, false)
	rep.Epoch = c.epoch.Load()
	c.failovers.Add(1)
	c.endSwitch()
	if lost != nil {
		lost.Epoch = rep.Epoch
		return rep, lost
	}
	return rep, nil
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

// detach removes the replica from the routing set, closes its link and
// waits for its applier goroutine to finish draining. After detach the
// caller owns the replica's database exclusively.
func (c *Cluster) detach(target *clusterReplica) {
	c.mu.Lock()
	reps := *c.reps.Load()
	out := make([]*clusterReplica, 0, len(reps))
	for _, r := range reps {
		if r != target {
			out = append(out, r)
		}
	}
	c.reps.Store(&out)
	close(target.ch)
	c.mu.Unlock()
	<-target.done
}

// reattach restores a detached replica with a fresh (empty) link after an
// aborted promotion. Ops enqueued while it was detached are missing from
// its link, so it rejoins broken — frozen at a consistent prefix — unless
// nothing was enqueued meanwhile (the fenced/quiesced case, where it
// resumes cleanly).
func (c *Cluster) reattach(target *clusterReplica) {
	c.mu.Lock()
	if target.applied.Load() < c.seq && !target.broken.Load() {
		msg := "mmdb: link reset during aborted promotion"
		target.lastErr.Store(&msg)
		target.broken.Store(true)
	}
	nr := &clusterReplica{
		name: target.name,
		db:   target.db,
		ch:   make(chan shipOp, 1024),
		done: make(chan struct{}),
	}
	nr.applied.Store(target.applied.Load())
	nr.ops.Store(target.ops.Load())
	nr.transients.Store(target.transients.Load())
	nr.stalls.Store(target.stalls.Load())
	nr.broken.Store(target.broken.Load())
	nr.lastErr.Store(target.lastErr.Load())
	reps := append(append([]*clusterReplica(nil), *c.reps.Load()...), nr)
	c.reps.Store(&reps)
	c.wg.Add(1)
	go c.runApplier(nr)
	c.mu.Unlock()
}

// replayPending applies the pending ops in (from, to] directly into a
// detached survivor — the failover path's read of the primary's durable
// WAL tail.
func (c *Cluster) replayPending(r *clusterReplica, from, to uint64) error {
	c.mu.Lock()
	if from < c.pendingBase {
		c.mu.Unlock()
		return fmt.Errorf("mmdb: pending tail starts at LSN %d, survivor settled at %d", c.pendingBase, from)
	}
	tail := append([]shipOp(nil), c.pending[from-c.pendingBase:to-c.pendingBase]...)
	c.mu.Unlock()
	for _, op := range tail {
		if err := r.apply(op); err != nil {
			return err
		}
		r.applied.Store(op.lsn)
		r.ops.Add(1)
	}
	return nil
}

// flipDetached installs a detached replica as the new primary at
// newStart (the LSN its history ends at), demotes the old primary, and
// increments the epoch. oldRejoins controls the old primary's fate: a
// planned switchover reattaches it as a replica already caught up to
// newStart; a crash failover parks it as the down node for Rejoin.
func (c *Cluster) flipDetached(target *clusterReplica, old *primaryRef, newStart uint64, oldRejoins bool) {
	c.mu.Lock()
	// Seal the old epoch at newStart: any op it produced above that LSN
	// is superseded history (the lost tail) and appliers discard it.
	oldEpoch := c.epoch.Load()
	cuts := append([]uint64(nil), *c.cuts.Load()...)
	cuts[oldEpoch-1] = newStart
	cuts = append(cuts, math.MaxUint64)
	c.cuts.Store(&cuts)
	newEpoch := oldEpoch + 1
	c.epoch.Store(newEpoch)
	c.seq = newStart
	c.lsn.Store(newStart)
	if newStart >= c.pendingBase {
		if keep := int(newStart - c.pendingBase); keep < len(c.pending) {
			c.pending = c.pending[:keep]
		}
	}

	// The target becomes the primary.
	ndb := target.db
	ndb.locks.SetExclusiveGuard(nil)
	ndb.readOnly.Store(false)
	fn := c.shipFrom(newEpoch)
	ndb.ship.Store(&fn)
	c.prim.Store(&primaryRef{db: ndb, name: target.name})

	// The old primary is already fenced (guard + readOnly set by the
	// caller); drop its stale ship hook.
	odb := old.db
	odb.ship.Store(nil)
	if oldRejoins {
		nr := &clusterReplica{
			name: old.name,
			db:   odb,
			ch:   make(chan shipOp, 1024),
			done: make(chan struct{}),
		}
		nr.applied.Store(newStart)
		reps := append(append([]*clusterReplica(nil), *c.reps.Load()...), nr)
		c.reps.Store(&reps)
		c.wg.Add(1)
		go c.runApplier(nr)
	} else {
		c.down.Store(&downNode{name: old.name, db: odb})
	}
	c.fenced = false
	c.mu.Unlock()
}

// Rejoin brings the down node (the old primary a Failover parked) back
// into the cluster as a replica. Its history may have diverged — after a
// lossy failover it can hold acked-but-superseded writes — so Rejoin
// rebuilds it from the new primary: drop its durable relations, register
// a parked applier link, freeze a consistent snapshot of the primary
// under shared relation intents, copy it over, then open the gate — the
// applier skips ops the snapshot already contains and applies the rest,
// catching the node up to the live stream. Concurrent writes are safe:
// ops that race the snapshot are deduplicated by the (floor, snapshot
// relation set) rule.
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

	// Register the parked link first: every op enqueued from here on is
	// buffered for the applier, so nothing between registration and the
	// snapshot can be missed.
	r := &clusterReplica{
		name:  dn.name,
		db:    db,
		ch:    make(chan shipOp, 1024),
		done:  make(chan struct{}),
		ready: make(chan struct{}),
	}
	r.joining.Store(true)
	c.mu.Lock()
	reps := append(append([]*clusterReplica(nil), *c.reps.Load()...), r)
	c.reps.Store(&reps)
	c.wg.Add(1)
	go c.runApplier(r)
	c.mu.Unlock()
	fail := func(err error) error {
		c.detach(r)
		return err
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
		return fail(fmt.Errorf("mmdb: rejoin: freezing the primary snapshot: %w", err))
	}
	c.mu.Lock()
	snapLSN := c.seq
	c.mu.Unlock()

	if err := c.copyRelations(p.db, db, names); err != nil {
		p.db.locks.Release(txn)
		return fail(fmt.Errorf("mmdb: rejoin: copying the snapshot: %w", err))
	}

	// Open the gate: the applier skips ops at or below snapLSN touching
	// a snapshot relation (the copy already contains them) and applies
	// everything else.
	snap := make(map[string]bool, len(names))
	for _, n := range names {
		snap[n] = true
	}
	r.snap = snap
	r.floor.Store(snapLSN)
	r.applied.Store(snapLSN)
	close(r.ready)
	p.db.locks.Release(txn)

	// Catch up to the live stream, then become routable.
	if err := c.awaitApplied(ctx, r, c.lsn.Load()); err != nil {
		return fmt.Errorf("mmdb: rejoin: %s catching up: %w", r.name, err)
	}
	db.readOnly.Store(true)
	db.locks.SetExclusiveGuard(writeGuard(db))
	r.joining.Store(false)
	c.down.Store(nil)
	return nil
}

// copyRelations copies the named relations — schema, tuples in storage
// order, index set — from src into dst, which must be quiescent for the
// duration (Rejoin holds shared intents on src; dst is the detached down
// node).
func (c *Cluster) copyRelations(src, dst *Database, names []string) error {
	for _, name := range names {
		srel, err := src.cat.Get(name)
		if err != nil {
			return err
		}
		schema := srel.Schema()
		var tuples []Tuple
		if err := srel.File.Scan(simio.Uncharged, func(t Tuple) bool {
			tuples = append(tuples, t.Clone())
			return true
		}); err != nil {
			return err
		}
		drel, err := dst.createRelation(true, name, schema)
		if err != nil {
			return err
		}
		for _, t := range tuples {
			if err := drel.InsertTuple(t); err != nil {
				return err
			}
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
	switch pref.Mode {
	case ReadNearest:
		if r := c.pickNearest(); r != nil {
			c.replicaReads.Add(1)
			return r.db
		}
		c.fallbacks.Add(1)
		return c.prim.Load().db
	case ReadBounded:
		if r := c.pickBounded(pref.MaxLSNLag); r != nil {
			c.replicaReads.Add(1)
			return r.db
		}
		c.fallbacks.Add(1)
		return c.prim.Load().db
	default:
		c.primaryReads.Add(1)
		return c.prim.Load().db
	}
}

// pickNearest returns the live replica with the highest applied horizon,
// round-robin among ties, or nil when none is live. Joining replicas are
// not yet consistent and never serve reads.
func (c *Cluster) pickNearest() *clusterReplica {
	reps := *c.reps.Load()
	n := len(reps)
	if n == 0 {
		return nil
	}
	start := int(c.rr.Add(1)) % n
	var best *clusterReplica
	var bestApplied uint64
	for i := 0; i < n; i++ {
		r := reps[(start+i)%n]
		if r.broken.Load() || r.joining.Load() {
			continue
		}
		if a := r.applied.Load(); best == nil || a > bestApplied {
			best, bestApplied = r, a
		}
	}
	return best
}

// pickBounded returns a live replica within maxLag ops of the cluster
// LSN, round-robin, or nil when every replica is too stale, severed or
// mid-rejoin.
func (c *Cluster) pickBounded(maxLag uint64) *clusterReplica {
	reps := *c.reps.Load()
	n := len(reps)
	if n == 0 {
		return nil
	}
	lsn := c.lsn.Load()
	start := int(c.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		r := reps[(start+i)%n]
		if r.broken.Load() || r.joining.Load() {
			continue
		}
		if lsn-r.applied.Load() <= maxLag {
			return r
		}
	}
	return nil
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
		target := c.lsn.Load()
		caught := true
		for _, r := range *c.reps.Load() {
			if !r.broken.Load() && !r.joining.Load() && r.applied.Load() < target {
				caught = false
				break
			}
		}
		if caught && target == c.lsn.Load() {
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

// Close stops replication: new mutations stop shipping, the links drain,
// and the applier goroutines exit — even mid-stall, because the stop
// channel interrupts injected sleeps (such a link is marked broken,
// frozen at its consistent prefix). The databases remain usable.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	for _, r := range *c.reps.Load() {
		close(r.ch)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Package txn implements the §5 transaction engine for a memory-resident
// database: strict two-phase locking with pre-committed transactions,
// write-ahead logging under the paper's three commit disciplines, a
// closed-loop terminal workload (Gray's debit/credit banking mix, the
// paper's "typical transaction" with 400 bytes of log), background fuzzy
// checkpointing, and a crash hook that exposes exactly the durable state
// to the recovery package.
//
// Everything runs on a discrete-event simulator in virtual time, so the
// paper's throughput arithmetic (one 10 ms log write per page) is
// reproduced deterministically.
package txn

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mmdb/internal/checkpoint"
	"mmdb/internal/event"
	"mmdb/internal/lock"
	"mmdb/internal/recovery"
	"mmdb/internal/store"
	"mmdb/internal/wal"
)

// Config parameterizes an engine run.
type Config struct {
	Accounts       int // number of bank account records
	RecSize        int // bytes per record; 0 means 46 (≈400 log bytes/txn, §5.1)
	RecordsPerPage int // records per data page; 0 means 64
	UpdatesPerTxn  int // accounts touched per transaction; 0 means 3 (§5.2: "three to four page reads and writes")
	Terminals      int // closed-loop multiprogramming level
	HotAccounts    int // restrict account choice to the first N accounts (0 = all); small values force pre-commit dependencies
	AbortEvery     int // abort every n-th transaction before commit (0 = never)
	Seed           int64

	// TruncateLog reclaims the log prefix no recovery could need (below
	// both the stable first-update table's oldest entry and the first
	// record of any unresolved transaction). Effective only with
	// checkpointing, which is what advances the redo bound (§5.5).
	TruncateLog bool
	// TruncateEvery is the commit cadence of truncation attempts.
	// 0 means 64; small values tighten how much reclaimable log can pile
	// up between attempts (the recovery-scale ladder uses this to keep
	// the scanned window near-constant).
	TruncateEvery int

	// Read-only terminals exercise the paper's §6 conjecture that "a
	// versioning mechanism [REED83] may provide superior performance for
	// memory resident systems": each runs a closed loop of transactions
	// reading ReadAccounts accounts with ReadCPU of think time per read.
	// With Versioning they read a consistent snapshot from version chains
	// without locks; without it they take shared locks like any 2PL
	// transaction and block the updaters.
	ReadOnlyTerminals int
	ReadAccounts      int           // accounts read per read-only transaction; 0 means 20
	ReadCPU           time.Duration // virtual CPU per read; 0 means 200µs
	Versioning        bool          // lock-free snapshot reads via version chains

	Log        wal.Config
	Checkpoint bool        // run the background checkpointer
	DataDevice *wal.Device // disk for checkpoint page writes; nil disables Checkpoint
}

func (c Config) withDefaults() Config {
	if c.RecSize == 0 {
		c.RecSize = 46
	}
	if c.RecordsPerPage == 0 {
		c.RecordsPerPage = 64
	}
	if c.UpdatesPerTxn == 0 {
		c.UpdatesPerTxn = 3
	}
	if c.Terminals == 0 {
		c.Terminals = 1
	}
	if c.ReadAccounts == 0 {
		c.ReadAccounts = 20
	}
	if c.ReadCPU == 0 {
		c.ReadCPU = 200 * time.Microsecond
	}
	if c.TruncateEvery == 0 {
		c.TruncateEvery = 64
	}
	return c
}

// Stats summarizes a run.
type Stats struct {
	Started     int64
	Committed   int64 // commits acknowledged by the measurement deadline
	Aborted     int64
	ReadTxns    int64         // read-only transactions acknowledged by the deadline
	Duration    time.Duration // measurement window (virtual)
	Log         wal.Stats
	CkptPages   int64
	MaxDepLists int // largest dependency list observed (pre-commit coupling)
}

// ReadTPS returns acknowledged read-only transactions per virtual second.
func (s Stats) ReadTPS() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.ReadTxns) / s.Duration.Seconds()
}

// TPS returns committed transactions per virtual second.
func (s Stats) TPS() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Committed) / s.Duration.Seconds()
}

type txnState struct {
	id       wal.TxnID
	terminal int
	accounts []uint64
	deltas   []int64
	step     int
	deps     map[wal.TxnID]struct{}
	undo     []undoEntry
	abort    bool
	firstLSN wal.LSN // the Begin record's LSN (log truncation's undo bound)
}

type undoEntry struct {
	rec uint64
	old []byte
}

// Engine drives the workload.
type Engine struct {
	sim   *event.Sim
	cfg   Config
	st    *store.Store
	log   *wal.Log
	locks *lock.Manager
	snap  *checkpoint.Snapshot
	ckpt  *checkpoint.Checkpointer
	rng   *rand.Rand

	nextTxn  wal.TxnID
	states   map[wal.TxnID]*txnState
	acked    map[wal.TxnID]time.Duration
	stalled  []func()
	stopped  bool
	deadline time.Duration

	// Versioning support (§6 / [REED83]): per-record pre-image chains,
	// commit LSNs for visibility, and readers waiting for the durable
	// commit of transactions whose pre-committed data they observed.
	versions   map[uint64][]version
	commitLSN  map[wal.TxnID]wal.LSN
	depWaiters map[wal.TxnID][]func()
	readers    map[wal.TxnID]*readerState

	stats Stats
}

// version records that the update at LSN lsn by txn overwrote old.
type version struct {
	lsn wal.LSN
	txn wal.TxnID
	old []byte
}

// New builds an engine. The caller supplies the simulator so tests can
// interleave other processes.
func New(sim *event.Sim, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Accounts < cfg.UpdatesPerTxn {
		return nil, fmt.Errorf("txn: need at least %d accounts, got %d", cfg.UpdatesPerTxn, cfg.Accounts)
	}
	if cfg.RecSize < 8 {
		return nil, fmt.Errorf("txn: record size %d too small for a balance", cfg.RecSize)
	}
	st, err := store.New(cfg.Accounts, cfg.RecSize, cfg.RecordsPerPage)
	if err != nil {
		return nil, err
	}
	l, err := wal.NewLog(sim, cfg.Log)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		sim:        sim,
		cfg:        cfg,
		st:         st,
		log:        l,
		locks:      lock.NewManager(),
		snap:       checkpoint.NewSnapshot(),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		states:     make(map[wal.TxnID]*txnState),
		acked:      make(map[wal.TxnID]time.Duration),
		versions:   make(map[uint64][]version),
		commitLSN:  make(map[wal.TxnID]wal.LSN),
		depWaiters: make(map[wal.TxnID][]func()),
	}
	e.ckpt = checkpoint.New(sim, st, l, cfg.DataDevice, e.snap)
	e.ckpt.InitialSnapshot()
	l.SetOnCommit(e.onDurableCommit)
	l.SetOnDrain(e.wakeStalled)
	l.SetBoundsFunc(e.logBounds)
	// A completed checkpoint page write can advance the replay horizon;
	// push the new bound into every log device's commit.meta.
	e.ckpt.OnAdvance = l.PublishMeta
	return e, nil
}

// logBounds supplies the log's two safety bounds (§5.5). compactable is
// the durably-resolved floor: min over the durable LSN+1 and the first
// record of every transaction whose outcome is not yet durable — below
// it the §5.6 compactor may strip pre-images. horizon additionally stays
// below the stable first-update table's oldest entry, so everything
// beneath it is reflected in the checkpoint snapshot: the truncation
// point, and what commit.meta publishes for recovery to skip segments by.
func (e *Engine) logBounds() (horizon, compactable wal.LSN) {
	compactable = e.log.DurableLSN() + 1
	if first, ok := e.log.UnresolvedFloor(); ok && first < compactable {
		compactable = first
	}
	horizon = compactable
	if start, ok := e.ckpt.RecoveryStartLSN(); ok && start < horizon {
		horizon = start
	}
	return horizon, compactable
}

// Store exposes the live database (for verification in tests).
func (e *Engine) Store() *store.Store { return e.st }

// Log exposes the log manager.
func (e *Engine) Log() *wal.Log { return e.log }

// Snapshot exposes the checkpoint image.
func (e *Engine) Snapshot() *checkpoint.Snapshot { return e.snap }

// Stats returns run statistics (Log stats are refreshed on read).
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Log = e.log.Stats()
	s.CkptPages = e.ckpt.PagesWritten
	return s
}

// Run executes the closed-loop workload for the given virtual duration,
// then lets in-flight transactions drain. It returns the run statistics
// with Committed counted at the deadline.
func (e *Engine) Run(d time.Duration) Stats {
	e.deadline = e.sim.Now() + d
	e.stopped = false
	if e.cfg.Checkpoint && e.cfg.DataDevice != nil {
		e.ckpt.Start()
	}
	commitsAtDeadline := int64(-1)
	readsAtDeadline := int64(-1)
	e.sim.At(e.deadline, func() {
		e.stopped = true
		e.ckpt.Stop()
		commitsAtDeadline = e.stats.Committed
		readsAtDeadline = e.stats.ReadTxns
		e.log.Flush() // release a straggling partial commit group
	})
	for t := 0; t < e.cfg.Terminals; t++ {
		term := t
		e.sim.After(0, func() { e.startTxn(term) })
	}
	for t := 0; t < e.cfg.ReadOnlyTerminals; t++ {
		term := t
		e.sim.After(0, func() { e.startReader(term) })
	}
	e.sim.Run()
	s := e.Stats()
	if commitsAtDeadline >= 0 {
		s.Committed = commitsAtDeadline
		s.ReadTxns = readsAtDeadline
	}
	s.Duration = d
	return s
}

// RunUntilIdle drains all pending events without a deadline (used by crash
// tests that stop the clock mid-flight instead).
func (e *Engine) RunUntilIdle() {
	e.sim.Run()
}

// StopNow prevents terminals from starting further transactions.
func (e *Engine) StopNow() {
	e.stopped = true
	e.ckpt.Stop()
}

func (e *Engine) startTxn(terminal int) {
	if e.stopped {
		return
	}
	e.nextTxn++
	id := e.nextTxn
	s := &txnState{
		id:       id,
		terminal: terminal,
		deps:     make(map[wal.TxnID]struct{}),
	}
	s.abort = e.cfg.AbortEvery > 0 && int(id)%e.cfg.AbortEvery == 0
	// Pick distinct accounts, sorted to make lock acquisition deadlock
	// free; the deltas are zero-sum (a transfer), so the total balance of
	// committed state is invariantly zero — the recovery oracle.
	domain := e.cfg.Accounts
	if e.cfg.HotAccounts > 0 && e.cfg.HotAccounts < domain {
		domain = e.cfg.HotAccounts
	}
	seen := make(map[uint64]bool, e.cfg.UpdatesPerTxn)
	for len(s.accounts) < e.cfg.UpdatesPerTxn {
		a := uint64(e.rng.Intn(domain))
		if !seen[a] {
			seen[a] = true
			s.accounts = append(s.accounts, a)
		}
	}
	sortAccounts(s.accounts)
	amount := int64(e.rng.Intn(1000) + 1)
	s.deltas = make([]int64, len(s.accounts))
	for i := 1; i < len(s.deltas); i++ {
		s.deltas[i] = amount
	}
	s.deltas[0] = -amount * int64(len(s.deltas)-1)

	e.states[id] = s
	e.stats.Started++
	e.appendOrStall(func() bool {
		lsn, ok := e.log.Append(wal.Record{Txn: id, Type: wal.Begin})
		if ok {
			s.firstLSN = lsn
		}
		return ok
	}, func() { e.acquireNext(s) })
}

// appendOrStall runs try; on stable-memory backpressure it parks the
// continuation until the log drains.
func (e *Engine) appendOrStall(try func() bool, then func()) {
	if try() {
		then()
		return
	}
	e.stalled = append(e.stalled, func() { e.appendOrStall(try, then) })
}

func (e *Engine) wakeStalled() {
	waiting := e.stalled
	e.stalled = nil
	for _, fn := range waiting {
		fn()
	}
}

func (e *Engine) acquireNext(s *txnState) {
	if s.step >= len(s.accounts) {
		e.finish(s)
		return
	}
	i := s.step
	acct := s.accounts[i]
	e.locks.Acquire(s.id, acct, lock.Exclusive, func(deps []wal.TxnID) {
		for _, d := range deps {
			s.deps[d] = struct{}{}
		}
		if len(s.deps) > e.stats.MaxDepLists {
			e.stats.MaxDepLists = len(s.deps)
		}
		e.applyUpdate(s, i)
	})
}

func (e *Engine) applyUpdate(s *txnState, i int) {
	acct := s.accounts[i]
	old := e.st.Read(acct)
	newVal := append([]byte(nil), old...)
	bal := int64(binary.BigEndian.Uint64(newVal[:8]))
	binary.BigEndian.PutUint64(newVal[:8], uint64(bal+s.deltas[i]))
	e.appendOrStall(func() bool {
		lsn, ok := e.log.Append(wal.Record{
			Txn:  s.id,
			Type: wal.Update,
			Rec:  acct,
			Old:  old,
			New:  newVal,
		})
		if !ok {
			return false
		}
		if err := e.st.Write(acct, newVal, lsn); err != nil {
			panic(err)
		}
		e.pushVersion(acct, lsn, s.id, old)
		return true
	}, func() {
		s.undo = append(s.undo, undoEntry{rec: acct, old: old})
		e.ckpt.Kick()
		s.step++
		e.acquireNext(s)
	})
}

// finish pre-commits (or aborts) after the last update.
func (e *Engine) finish(s *txnState) {
	if s.abort {
		e.rollback(s, len(s.undo)-1)
		return
	}
	// Pre-commit: release locks before the commit record is durable
	// (§5.2); dependents pick us up from the lock table's pre-committed
	// lists.
	e.locks.PreCommit(s.id)
	deps := make([]wal.TxnID, 0, len(s.deps))
	for d := range s.deps {
		deps = append(deps, d)
	}
	// AppendCommit seals other fragments' open groups in this order.
	sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
	e.appendOrStall(func() bool {
		if !e.log.AppendCommit(s.id, deps) {
			return false
		}
		// The commit record's LSN is the visibility timestamp for
		// versioned snapshot reads.
		e.commitLSN[s.id] = e.log.CurrentLSN()
		return true
	}, func() {})
}

// rollback undoes s's updates in reverse order, logging a compensating
// update for each (so redo remains a pure forward replay) and finally an
// End record marking the rollback complete. A crash mid-rollback leaves the
// transaction a loser, and undoing its updates — compensations included —
// in reverse order restores the pre-transaction state.
func (e *Engine) rollback(s *txnState, i int) {
	if i < 0 {
		e.appendOrStall(func() bool {
			_, ok := e.log.Append(wal.Record{Txn: s.id, Type: wal.End})
			return ok
		}, func() {
			e.locks.ReleaseAll(s.id)
			delete(e.states, s.id)
			e.stats.Aborted++
			term := s.terminal
			e.sim.After(0, func() { e.startTxn(term) })
		})
		return
	}
	u := s.undo[i]
	cur := e.st.Read(u.rec)
	e.appendOrStall(func() bool {
		lsn, ok := e.log.Append(wal.Record{
			Txn:  s.id,
			Type: wal.Update,
			Rec:  u.rec,
			Old:  cur,
			New:  u.old,
		})
		if !ok {
			return false
		}
		if err := e.st.Write(u.rec, u.old, lsn); err != nil {
			panic(err)
		}
		e.pushVersion(u.rec, lsn, s.id, cur)
		return true
	}, func() {
		e.ckpt.Kick()
		e.rollback(s, i-1)
	})
}

func (e *Engine) onDurableCommit(id wal.TxnID) {
	if waiters := e.depWaiters[id]; len(waiters) > 0 {
		delete(e.depWaiters, id)
		for _, fn := range waiters {
			fn()
		}
	}
	s, ok := e.states[id]
	if !ok {
		return
	}
	delete(e.states, id)
	e.locks.Finish(id)
	e.acked[id] = e.sim.Now()
	e.stats.Committed++
	if e.cfg.TruncateLog && e.stats.Committed%int64(e.cfg.TruncateEvery) == 0 {
		e.maybeTruncateLog()
	}
	term := s.terminal
	e.sim.After(0, func() { e.startTxn(term) })
}

// maybeTruncateLog advances the log truncation horizon to the highest LSN
// below which no recovery could need a record. The undo bound comes from
// the log's own unresolved floor rather than the engine's in-flight set:
// an aborting transaction leaves that set when its End record is appended,
// before the End is durable, and truncating its updates in that window
// would leave recovery a loser it cannot undo.
func (e *Engine) maybeTruncateLog() {
	horizon, _ := e.logBounds()
	e.log.TruncateBefore(horizon)
}

// AckedBy returns the transactions whose commit was acknowledged to their
// terminal at or before virtual time t. Recovery must preserve all of
// their effects.
func (e *Engine) AckedBy(t time.Duration) []wal.TxnID {
	var out []wal.TxnID
	for id, at := range e.acked {
		if at <= t {
			out = append(out, id)
		}
	}
	return out
}

// CrashInput captures exactly the crash-durable state at the current
// virtual instant: each log device's surviving segment files and
// commit.meta position, stable memory's surviving records, the checkpoint
// snapshot on disk, and the stable first-update table's redo bound — the
// input to recovery.Recover.
func (e *Engine) CrashInput() recovery.Input {
	now := e.sim.Now()
	in := recovery.Input{
		NumRecords:     e.cfg.Accounts,
		RecSize:        e.cfg.RecSize,
		RecordsPerPage: e.cfg.RecordsPerPage,
		PageSize:       e.log.Config().PageSize,
	}
	for _, d := range e.log.Config().Devices {
		in.Devices = append(in.Devices, d.DurableSegments(now))
	}
	in.StableTail = e.log.StableRecords() // empty unless the policy is StableMemory
	in.StartLSN, in.HaveStart = e.ckpt.RecoveryStartLSN()
	// Deep-copy the snapshot: the live checkpointer keeps installing pages
	// after this instant, but the crash sees the images as they are now.
	in.SnapshotPages = make(map[int][]byte, e.snap.Len())
	for p, img := range e.snap.Pages() {
		in.SnapshotPages[p] = append([]byte(nil), img...)
	}
	return in
}

func sortAccounts(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

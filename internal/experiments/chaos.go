package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"mmdb"
	"mmdb/internal/event"
	"mmdb/internal/fault"
	"mmdb/internal/join"
	"mmdb/internal/recovery"
	"mmdb/internal/store"
	"mmdb/internal/tuple"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// ChaosConfig drives the fault-plane acceptance ladder: a crash-recovery
// grid under torn log writes, a transient-fault query leg absorbed by
// query-level retry, and a grant-revocation leg that must degrade to the
// GRACE spill fallback. Everything is virtual-time and seed-driven, so a
// given config produces a byte-identical report on every run.
type ChaosConfig struct {
	// Crash grid: Seeds × CrashPoints engine runs, each with a torn log
	// write scheduled and a contended, abort-seeded workload.
	Seeds       []int64         `json:"seeds"`
	CrashPoints []time.Duration `json:"crash_points_ns"`
	RunFor      time.Duration   `json:"run_for_ns"`
	TornEveryN  int64           `json:"torn_every_n"` // n-th log-page write tears

	// Query legs: two relations of Tuples rows whose keys collide 5×5.
	Tuples      int `json:"tuples"`
	MemoryPages int `json:"memory_pages"`
	PageSize    int `json:"page_size"`

	// Transient leg: a one-shot burst at the TransientAt-th charged IO,
	// sized to kill TransientKills whole bounded-retry write loops, against
	// a session allowed Retries attempts.
	TransientAt    int64 `json:"transient_at"`
	TransientBurst int   `json:"transient_burst"`
	Retries        int   `json:"retries"`

	// Revocation leg: pages the session sheds from inside the first emit.
	ShedPages int `json:"shed_pages"`
}

// DefaultChaosConfig sizes the ladder to run in a few seconds of wall
// time while still producing losers, torn tails, and a real spill.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seeds: []int64{11, 23},
		CrashPoints: []time.Duration{
			130 * time.Millisecond,
			517 * time.Millisecond,
			901 * time.Millisecond,
		},
		RunFor:         1200 * time.Millisecond,
		TornEveryN:     12,
		Tuples:         500,
		MemoryPages:    64,
		PageSize:       512,
		TransientAt:    10,
		TransientBurst: 12,
		Retries:        2,
		ShedPages:      1000,
	}
}

// ChaosCrashRow is one cell of the crash-recovery grid.
type ChaosCrashRow struct {
	Seed       int64         `json:"seed"`
	CrashAt    time.Duration `json:"crash_at_ns"`
	Committed  int           `json:"committed"`
	Losers     int           `json:"losers"`
	Redone     int           `json:"redone"`
	Undone     int           `json:"undone"`
	LogScanned int           `json:"log_scanned"`
	TornWrites int64         `json:"torn_writes"`
	LostPages  int64         `json:"lost_pages"`
	// AckedDurable: every transaction acknowledged by crash time was found
	// committed by recovery (no lost acks).
	AckedDurable bool `json:"acked_durable"`
	// PrefixEqual: the recovered store equals a fresh store replaying only
	// the resolved transactions' updates in LSN order (recovery ≡
	// committed-prefix replay).
	PrefixEqual bool `json:"prefix_equal"`
}

// ChaosQueryLeg reports one query-plane leg of the ladder.
type ChaosQueryLeg struct {
	Algorithm string `json:"algorithm"`
	Matches   int64  `json:"matches"`
	// PairHash fingerprints the emitted pair multiset (order-independent);
	// equal hashes across the baseline and the faulted run mean
	// bit-identical results.
	PairHash  uint64 `json:"pair_hash"`
	Identical bool   `json:"identical_to_baseline"`

	TransientInjected int64 `json:"transient_injected,omitempty"`
	Degraded          bool  `json:"degraded,omitempty"`
	ShedReclaimed     int   `json:"shed_reclaimed,omitempty"`
}

// ChaosResult is the full ladder report.
type ChaosResult struct {
	Config    ChaosConfig     `json:"config"`
	Crash     []ChaosCrashRow `json:"crash_grid"`
	Segments  []ChaosSegRow   `json:"segment_grid"`
	Transient ChaosQueryLeg   `json:"transient_leg"`
	Revoked   ChaosQueryLeg   `json:"revocation_leg"`
	// TotalUndone aggregates loser undo across the grid; the grid is only
	// meaningful if it actually exercised the undo path.
	TotalUndone int  `json:"total_undone"`
	AllHold     bool `json:"all_invariants_hold"`
}

// chaosOracle replays the committed prefix: a fresh store plus the
// crash's snapshot pages with every resolved transaction's updates from
// log (the merged durable log of the crash instant) applied in LSN order.
// By §5.2 pre-commit ordering no committed transaction can have
// overwritten a loser, so recovery's undo-by-preimage result must equal
// this never-applied replay bit for bit.
func chaosOracle(in recovery.Input, log []wal.Record, info recovery.Info) (*store.Store, error) {
	st, err := store.New(in.NumRecords, in.RecSize, in.RecordsPerPage)
	if err != nil {
		return nil, err
	}
	for p, img := range in.SnapshotPages {
		if err := st.InstallPage(p, img); err != nil {
			return nil, err
		}
	}
	for _, r := range log {
		if r.Type != wal.Update || (!info.Committed[r.Txn] && !info.Ended[r.Txn]) {
			continue
		}
		if err := st.Apply(r.Rec, r.New); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// chaosWorkload is the crash grids' engine config: a contended,
// abort-seeded debit/credit workload on a group-commit log whose device
// exposes torn pages and tears every (TornEveryN+seed)-th write. Offsetting
// the tear by the seed makes a grid straddle it: early crash points capture
// a still-clean log, late ones a torn one, and different seeds tear at
// different depths of the commit history.
func chaosWorkload(cfg ChaosConfig, seed int64) (txn.Config, *fault.Injector) {
	inj := fault.NewInjector(seed).TornEvery("log0", cfg.TornEveryN+seed)
	dev := wal.NewDevice("log0", 10*time.Millisecond)
	dev.Injector = inj
	dev.ExposeTorn = true
	return txn.Config{
		Accounts:       512,
		Terminals:      50,
		UpdatesPerTxn:  3,
		HotAccounts:    12, // force §5.2 pre-commit dependency chains
		AbortEvery:     5,  // seed rollbacks among the losers
		RecordsPerPage: 16,
		Seed:           seed,
		Log: wal.Config{
			Policy:  wal.GroupCommit,
			Devices: []*wal.Device{dev},
			// Tiny pages split each transaction across page boundaries so
			// crashes catch updates durable with the commit still in flight.
			PageSize: 256,
		},
	}, inj
}

// ackedDurable is the §5 acknowledgement invariant: every transaction
// acknowledged by crash time was found committed by recovery.
func ackedDurable(acked []wal.TxnID, committed map[wal.TxnID]bool) bool {
	for _, id := range acked {
		if !committed[id] {
			return false
		}
	}
	return true
}

// runChaosCrash runs one grid cell: a contended, abort-seeded workload on
// a group-commit log whose device tears mid-run, crashed at crashAt.
func runChaosCrash(cfg ChaosConfig, seed int64, crashAt time.Duration) (ChaosCrashRow, error) {
	row := ChaosCrashRow{Seed: seed, CrashAt: crashAt}
	tc, inj := chaosWorkload(cfg, seed)
	sim := &event.Sim{}
	e, err := txn.New(sim, tc)
	if err != nil {
		return row, err
	}
	var log []wal.Record
	sim.At(crashAt, func() { log, _ = e.Log().DurableRecords(crashAt) }) // the error is always nil
	in, _ := crashRun(sim, e, crashAt, cfg.RunFor)

	// The oracles below read transaction outcomes, which only a full scan
	// reports exactly; the segment grid checks skip ≡ full.
	in.IgnoreHorizon = true
	st, info, err := recovery.Recover(in)
	if err != nil {
		return row, fmt.Errorf("chaos: recovery (seed %d, crash %v): %w", seed, crashAt, err)
	}
	row.Committed = len(info.Committed)
	row.Losers = len(info.Losers)
	row.Redone = info.Redone
	row.Undone = info.Undone
	row.LogScanned = info.LogScanned
	row.TornWrites = inj.Stats().Torn
	row.LostPages = e.Log().Stats().LostPages

	row.AckedDurable = ackedDurable(e.AckedBy(crashAt), info.Committed)
	oracle, err := chaosOracle(in, log, info)
	if err != nil {
		return row, err
	}
	row.PrefixEqual = st.Equal(oracle)
	return row, nil
}

// chaosJoin runs r ⋈ s in query q, re-running an attempt a transient
// fault kills up to retries times, and fingerprints the emitted pair
// multiset of the attempt that succeeded (order-independent).
func chaosJoin(q *opQuery, alg join.Algorithm, retries int, onEmit func()) (join.Result, uint64, error) {
	var pairs []string
	var res join.Result
	err := fault.Rerun(retries, func() (err error) {
		pairs = pairs[:0]
		res, err = q.join(alg, "r", "s", 0, func(l, r tuple.Tuple) {
			pairs = append(pairs, fmt.Sprintf("%x|%x", []byte(l), []byte(r)))
			if onEmit != nil {
				onEmit()
			}
		})
		return err
	})
	if err != nil {
		return res, 0, err
	}
	sort.Strings(pairs)
	h := fnv.New64a()
	for _, p := range pairs {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return res, h.Sum64(), nil
}

// chaosBaseline loads a query-leg bench — relations r and s of cfg.Tuples
// rows each whose keys collide 5×5 per value — and joins r ⋈ s
// fault-free: the result and pair fingerprint a disturbed run must
// reproduce bit for bit.
func chaosBaseline(cfg ChaosConfig, alg join.Algorithm) (*opBench, join.Result, uint64, error) {
	b := newOpBench(cfg.PageSize, cfg.MemoryPages, join.Spec{})
	schema := mmdb.MustSchema(
		mmdb.Field{Name: "k", Kind: mmdb.Int64},
		mmdb.Field{Name: "pad", Kind: mmdb.String, Size: 16},
	)
	for _, name := range []string{"r", "s"} {
		err := b.load(name, schema, cfg.Tuples, func(i int) []mmdb.Value {
			return []mmdb.Value{mmdb.IntValue(int64(i % (cfg.Tuples / 5))), mmdb.StringValue(fmt.Sprintf("%s%04d", name, i))}
		})
		if err != nil {
			return nil, join.Result{}, 0, err
		}
	}
	q, err := b.query()
	if err != nil {
		return nil, join.Result{}, 0, err
	}
	defer q.close()
	res, hash, err := chaosJoin(q, alg, 0, nil)
	return b, res, hash, err
}

// runChaosTransient runs the transient leg: a one-shot burst long enough
// to kill whole query attempts, absorbed by query-level retry, and the
// final result compared bit for bit against a fault-free baseline.
func runChaosTransient(cfg ChaosConfig) (ChaosQueryLeg, error) {
	leg := ChaosQueryLeg{Algorithm: "grace"}
	b, wantRes, wantHash, err := chaosBaseline(cfg, join.GraceHash)
	if err != nil {
		return leg, err
	}

	inj := fault.NewInjector(3).TransientAt("", cfg.TransientAt, cfg.TransientBurst)
	b.disk.SetInjector(inj)
	defer b.disk.SetInjector(nil)
	q, err := b.query()
	if err != nil {
		return leg, err
	}
	defer q.close()
	res, hash, err := chaosJoin(q, join.GraceHash, cfg.Retries, nil)
	if err != nil {
		return leg, fmt.Errorf("chaos: retried query failed: %w", err)
	}
	leg.Matches = res.Matches
	leg.PairHash = hash
	leg.Identical = res.Matches == wantRes.Matches && hash == wantHash
	leg.TransientInjected = inj.Stats().Transient
	return leg, nil
}

// runChaosRevoked runs the degradation leg: the broker revokes almost the
// whole grant from inside the hybrid join's first emit, which must finish
// via the GRACE spill fallback with the exact same pairs.
func runChaosRevoked(cfg ChaosConfig) (ChaosQueryLeg, error) {
	leg := ChaosQueryLeg{Algorithm: "hybrid"}
	b, wantRes, wantHash, err := chaosBaseline(cfg, join.HybridHash)
	if err != nil {
		return leg, err
	}

	q, err := b.query()
	if err != nil {
		return leg, err
	}
	defer q.close()
	shed := false
	res, hash, err := chaosJoin(q, join.HybridHash, 0, func() {
		if !shed {
			shed = true
			leg.ShedReclaimed = q.grant.Revoke(cfg.ShedPages)
		}
	})
	if err != nil {
		return leg, fmt.Errorf("chaos: degraded query failed: %w", err)
	}
	leg.Matches = res.Matches
	leg.PairHash = hash
	leg.Degraded = res.GraceFallback
	leg.Identical = res.Matches == wantRes.Matches && hash == wantHash
	return leg, nil
}

// RunChaos runs the full fault-plane ladder and folds the acceptance
// verdict into AllHold: every grid cell satisfies both crash invariants,
// the grid exercised undo, the transient leg survived with an identical
// result, and the revocation leg degraded without changing a bit.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	res := &ChaosResult{Config: cfg, AllHold: true}
	for _, seed := range cfg.Seeds {
		for _, at := range cfg.CrashPoints {
			row, err := runChaosCrash(cfg, seed, at)
			if err != nil {
				return nil, err
			}
			res.Crash = append(res.Crash, row)
			res.TotalUndone += row.Undone
			if !row.AckedDurable || !row.PrefixEqual || row.Committed == 0 {
				res.AllHold = false
			}
		}
	}
	if res.TotalUndone == 0 {
		res.AllHold = false // the grid never exercised loser undo
	}
	segRows, err := runChaosSegGrid(cfg)
	if err != nil {
		return nil, err
	}
	res.Segments = segRows
	for _, row := range segRows {
		if !row.WindowFound || !row.AckedDurable || !row.SkipEqualsFull || row.Committed == 0 {
			res.AllHold = false
		}
	}
	if res.Transient, err = runChaosTransient(cfg); err != nil {
		return nil, err
	}
	if res.Revoked, err = runChaosRevoked(cfg); err != nil {
		return nil, err
	}
	if !res.Transient.Identical || !res.Revoked.Identical || !res.Revoked.Degraded {
		res.AllHold = false
	}
	return res, nil
}

// Print renders the ladder.
func (r *ChaosResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Fault plane — chaos ladder (torn log tails, transient bursts, grant revocation)")
	fmt.Fprintf(w, "  crash grid: %d seeds × %d crash points, group commit, 256-byte log pages,\n",
		len(r.Config.Seeds), len(r.Config.CrashPoints))
	fmt.Fprintf(w, "  hot-account chains + abort seeding, log0 tears every %d pages\n\n", r.Config.TornEveryN)
	fmt.Fprintf(w, "  %5s %9s %10s %7s %7s %7s %6s %6s %7s %7s\n",
		"seed", "crash", "committed", "losers", "redone", "undone", "torn", "lost", "acked⊆C", "prefix=")
	for _, row := range r.Crash {
		fmt.Fprintf(w, "  %5d %9s %10d %7d %7d %7d %6d %6d %7v %7v\n",
			row.Seed, row.CrashAt, row.Committed, row.Losers, row.Redone, row.Undone,
			row.TornWrites, row.LostPages, row.AckedDurable, row.PrefixEqual)
	}
	fmt.Fprintf(w, "\n  segment grid: crashes aimed mid-rotation, mid-commit.meta rewrite, mid-compaction\n")
	fmt.Fprintf(w, "  %5s %11s %9s %10s %6s %7s %7s %9s %7s %6s\n",
		"seed", "target", "crash", "committed", "acked", "scanned", "skipped", "compacted", "acked⊆C", "skip=")
	for _, row := range r.Segments {
		fmt.Fprintf(w, "  %5d %11s %9s %10d %6d %7d %7d %9d %7v %6v\n",
			row.Seed, row.Target, row.CrashAt, row.Committed, row.AckedAtCrash,
			row.SegmentsScanned, row.SegmentsSkipped, row.CompactedBytes,
			row.AckedDurable, row.SkipEqualsFull)
	}
	fmt.Fprintf(w, "\n  transient leg (%s): %d matches, burst of %d absorbed by %d retries, identical=%v\n",
		r.Transient.Algorithm, r.Transient.Matches, r.Transient.TransientInjected,
		r.Config.Retries, r.Transient.Identical)
	fmt.Fprintf(w, "  revocation leg (%s): %d matches, shed %d pages mid-probe, degraded=%v, identical=%v\n",
		r.Revoked.Algorithm, r.Revoked.Matches, r.Revoked.ShedReclaimed,
		r.Revoked.Degraded, r.Revoked.Identical)
	fmt.Fprintf(w, "  total loser updates undone across the grid: %d\n", r.TotalUndone)
	fmt.Fprintf(w, "  ALL INVARIANTS HOLD: %v\n", r.AllHold)
}

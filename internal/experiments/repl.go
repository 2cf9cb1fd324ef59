package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"mmdb"
	"mmdb/internal/cost"
	"mmdb/internal/event"
	"mmdb/internal/fault"
	"mmdb/internal/repl"
	"mmdb/internal/store"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// ReplConfig drives the replication ladder's two legs.
//
// The physical leg runs the §5 recovery-world primary (seeded
// debit/credit on a segmented stable-memory log, truncation active) with
// LSN-shipping replicas at every (replica count × apply width × fault
// plan) cell, and holds the determinism oracle: a replica's store — at a
// mid-run snapshot and at the end — is byte-identical to the primary's
// committed prefix at its applied LSN, and the apply-path virtual
// counters are bit-identical across widths.
//
// The cluster leg measures the query-world read scale-out: the same read
// mix routed through a Cluster at several replica counts, plus a stalled
// link that must degrade reads to the primary without a client-visible
// error while the replicas still verify byte-identical.
type ReplConfig struct {
	// Replicas are the physical leg's replica counts per cell.
	Replicas []int `json:"replicas"`
	// Widths are the apply-parallelism fan-outs; the apply counters must
	// be bit-identical across them.
	Widths []int `json:"widths"`
	// RunFor is the primary's virtual run length per cell.
	RunFor time.Duration `json:"run_for_ns"`
	// Seed fixes the workload.
	Seed int64 `json:"seed"`

	// ClusterReplicas are the cluster leg's replica counts (0 = plain
	// primary-only baseline).
	ClusterReplicas []int `json:"cluster_replicas"`
	// ClusterRows seeds the read table; ClusterReads is the total number
	// of routed SELECTs per rung.
	ClusterRows  int `json:"cluster_rows"`
	ClusterReads int `json:"cluster_reads"`
	// ClusterClients is the number of concurrent readers.
	ClusterClients int `json:"cluster_clients"`
}

// DefaultReplConfig covers replicas 1–4 at widths 1–8, faulted and not.
func DefaultReplConfig() ReplConfig {
	return ReplConfig{
		Replicas:        []int{1, 2, 4},
		Widths:          []int{1, 2, 4, 8},
		RunFor:          600 * time.Millisecond,
		Seed:            11,
		ClusterReplicas: []int{0, 1, 2},
		ClusterRows:     4000,
		ClusterReads:    400,
		ClusterClients:  4,
	}
}

// ReplPhysRow is one (replica count, fault plan) cell of the physical
// leg, aggregated across widths.
type ReplPhysRow struct {
	Replicas  int    `json:"replicas"`
	Faults    string `json:"faults"`
	Committed int64  `json:"committed"`
	// Records is the per-replica record stream length (width 1).
	Records int64 `json:"records"`
	// StalenessP50/P99 are LSN-lag percentiles over all deliveries.
	StalenessP50 int64 `json:"staleness_p50"`
	StalenessP99 int64 `json:"staleness_p99"`
	// Identical: every replica at every width matched the committed
	// prefix byte-for-byte, mid-run and finally.
	Identical bool `json:"identical"`
	// CountersIdentical: the apply counters were bit-identical across
	// widths for every replica.
	CountersIdentical bool `json:"counters_identical"`
}

// ReplClusterRow is one rung of the cluster read-scaling leg. Where the
// reads were routed is a function of the config; how fast they ran is a
// measurement of the host, so Wall is stdout only and BENCH_repl.json
// reproduces byte for byte.
type ReplClusterRow struct {
	Replicas     int    `json:"replicas"`
	Reads        int    `json:"reads"`
	ReplicaReads uint64 `json:"replica_reads"`
	PrimaryReads uint64 `json:"primary_reads"`
	Fallbacks    uint64 `json:"fallbacks"`
	// Verified: the replicas were byte-identical to the primary's
	// shipped relations after the run.
	Verified bool `json:"verified"`

	Wall time.Duration `json:"-"`
}

// ReplResult is the full ladder report. AllHold is the acceptance
// verdict the bench harness turns into a non-zero exit.
type ReplResult struct {
	Config      ReplConfig       `json:"config"`
	PhysRows    []ReplPhysRow    `json:"physical_rows"`
	ClusterRows []ReplClusterRow `json:"cluster_rows"`

	// StallFallbacks / StallVerified report the stalled-link rung:
	// bounded-staleness reads fell back to the primary (no errors) and
	// the stalled replica still converged byte-identically.
	StallFallbacks uint64 `json:"stall_fallbacks"`
	StallVerified  bool   `json:"stall_verified"`

	PhysIdentical     bool `json:"phys_identical"`
	CountersIdentical bool `json:"counters_identical"`
	ClusterVerified   bool `json:"cluster_verified"`
	AllHold           bool `json:"all_invariants_hold"`
}

// replFaultPlan is one fault discipline on the physical ladder.
type replFaultPlan struct {
	name string
	inj  func() *fault.Injector // nil = no injector
}

func replFaultPlans() []replFaultPlan {
	return []replFaultPlan{
		{name: "none", inj: nil},
		{name: "stall+transient", inj: func() *fault.Injector {
			return fault.NewInjector(5).
				StallEvery("repl/ship/r0", 3, 8).
				TransientEvery("repl/ship/r1", 4)
		}},
	}
}

// replPrimary builds one physical-leg primary: the repl package's test
// engine shape — truncation active so the replication slots are load-
// bearing, stable memory so the durable horizon tracks the tip.
func replPrimary(cfg ReplConfig) (*event.Sim, *txn.Engine, error) {
	tc := segmentedStableConfig(cfg.Seed, 512, 8)
	tc.AbortEvery = 7
	tc.TruncateLog = true
	sim := &event.Sim{}
	e, err := txn.New(sim, tc)
	return sim, e, err
}

// runReplPhysCell runs one (replicas, faults) cell at every width and
// checks the determinism oracle inside it.
func runReplPhysCell(cfg ReplConfig, nReplicas int, plan replFaultPlan) (ReplPhysRow, error) {
	row := ReplPhysRow{Replicas: nReplicas, Faults: plan.name, Identical: true, CountersIdentical: true}
	type snap struct {
		st *store.Store
		at wal.LSN
	}
	var baseline []cost.Counters
	var lags []int64
	for wi, width := range cfg.Widths {
		sim, e, err := replPrimary(cfg)
		if err != nil {
			return row, err
		}
		shCfg := repl.Config{Sim: sim, Log: e.Log(), Parallelism: width}
		if plan.inj != nil {
			shCfg.Injector = plan.inj()
		}
		sh, err := repl.NewShipper(shCfg)
		if err != nil {
			return row, err
		}
		prim := e.Store()
		var reps []*repl.Replica
		for i := 0; i < nReplicas; i++ {
			st, err := store.New(prim.NumRecords(), prim.RecordSize(), prim.RecordsPerPage())
			if err != nil {
				return row, err
			}
			reps = append(reps, sh.AddReplica(fmt.Sprintf("r%d", i), st))
		}
		var snaps []snap
		sim.At(cfg.RunFor/2, func() {
			for _, r := range reps {
				st, at := r.Snapshot()
				snaps = append(snaps, snap{st, at})
			}
		})
		st := e.Run(cfg.RunFor)
		row.Committed = st.Committed
		if !sh.CatchUp() {
			return row, fmt.Errorf("repl: %d replicas, %s, width %d: catch-up failed", nReplicas, plan.name, width)
		}
		recs, _ := e.Log().DurableRecords(sim.Now())
		check := func(s *store.Store, at wal.LSN) error {
			ref, err := repl.ReferencePrefix(recs, at, prim.NumRecords(), prim.RecordSize(), prim.RecordsPerPage())
			if err != nil {
				return err
			}
			if !s.Equal(ref) {
				row.Identical = false
			}
			return nil
		}
		for _, s := range snaps {
			if err := check(s.st, s.at); err != nil {
				return row, err
			}
		}
		for ri, r := range reps {
			if err := check(r.Store(), r.AppliedLSN()); err != nil {
				return row, err
			}
			if !r.Store().Equal(e.Store()) {
				row.Identical = false
			}
			if wi == 0 {
				baseline = append(baseline, r.ApplyCounters())
				row.Records = r.Stats().Records
				lags = append(lags, r.LagSamples()...)
			} else if ri < len(baseline) && r.ApplyCounters() != baseline[ri] {
				row.CountersIdentical = false
			}
		}
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if n := len(lags); n > 0 {
		row.StalenessP50 = lags[n/2]
		row.StalenessP99 = lags[n*99/100]
	}
	return row, nil
}

// runReplClusterRung measures one read-scaling rung: seed, wait for
// catch-up, then hammer NearestReplica SELECTs from several goroutines.
func runReplClusterRung(cfg ReplConfig, nReplicas int) (ReplClusterRow, error) {
	row := ReplClusterRow{Replicas: nReplicas, Reads: cfg.ClusterReads}
	opts := mmdb.Options{MemoryPages: 128, MaxConcurrentQueries: cfg.ClusterClients}
	cluster, err := mmdb.OpenCluster(opts, nReplicas)
	if err != nil {
		return row, err
	}
	defer cluster.Close()
	if err := seedReplTable(cluster.Primary(), cfg.ClusterRows); err != nil {
		return row, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cluster.WaitCaughtUp(ctx); err != nil {
		return row, err
	}

	const q = "SELECT dept, COUNT(*) FROM accounts GROUP BY dept ORDER BY dept"
	pref := mmdb.WithReadPreference(mmdb.NearestReplica())
	perClient := cfg.ClusterReads / cfg.ClusterClients
	start := time.Now()
	err = fanOut(cfg.ClusterClients, func(int) error {
		for i := 0; i < perClient; i++ {
			if _, err := cluster.Query(q, pref); err != nil {
				return err
			}
		}
		return nil
	})
	row.Wall = time.Since(start)
	if err != nil {
		return row, fmt.Errorf("repl cluster (%d replicas): %w", nReplicas, err)
	}
	m := cluster.Metrics()
	row.ReplicaReads = m.ReplicaReads
	row.PrimaryReads = m.PrimaryReads
	row.Fallbacks = m.Fallbacks
	row.Verified = cluster.VerifyReplicas() == nil
	return row, nil
}

// seedReplTable loads the cluster leg's read table through the primary.
func seedReplTable(db *mmdb.Database, rows int) error {
	return loadRelation(db, "accounts", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "balance", Kind: mmdb.Int64},
	), rows, func(i int) []mmdb.Value {
		return []mmdb.Value{mmdb.IntValue(int64(i + 1)), mmdb.IntValue(int64(i % 16)), mmdb.IntValue(int64(1000 + i))}
	})
}

// runReplStallRung checks graceful degradation: with every shipment to
// the only replica stalled, bounded-staleness reads must fall back to
// the primary without surfacing an error, and once the stream drains the
// replica must still verify byte-identical.
func runReplStallRung(cfg ReplConfig, res *ReplResult) error {
	cluster, err := mmdb.OpenCluster(mmdb.Options{MemoryPages: 128, MaxConcurrentQueries: 2}, 1)
	if err != nil {
		return err
	}
	defer cluster.Close()
	cluster.ArmShipFaults(mmdb.NewFaultInjector(7).StallEvery("repl/ship/r0", 1, 20))
	if err := seedReplTable(cluster.Primary(), cfg.ClusterRows/4); err != nil {
		return err
	}
	// Fresh reads demand zero staleness while the applier is stalled:
	// every one must route to the primary and succeed.
	pref := mmdb.WithReadPreference(mmdb.BoundedStaleness(0))
	for i := 0; i < 20; i++ {
		if _, err := cluster.Query("SELECT COUNT(*) FROM accounts", pref); err != nil {
			return fmt.Errorf("repl stall rung: bounded read errored: %w", err)
		}
	}
	res.StallFallbacks = cluster.Metrics().Fallbacks
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cluster.WaitCaughtUp(ctx); err != nil {
		return err
	}
	res.StallVerified = cluster.VerifyReplicas() == nil
	return nil
}

// RunRepl runs the full replication ladder.
func RunRepl(cfg ReplConfig) (*ReplResult, error) {
	if len(cfg.Replicas) == 0 || len(cfg.Widths) == 0 {
		return nil, fmt.Errorf("repl: need ≥1 replica count and ≥1 width")
	}
	res := &ReplResult{Config: cfg, PhysIdentical: true, CountersIdentical: true, ClusterVerified: true}
	for _, nr := range cfg.Replicas {
		for _, plan := range replFaultPlans() {
			row, err := runReplPhysCell(cfg, nr, plan)
			if err != nil {
				return nil, err
			}
			res.PhysRows = append(res.PhysRows, row)
			if !row.Identical {
				res.PhysIdentical = false
			}
			if !row.CountersIdentical {
				res.CountersIdentical = false
			}
		}
	}
	for _, nr := range cfg.ClusterReplicas {
		row, err := runReplClusterRung(cfg, nr)
		if err != nil {
			return nil, err
		}
		res.ClusterRows = append(res.ClusterRows, row)
		if !row.Verified {
			res.ClusterVerified = false
		}
		if nr > 0 && row.ReplicaReads == 0 {
			res.ClusterVerified = false
		}
	}
	if err := runReplStallRung(cfg, res); err != nil {
		return nil, err
	}
	res.AllHold = res.PhysIdentical && res.CountersIdentical && res.ClusterVerified &&
		res.StallVerified && res.StallFallbacks > 0
	return res, nil
}

// Print renders the ladder.
func (r *ReplResult) Print(w io.Writer) {
	fmt.Fprintln(w, "LSN-shipping replication — byte-identity oracle and read scale-out")
	fmt.Fprintf(w, "  physical leg: widths %v apply each stream; stores must equal the committed prefix\n\n", r.Config.Widths)
	fmt.Fprintf(w, "  %-9s %-16s %10s %8s %8s %8s %10s %9s\n",
		"replicas", "faults", "committed", "records", "lag p50", "lag p99", "identical", "counters")
	for _, row := range r.PhysRows {
		fmt.Fprintf(w, "  %-9d %-16s %10d %8d %8d %8d %10v %9v\n",
			row.Replicas, row.Faults, row.Committed, row.Records,
			row.StalenessP50, row.StalenessP99, row.Identical, row.CountersIdentical)
	}
	fmt.Fprintf(w, "\n  cluster leg: %d nearest-replica reads over %s clients\n", r.Config.ClusterReads, wide(r.Config.ClusterClients))
	fmt.Fprint(w, "  ") // this report is indented throughout
	printHost(w)
	fmt.Fprintf(w, "\n  %-9s %9s %9s %9s %10s %12s %9s\n",
		"replicas", "replica", "primary", "fallback", "wall", "reads/s", "verified")
	for _, row := range r.ClusterRows {
		fmt.Fprintf(w, "  %-9d %9d %9d %9d %10s %12.0f %9v\n",
			row.Replicas, row.ReplicaReads, row.PrimaryReads, row.Fallbacks,
			row.Wall.Round(time.Millisecond), float64(row.Reads)/row.Wall.Seconds(), row.Verified)
	}
	fmt.Fprintf(w, "\n  stalled link: %d bounded reads fell back to the primary, 0 errors; replica verified after drain: %v\n",
		r.StallFallbacks, r.StallVerified)
	fmt.Fprintf(w, "  replica ≡ committed prefix at every width: %v\n", r.PhysIdentical)
	fmt.Fprintf(w, "  apply counters identical across widths: %v\n", r.CountersIdentical)
	fmt.Fprintf(w, "  cluster replicas verified byte-identical: %v\n", r.ClusterVerified)
	fmt.Fprintf(w, "  ALL INVARIANTS HOLD: %v\n", r.AllHold)
}

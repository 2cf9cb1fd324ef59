package experiments

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"mmdb"
)

// FailoverConfig drives the promotion/failover chaos ladder: a seeded
// grid of kill-points × replica counts × writer widths. Each cell runs
// concurrent writers against a cluster, springs one failure scenario on
// it mid-run, and checks the §5 contract lifted to the cluster: every
// acknowledged write is in the surviving committed prefix. Zero-loss
// scenarios (planned promotion, crash failover with the WAL tail
// retained) must lose nothing; the lost-WAL scenario must lose exactly
// what it admits to, as a typed LostTailError.
type FailoverConfig struct {
	// Replicas are the cluster sizes per cell.
	Replicas []int `json:"replicas"`
	// Widths are the concurrent writer counts. The total row budget is
	// fixed per rung and strided across writers, so the final acked set —
	// and therefore the canonical state hash — must be bit-identical
	// across widths.
	Widths []int `json:"widths"`
	// Rows is the total insert budget per cell (all writers combined).
	Rows int `json:"rows"`
	// Seed fixes the fault schedules.
	Seed int64 `json:"seed"`
}

// DefaultFailoverConfig covers replicas 1–2 at widths 1–4.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{
		Replicas: []int{1, 2},
		Widths:   []int{1, 2, 4},
		Rows:     240,
		Seed:     17,
	}
}

// failoverScenarios names the ladder's kill-points.
var failoverScenarios = []string{
	"promote",          // planned switchover under concurrent writers
	"promote-abort",    // promotion to a stalled replica times out, fence lifts, retry succeeds
	"failover-live",    // primary dies mid-statement, links live: survivor drains
	"failover-stalled", // primary dies with a stalled link: expedited drain
	"failover-severed", // primary dies with every link severed: the survivor resumes from the log
	"wallost",          // primary and its WAL die: typed LostTailError, prefix survives
}

// FailoverRow is one (scenario, replicas, width) cell.
type FailoverRow struct {
	Scenario string `json:"scenario"`
	Replicas int    `json:"replicas"`
	Width    int    `json:"width"`

	Acked         uint64 `json:"acked"`       // rows the writers were acknowledged
	AckedLSN      uint64 `json:"acked_lsn"`   // failover report: last acked op
	SettledLSN    uint64 `json:"settled_lsn"` // failover report: survivor's horizon
	TailRecovered uint64 `json:"tail_recovered"`
	TailLost      uint64 `json:"tail_lost"`
	Epoch         uint64 `json:"epoch"` // cluster epoch after the cell

	// ZeroLoss: every acked row is on the new primary (for wallost: the
	// surviving prefix is exactly the settled ops, nothing foreign).
	ZeroLoss bool `json:"zero_loss"`
	// Verified: after rejoin and catch-up, every replica is
	// byte-identical to the new primary.
	Verified bool `json:"verified"`
	// StateHash fingerprints the new primary's canonical state (sorted
	// acked ids); it must be identical across widths for zero-loss
	// scenarios.
	StateHash uint64 `json:"state_hash"`
}

// FailoverResult is the full ladder report. AllHold is the acceptance
// verdict the bench harness turns into a non-zero exit.
type FailoverResult struct {
	Config FailoverConfig `json:"config"`
	Rows   []FailoverRow  `json:"rows"`

	ZeroLossHold   bool `json:"zero_loss_holds"`
	VerifiedHold   bool `json:"verified_holds"`
	StateIdentical bool `json:"state_identical_across_widths"`
	// LostTyped: the wallost rungs surfaced their dropped tail as a
	// *mmdb.LostTailError whose Lost() matched the report.
	LostTyped bool `json:"lost_tail_typed"`
	AllHold   bool `json:"all_invariants_hold"`
}

// runFailoverWriters fans cfg.Rows inserts across width writers (writer
// w inserts ids w+1, w+1+width, ...), each retrying NOT_PRIMARY
// refusals against the cluster's current primary — the in-process
// analogue of the sqlclient reconnect loop. A refused write was never
// acknowledged, so the retry is idempotent by construction. Returns the
// total acked count.
func runFailoverWriters(ctx context.Context, cluster *mmdb.Cluster, rows, width int) (uint64, error) {
	var acked atomic.Uint64
	err := fanOut(width, func(w int) error {
		for id := w + 1; id <= rows; id += width {
			for {
				db := cluster.Primary()
				rel, err := db.Relation("acct")
				if err == nil {
					err = rel.Insert(mmdb.IntValue(int64(id)), mmdb.IntValue(int64(id*7)))
				}
				if err == nil {
					acked.Add(1)
					break
				}
				if !errors.Is(err, mmdb.ErrNotPrimary) {
					return fmt.Errorf("writer %d id %d: %w", w, id, err)
				}
				// Demoted under us mid-run: back off briefly and retry
				// against whoever is primary by then.
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(200 * time.Microsecond):
				}
			}
		}
		return nil
	})
	return acked.Load(), err
}

// awaitLSN blocks until the cluster LSN reaches at least n — the
// mid-run trigger for springing a kill-point while writers are active.
func awaitLSN(ctx context.Context, cluster *mmdb.Cluster, n uint64) error {
	for cluster.LSN() < n {
		select {
		case <-ctx.Done():
			return fmt.Errorf("failover: waiting for LSN %d (at %d): %w", n, cluster.LSN(), ctx.Err())
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// awaitBroken blocks until every replica link has hit its injected
// permanent fault. The severed scenarios need the links actually dead
// before the primary "dies": a survivor whose link still buffers the
// tail would legitimately drain it, and the rung would be vacuous.
func awaitBroken(ctx context.Context, cluster *mmdb.Cluster) error {
	for {
		broken := 0
		m := cluster.Metrics()
		for _, r := range m.Replicas {
			if r.Broken {
				broken++
			}
		}
		if broken == len(m.Replicas) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("failover: waiting for severed links (%d/%d broken): %w",
				broken, len(m.Replicas), ctx.Err())
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// failoverStateHash fingerprints the primary's canonical state: the
// sorted id set of the acct relation. Insert interleaving differs per
// run, so storage order is not comparable — the sorted set is.
func failoverStateHash(db *mmdb.Database) (uint64, int, error) {
	rel, err := db.Relation("acct")
	if err != nil {
		return 0, 0, err
	}
	schema := rel.Schema()
	var ids []int64
	if err := rel.Scan(func(t mmdb.Tuple) bool {
		ids = append(ids, schema.Get(t, 0).I)
		return true
	}); err != nil {
		return 0, 0, err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := fnv.New64a()
	for _, id := range ids {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(id)))
	}
	return h.Sum64(), len(ids), nil
}

// runFailoverCell runs one (scenario, replicas, width) cell.
func runFailoverCell(cfg FailoverConfig, scenario string, nReplicas, width int) (FailoverRow, error) {
	row := FailoverRow{Scenario: scenario, Replicas: nReplicas, Width: width}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cluster, err := mmdb.OpenCluster(mmdb.Options{MemoryPages: 64, MaxConcurrentQueries: width + 1}, nReplicas)
	if err != nil {
		return row, err
	}
	defer cluster.Close()
	if _, err := cluster.Primary().CreateRelation("acct", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "val", Kind: mmdb.Int64},
	)); err != nil {
		return row, err
	}

	// The kill-point fires after roughly a quarter of the inserts have
	// shipped (always past the CREATE, so schema ops are never in the
	// losable tail of these rungs).
	trigger := uint64(1 + cfg.Rows/4)
	var report *mmdb.FailoverReport
	var lost *mmdb.LostTailError

	switch scenario {
	case "promote-abort":
		// Stall the target's link from the start so it genuinely lags at
		// the trigger and the short-deadline promotion barrier must fail.
		cluster.ArmShipFaults(mmdb.NewFaultInjector(cfg.Seed).StallEvery("repl/ship/r0", 1, 50))
	case "failover-stalled":
		cluster.ArmShipFaults(mmdb.NewFaultInjector(cfg.Seed).StallEvery("repl/ship/r0", 1, 20))
	case "failover-severed", "wallost":
		cluster.ArmShipFaults(mmdb.NewFaultInjector(cfg.Seed).PermanentAfter("repl/ship", int64(trigger)))
	}

	if scenario == "wallost" {
		// Total primary loss is modeled on a quiesced workload: the
		// writers finish (everything acked), the links died mid-stream,
		// and then the primary and its WAL evaporate.
		acked, err := runFailoverWriters(ctx, cluster, cfg.Rows, width)
		if err != nil {
			return row, err
		}
		row.Acked = acked
		if err := awaitBroken(ctx, cluster); err != nil {
			return row, err
		}
		report, err = cluster.FailoverLostWAL(ctx)
		if !errors.As(err, &lost) {
			return row, fmt.Errorf("wallost: want *LostTailError, got %v", err)
		}
	} else {
		// Concurrent kill-point: spring the switch mid-statement while
		// the writers hammer.
		switchErr := make(chan error, 1)
		go func() {
			if err := awaitLSN(ctx, cluster, trigger); err != nil {
				switchErr <- err
				return
			}
			switch scenario {
			case "promote":
				switchErr <- cluster.Promote(ctx, 0)
			case "promote-abort":
				// The target's link has been stalled since the start; the
				// catch-up barrier cannot complete in time, and the failed
				// promotion must lift the fence.
				shortCtx, shortCancel := context.WithTimeout(ctx, 2*time.Millisecond)
				err := cluster.Promote(shortCtx, 0)
				shortCancel()
				if err == nil {
					switchErr <- fmt.Errorf("promote-abort: promotion to a stalled replica succeeded in 2ms")
					return
				}
				cluster.ArmShipFaults(nil)
				switchErr <- cluster.Promote(ctx, 0)
			case "failover-live", "failover-stalled", "failover-severed":
				if scenario == "failover-severed" {
					// Only declare the primary dead once the links are: a
					// live link would drain instead of forcing the resume
					// of a severed survivor this rung exists to test.
					if err := awaitBroken(ctx, cluster); err != nil {
						switchErr <- err
						return
					}
				}
				var err error
				report, err = cluster.Failover(ctx)
				switchErr <- err
			default:
				switchErr <- fmt.Errorf("unknown scenario %q", scenario)
			}
		}()
		acked, err := runFailoverWriters(ctx, cluster, cfg.Rows, width)
		if err != nil {
			return row, err
		}
		row.Acked = acked
		if err := <-switchErr; err != nil {
			return row, fmt.Errorf("%s: %w", scenario, err)
		}
	}
	if report != nil {
		row.AckedLSN = report.AckedLSN
		row.SettledLSN = report.SettledLSN
		row.TailRecovered = report.TailRecovered
		row.TailLost = report.TailLost
	}

	// Bring the demoted primary back as a replica, then prove the whole
	// cluster byte-identical again.
	if cluster.DownNode() != "" {
		if err := cluster.Rejoin(ctx); err != nil {
			return row, fmt.Errorf("%s: %w", scenario, err)
		}
	}
	// Prove the new primary is live: a post-switch write must ship to
	// everyone (and, after wallost, start the new epoch's history).
	rel, err := cluster.Primary().Relation("acct")
	if err != nil {
		return row, err
	}
	if err := rel.Insert(mmdb.IntValue(int64(cfg.Rows+1)), mmdb.IntValue(0)); err != nil {
		return row, fmt.Errorf("%s: post-switch write: %w", scenario, err)
	}
	if err := cluster.WaitCaughtUp(ctx); err != nil {
		return row, err
	}
	row.Verified = cluster.VerifyReplicas() == nil
	row.Epoch = cluster.Epoch()

	hash, n, err := failoverStateHash(cluster.Primary())
	if err != nil {
		return row, err
	}
	row.StateHash = hash
	surviving := uint64(n - 1) // minus the post-switch liveness row
	if scenario == "wallost" {
		// The honest-loss oracle: the survivor kept exactly the settled
		// prefix (CREATE + inserts), the typed error admits exactly the
		// difference, and nothing foreign appeared.
		row.ZeroLoss = lost != nil &&
			surviving == row.SettledLSN-1 && // ops minus the CREATE
			lost.Lost() == row.AckedLSN-row.SettledLSN &&
			surviving <= row.Acked
	} else {
		// The zero-loss oracle: acked ⊆ surviving committed prefix — and
		// since writers retried to completion, acked = everything.
		row.ZeroLoss = surviving == row.Acked && row.Acked == uint64(cfg.Rows)
	}
	return row, nil
}

// RunFailover runs the full promotion/failover chaos ladder.
func RunFailover(cfg FailoverConfig) (*FailoverResult, error) {
	if len(cfg.Replicas) == 0 || len(cfg.Widths) == 0 || cfg.Rows < 8 {
		return nil, fmt.Errorf("failover: need ≥1 replica count, ≥1 width, ≥8 rows")
	}
	res := &FailoverResult{Config: cfg, ZeroLossHold: true, VerifiedHold: true, StateIdentical: true, LostTyped: true}
	for _, scenario := range failoverScenarios {
		for _, nr := range cfg.Replicas {
			var baseHash uint64
			for wi, width := range cfg.Widths {
				row, err := runFailoverCell(cfg, scenario, nr, width)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, row)
				if !row.ZeroLoss {
					res.ZeroLossHold = false
				}
				if !row.Verified {
					res.VerifiedHold = false
				}
				if scenario == "wallost" {
					if row.TailLost == 0 || row.TailLost != row.AckedLSN-row.SettledLSN {
						res.LostTyped = false
					}
					continue // surviving prefix depends on interleaving
				}
				if wi == 0 {
					baseHash = row.StateHash
				} else if row.StateHash != baseHash {
					res.StateIdentical = false
				}
			}
		}
	}
	res.AllHold = res.ZeroLossHold && res.VerifiedHold && res.StateIdentical && res.LostTyped
	return res, nil
}

// Print renders the ladder.
func (r *FailoverResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Replica promotion & failover — zero acked-write loss across kill-points")
	fmt.Fprintf(w, "  %d rows per cell, strided across writers; kill-point fires mid-run\n\n", r.Config.Rows)
	fmt.Fprintf(w, "  %-17s %-8s %-6s %7s %7s %7s %9s %6s %6s %9s %9s\n",
		"scenario", "replicas", "width", "acked", "settled", "ackLSN", "recovered", "lost", "epoch", "zero-loss", "verified")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-17s %-8d %-6d %7d %7d %7d %9d %6d %6d %9v %9v\n",
			row.Scenario, row.Replicas, row.Width, row.Acked, row.SettledLSN, row.AckedLSN,
			row.TailRecovered, row.TailLost, row.Epoch, row.ZeroLoss, row.Verified)
	}
	fmt.Fprintf(w, "\n  acked ⊆ surviving committed prefix at every kill-point: %v\n", r.ZeroLossHold)
	fmt.Fprintf(w, "  replicas byte-identical after rejoin and catch-up: %v\n", r.VerifiedHold)
	fmt.Fprintf(w, "  state hash identical across widths: %v\n", r.StateIdentical)
	fmt.Fprintf(w, "  lost tail surfaced as typed LostTailError: %v\n", r.LostTyped)
	fmt.Fprintf(w, "  ALL INVARIANTS HOLD: %v\n", r.AllHold)
}

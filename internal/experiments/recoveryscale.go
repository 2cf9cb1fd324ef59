package experiments

import (
	"fmt"
	"io"
	"time"

	"mmdb/internal/event"
	"mmdb/internal/recovery"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// RecoveryScaleConfig drives the recovery-time-vs-log-length ladder: the
// same seeded workload run for increasing lengths (so the committed count
// grows ~10× bottom to top), crashed just before the end, and replayed
// at several widths.
type RecoveryScaleConfig struct {
	// RunFors are the rung lengths; the crash lands 1 ms before each end.
	RunFors []time.Duration `json:"run_fors_ns"`
	// Widths are the replay fan-outs each crash is replayed at; the cost
	// counters must be bit-identical across them.
	Widths []int `json:"widths"`
	// Seed fixes the workload.
	Seed int64 `json:"seed"`
}

// DefaultRecoveryScaleConfig spans a 10× committed-count spread.
func DefaultRecoveryScaleConfig() RecoveryScaleConfig {
	return RecoveryScaleConfig{
		RunFors: []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 6 * time.Second},
		Widths:  []int{1, 2, 4, 8},
		Seed:    11,
	}
}

// scaleVariant is one log-management discipline on the ladder.
type scaleVariant struct {
	name       string
	checkpoint bool // §5.3 background sweep advancing the redo bound
	truncate   bool // delete whole segments below the commit.meta horizon
	compact    bool // §5.6 background compaction of cold segments
}

var scaleVariants = []scaleVariant{
	{name: "baseline", checkpoint: false, truncate: false, compact: false},
	{name: "ckpt+truncate", checkpoint: true, truncate: true, compact: false},
	{name: "ckpt+truncate+compact", checkpoint: true, truncate: true, compact: true},
}

// RecoveryScaleRow is one (variant, run length) cell.
type RecoveryScaleRow struct {
	Config          string        `json:"config"`
	RunFor          time.Duration `json:"run_for_ns"`
	Committed       int64         `json:"committed"`
	LogScanned      int           `json:"log_scanned"`
	SegmentsScanned int           `json:"segments_scanned"`
	SegmentsSkipped int           `json:"segments_skipped"`
	CompactedBytes  int64         `json:"compacted_bytes"`
	// RecoveryVirtual is the replay's virtual time — identical at every
	// width, recorded once.
	RecoveryVirtual time.Duration `json:"recovery_virtual_ns"`
	// WidthsIdentical: the replay cost counters, virtual time, and work
	// counts were bit-identical at every configured width.
	WidthsIdentical bool `json:"widths_identical"`
}

// RecoveryScaleResult is the full ladder report plus the acceptance
// verdict: committed work grows ~10×, the no-reclamation baseline's
// recovery time grows with it, the checkpoint+truncate+compact config
// stays flat (max/min ≤ 1.10), and no width ever drifts a counter.
type RecoveryScaleResult struct {
	Config RecoveryScaleConfig `json:"config"`
	Rows   []RecoveryScaleRow  `json:"rows"`

	CommittedGrowth float64 `json:"committed_growth"` // top rung / bottom rung, compacted config
	BaselineGrowth  float64 `json:"baseline_growth"`  // recovery-time ratio, baseline config
	CompactedSpread float64 `json:"compacted_spread"` // max/min recovery time, compacted config
	BaselineGrows   bool    `json:"baseline_grows"`
	CompactedFlat   bool    `json:"compacted_flat"`
	WidthsIdentical bool    `json:"widths_identical"`
	AllHold         bool    `json:"all_invariants_hold"`
}

// segmentedStableConfig is the §5.4 engine shape the recovery-scale and
// replication ladders share: a uniform debit/credit workload on a
// segmented stable-memory log. Stable memory matters: commits are durable
// on append, so the checkpointer's WAL-rule wait is zero and the durable
// horizon tracks the tip. Truncation, where a ladder turns it on, runs
// every 8 commits to keep the reclaimable backlog (and with it the
// rung-to-rung variance of the scanned window) small.
func segmentedStableConfig(seed int64, accounts, terminals int) txn.Config {
	return txn.Config{
		Accounts:       accounts,
		Terminals:      terminals,
		UpdatesPerTxn:  3,
		RecordsPerPage: 64,
		Seed:           seed,
		TruncateEvery:  8,
		Log: wal.Config{
			Policy:       wal.StableMemory,
			Devices:      []*wal.Device{wal.NewDevice("log0", 10*time.Millisecond)},
			PageSize:     4096,
			SegmentPages: 2,
		},
	}
}

// scaleEngine builds one rung's engine, sized so the checkpoint sweep's
// steady-state lag — not the total history — bounds what recovery must
// scan.
func scaleEngine(cfg RecoveryScaleConfig, v scaleVariant) (*event.Sim, *txn.Engine, error) {
	tc := segmentedStableConfig(cfg.Seed, 2048, 20)
	tc.TruncateLog = v.truncate
	tc.Log.CompactSegments = v.compact
	if v.checkpoint {
		tc.Checkpoint = true
		tc.DataDevice = wal.NewDevice("data", 10*time.Millisecond)
	}
	sim := &event.Sim{}
	e, err := txn.New(sim, tc)
	return sim, e, err
}

// runScaleCell runs one rung to runFor, crashes 1 ms short of it, and
// replays the captured crash at every width.
func runScaleCell(cfg RecoveryScaleConfig, v scaleVariant, runFor time.Duration) (RecoveryScaleRow, error) {
	row := RecoveryScaleRow{Config: v.name, RunFor: runFor}
	sim, e, err := scaleEngine(cfg, v)
	if err != nil {
		return row, err
	}
	in, st := crashRun(sim, e, runFor-time.Millisecond, runFor)
	row.Committed = st.Committed

	row.WidthsIdentical = true
	var base recovery.Info
	for i, w := range cfg.Widths {
		run := in
		run.Parallelism = w
		_, info, err := recovery.Recover(run)
		if err != nil {
			return row, fmt.Errorf("recovery scale (%s, %v, width %d): %w", v.name, runFor, w, err)
		}
		if i == 0 {
			base = info
			row.LogScanned = info.LogScanned
			row.SegmentsScanned = info.SegmentsScanned
			row.SegmentsSkipped = info.SegmentsSkipped
			row.CompactedBytes = info.CompactedBytes
			row.RecoveryVirtual = info.Virtual
			continue
		}
		if info.Counters != base.Counters || info.Virtual != base.Virtual ||
			info.Redone != base.Redone || info.Undone != base.Undone ||
			info.SegmentsScanned != base.SegmentsScanned ||
			info.SegmentsSkipped != base.SegmentsSkipped {
			row.WidthsIdentical = false
		}
	}
	return row, nil
}

// RunRecoveryScale runs the ladder: every variant at every run length.
func RunRecoveryScale(cfg RecoveryScaleConfig) (*RecoveryScaleResult, error) {
	if len(cfg.RunFors) < 2 || len(cfg.Widths) == 0 {
		return nil, fmt.Errorf("recovery scale: need ≥2 run lengths and ≥1 width")
	}
	res := &RecoveryScaleResult{Config: cfg, WidthsIdentical: true}
	cells := make(map[string][]RecoveryScaleRow)
	for _, v := range scaleVariants {
		for _, runFor := range cfg.RunFors {
			row, err := runScaleCell(cfg, v, runFor)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
			cells[v.name] = append(cells[v.name], row)
			if !row.WidthsIdentical {
				res.WidthsIdentical = false
			}
		}
	}

	baseline := cells["baseline"]
	compacted := cells["ckpt+truncate+compact"]
	first, last := compacted[0], compacted[len(compacted)-1]
	if first.Committed > 0 {
		res.CommittedGrowth = float64(last.Committed) / float64(first.Committed)
	}
	if baseline[0].RecoveryVirtual > 0 {
		res.BaselineGrowth = float64(baseline[len(baseline)-1].RecoveryVirtual) / float64(baseline[0].RecoveryVirtual)
	}
	lo, hi := compacted[0].RecoveryVirtual, compacted[0].RecoveryVirtual
	for _, row := range compacted {
		lo, hi = min(lo, row.RecoveryVirtual), max(hi, row.RecoveryVirtual)
	}
	if lo > 0 {
		res.CompactedSpread = float64(hi) / float64(lo)
	}
	// The bars: committed work really spread ~10×, the baseline's recovery
	// cost follows the log, the reclaiming config's does not.
	res.BaselineGrows = res.BaselineGrowth >= 2
	res.CompactedFlat = res.CompactedSpread > 0 && res.CompactedSpread <= 1.10
	res.AllHold = res.WidthsIdentical && res.BaselineGrows && res.CompactedFlat &&
		res.CommittedGrowth >= 8
	return res, nil
}

// Print renders the ladder.
func (r *RecoveryScaleResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Recovery time vs log length — segmented log, parallel replay (§5.5–5.6)")
	fmt.Fprintf(w, "  widths %v replay each crash; counters must be bit-identical across them\n\n", r.Config.Widths)
	fmt.Fprintf(w, "  %-22s %7s %10s %8s %8s %8s %10s %10s %6s\n",
		"config", "run", "committed", "scanned", "skipped", "records", "compacted", "recovery", "widths")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-22s %7s %10d %8d %8d %8d %10d %10s %6v\n",
			row.Config, row.RunFor, row.Committed, row.SegmentsScanned, row.SegmentsSkipped,
			row.LogScanned, row.CompactedBytes, row.RecoveryVirtual, row.WidthsIdentical)
	}
	fmt.Fprintf(w, "\n  committed growth (bottom→top rung): %.1f×\n", r.CommittedGrowth)
	fmt.Fprintf(w, "  baseline recovery growth: %.2f× (must grow: %v)\n", r.BaselineGrowth, r.BaselineGrows)
	fmt.Fprintf(w, "  ckpt+truncate+compact spread: %.3f (flat ≤1.10: %v)\n", r.CompactedSpread, r.CompactedFlat)
	fmt.Fprintf(w, "  replay counters identical across widths: %v\n", r.WidthsIdentical)
	fmt.Fprintf(w, "  ALL INVARIANTS HOLD: %v\n", r.AllHold)
}

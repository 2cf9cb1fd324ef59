package experiments

import (
	"fmt"
	"time"

	"mmdb/internal/event"
	"mmdb/internal/recovery"
	"mmdb/internal/seglog"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// ChaosSegRow is one crash aimed at a segment-directory write: the engine
// is run once to discover when the interesting writes happen (segment
// rotations, commit.meta slot rewrites, compaction installs), then re-run
// with a crash landed in the middle of one such write. The invariants are
// the same bar the crash grid holds plus one more: the horizon-skipping
// recovery must equal a full scan of every surviving segment bit for bit.
type ChaosSegRow struct {
	Seed    int64         `json:"seed"`
	Target  string        `json:"target"` // rotation | meta | compaction
	CrashAt time.Duration `json:"crash_at_ns"`

	Committed       int   `json:"committed"`
	AckedAtCrash    int   `json:"acked_at_crash"`
	Undone          int   `json:"undone"`
	SegmentsScanned int   `json:"segments_scanned"`
	SegmentsSkipped int   `json:"segments_skipped"`
	CompactedBytes  int64 `json:"compacted_bytes"`

	// WindowFound: the discovery pass actually observed a write of this
	// kind, so the crash is aimed mid-write rather than guessed.
	WindowFound bool `json:"window_found"`
	// AckedDurable: every transaction acknowledged by crash time was found
	// committed by the full-scan recovery (no lost acks, even when the
	// crash lands inside a rotation or a commit.meta rewrite).
	AckedDurable bool `json:"acked_durable"`
	// SkipEqualsFull: recovering with the commit.meta horizon (segments
	// wholly below it skipped unread) yields the same store as ignoring
	// the horizon and scanning everything that survived.
	SkipEqualsFull bool `json:"skip_equals_full"`
}

// chaosSegEngine builds a fresh, identically-seeded engine for a rung:
// the crash grid's workload and tearing device (so rotations and
// compaction installs happen over a torn medium) on small segments.
// Checkpoint plus truncation keep the commit.meta horizon moving (so
// skipping is real), and the slow sweep over hot pages leaves a standing
// window of cold-but-untruncated segments for the compactor to rewrite.
func chaosSegEngine(cfg ChaosConfig, seed int64) (*event.Sim, *txn.Engine, *wal.Device, error) {
	tc, _ := chaosWorkload(cfg, seed)
	tc.TruncateLog = true
	tc.Checkpoint = true
	tc.DataDevice = wal.NewDevice("data", 10*time.Millisecond)
	tc.Log.SegmentPages = 4
	tc.Log.CompactSegments = true
	sim := &event.Sim{}
	e, err := txn.New(sim, tc)
	return sim, e, tc.Log.Devices[0], err
}

// segCrashWindows runs the discovery pass: one full uncrashed run whose
// write intervals tell the replay pass where to aim. Virtual time is
// deterministic per seed, so the same instant lands inside the same write
// on the re-run.
func segCrashWindows(cfg ChaosConfig, seed int64) (map[string][]seglog.Window, error) {
	_, e, dev, err := chaosSegEngine(cfg, seed)
	if err != nil {
		return nil, err
	}
	e.Run(cfg.RunFor)
	dir := dev.SegmentDir()
	return map[string][]seglog.Window{
		"rotation":   dir.RotationWindows(),
		"meta":       dir.MetaWindows(),
		"compaction": dir.CompactionWindows(),
	}, nil
}

// pickMidWrite chooses the crash instant: the midpoint of the last
// in-run window, deep enough into the run that the log has history on
// both sides of the horizon.
func pickMidWrite(ws []seglog.Window, runFor time.Duration) (time.Duration, bool) {
	for i := len(ws) - 1; i >= 0; i-- {
		mid := ws[i].Start + (ws[i].Done-ws[i].Start)/2
		if mid > 0 && mid < runFor {
			return mid, true
		}
	}
	return 0, false
}

// runChaosSeg runs one segmented rung: crash at the midpoint of a target
// write, recover twice (horizon-skipping and full scan), and check
// acked ⊆ committed plus skip ≡ full.
func runChaosSeg(cfg ChaosConfig, seed int64, target string, crashAt time.Duration) (ChaosSegRow, error) {
	row := ChaosSegRow{Seed: seed, Target: target, CrashAt: crashAt, WindowFound: true}
	sim, e, _, err := chaosSegEngine(cfg, seed)
	if err != nil {
		return row, err
	}
	in, _ := crashRun(sim, e, crashAt, cfg.RunFor)
	acked := e.AckedBy(crashAt)

	in.Parallelism = 4
	stSkip, infoSkip, err := recovery.Recover(in)
	if err != nil {
		return row, fmt.Errorf("chaos: segmented recovery (seed %d, %s @ %v): %w", seed, target, crashAt, err)
	}
	full := in
	full.IgnoreHorizon = true
	stFull, infoFull, err := recovery.Recover(full)
	if err != nil {
		return row, fmt.Errorf("chaos: full-scan recovery (seed %d, %s @ %v): %w", seed, target, crashAt, err)
	}

	row.Committed = len(infoFull.Committed)
	row.AckedAtCrash = len(acked)
	row.Undone = infoFull.Undone
	row.SegmentsScanned = infoSkip.SegmentsScanned
	row.SegmentsSkipped = infoSkip.SegmentsSkipped
	row.CompactedBytes = infoSkip.CompactedBytes

	row.AckedDurable = ackedDurable(acked, infoFull.Committed)
	row.SkipEqualsFull = stSkip.Equal(stFull)
	return row, nil
}

// runChaosSegGrid runs the discovery pass once per seed and one targeted
// crash per write kind it observed.
func runChaosSegGrid(cfg ChaosConfig) ([]ChaosSegRow, error) {
	var rows []ChaosSegRow
	for _, seed := range cfg.Seeds {
		windows, err := segCrashWindows(cfg, seed)
		if err != nil {
			return nil, err
		}
		for _, target := range []string{"rotation", "meta", "compaction"} {
			at, ok := pickMidWrite(windows[target], cfg.RunFor)
			if !ok {
				// The run never performed this write: the rung cannot aim,
				// which itself fails the ladder (the config is tuned so all
				// three kinds happen).
				rows = append(rows, ChaosSegRow{Seed: seed, Target: target})
				continue
			}
			row, err := runChaosSeg(cfg, seed, target, at)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

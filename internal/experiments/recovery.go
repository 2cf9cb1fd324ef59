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

// RecoveryLadderRow is one row of the §5.2/§5.4 throughput ladder.
type RecoveryLadderRow struct {
	Name          string
	TPS           float64
	MeanGroupSize float64
	BytesToDisk   int64
}

// RecoveryLadderResult is the full ladder.
type RecoveryLadderResult struct {
	Rows     []RecoveryLadderRow
	Duration time.Duration
}

func ladderConfig(policy wal.CommitPolicy, devices int, compress bool, terminals int) txn.Config {
	var devs []*wal.Device
	for i := 0; i < devices; i++ {
		// Distinct names: a device name is the fault-injector scope and the
		// segment namespace, so two devices must never share one.
		devs = append(devs, wal.NewDevice(fmt.Sprintf("log%d", i), 10*time.Millisecond))
	}
	return txn.Config{
		Accounts:  100000,
		Terminals: terminals,
		Seed:      11,
		Log: wal.Config{
			Policy:   policy,
			Devices:  devs,
			Compress: compress,
		},
	}
}

// RunRecoveryLadder reproduces the §5 throughput arithmetic: ~100 tps with
// one log write per commit, ~1000 tps with group commit (10 × 400-byte
// transactions per 4 KB page at 10 ms/write), multi-device scaling with
// topologically ordered commit groups, and stable-memory commit with log
// compression.
func RunRecoveryLadder(d time.Duration) (*RecoveryLadderResult, error) {
	cases := []struct {
		name      string
		policy    wal.CommitPolicy
		devices   int
		compress  bool
		terminals int
	}{
		{"flush-per-commit, 1 log", wal.FlushPerCommit, 1, false, 50},
		{"group-commit, 1 log", wal.GroupCommit, 1, false, 50},
		{"group-commit, 2 logs", wal.GroupCommit, 2, false, 100},
		{"group-commit, 4 logs", wal.GroupCommit, 4, false, 200},
		{"group-commit, 8 logs", wal.GroupCommit, 8, false, 400},
		{"stable memory, 1 log", wal.StableMemory, 1, false, 50},
		{"stable memory + compression", wal.StableMemory, 1, true, 50},
	}
	res := &RecoveryLadderResult{Duration: d}
	for _, c := range cases {
		sim := &event.Sim{}
		e, err := txn.New(sim, ladderConfig(c.policy, c.devices, c.compress, c.terminals))
		if err != nil {
			return nil, err
		}
		st := e.Run(d)
		res.Rows = append(res.Rows, RecoveryLadderRow{
			Name:          c.name,
			TPS:           st.TPS(),
			MeanGroupSize: st.Log.MeanGroupSize(),
			BytesToDisk:   st.Log.BytesToDisk,
		})
	}
	return res, nil
}

// Print renders the ladder.
func (r *RecoveryLadderResult) Print(w io.Writer) {
	fmt.Fprintf(w, "§5 recovery — commit throughput ladder (%v virtual run, 10 ms/log-page,\n", r.Duration)
	fmt.Fprintln(w, "Gray banking transactions, ~400 log bytes each)")
	fmt.Fprintf(w, "  %-30s %9s %12s %14s\n", "configuration", "TPS", "mean group", "disk bytes")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-30s %9.1f %12.2f %14d\n", row.Name, row.TPS, row.MeanGroupSize, row.BytesToDisk)
	}
	fmt.Fprintln(w, "  paper's claims: ~100 tps conventional; ~1000 tps with group commit;")
	fmt.Fprintln(w, "  multi-log scaling via topological commit ordering; stable memory bounded")
	fmt.Fprintln(w, "  by drain rate unless the log is compressed (§5.4).")
}

// CheckpointSweepRow is one point of the §5.3/§5.5 checkpoint study.
type CheckpointSweepRow struct {
	Name       string
	CkptPages  int64
	Redone     int
	LogScanned int
}

// CheckpointSweepResult relates checkpoint effort to recovery work.
type CheckpointSweepResult struct {
	Rows []CheckpointSweepRow
}

// RunCheckpointSweep runs the same crash at the same virtual instant with
// increasingly aggressive background checkpointing and reports how much
// redo work recovery needed (§5.5: the oldest entry of the stable
// first-update table bounds the log replay).
func RunCheckpointSweep(runFor time.Duration) (*CheckpointSweepResult, error) {
	cases := []struct {
		name  string
		speed time.Duration // 0 = no checkpointing
	}{
		{"no checkpointing", 0},
		{"checkpoint, 20 ms/page", 20 * time.Millisecond},
		{"checkpoint, 10 ms/page", 10 * time.Millisecond},
		{"checkpoint, 2 ms/page", 2 * time.Millisecond},
	}
	res := &CheckpointSweepResult{}
	for _, c := range cases {
		cfg := ladderConfig(wal.GroupCommit, 1, false, 30)
		cfg.Accounts = 4096
		cfg.RecordsPerPage = 64
		if c.speed > 0 {
			cfg.Checkpoint = true
			cfg.DataDevice = wal.NewDevice("data", c.speed)
		}
		sim := &event.Sim{}
		e, err := txn.New(sim, cfg)
		if err != nil {
			return nil, err
		}
		in, _ := crashRun(sim, e, runFor-time.Millisecond, runFor)
		_, info, err := recovery.Recover(in)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, CheckpointSweepRow{
			Name:       c.name,
			CkptPages:  e.Stats().CkptPages,
			Redone:     info.Redone,
			LogScanned: info.LogScanned,
		})
	}
	return res, nil
}

// Print renders the sweep.
func (r *CheckpointSweepResult) Print(w io.Writer) {
	fmt.Fprintln(w, "§5.3/§5.5 — background checkpointing vs recovery redo work")
	fmt.Fprintf(w, "  %-26s %12s %12s %12s\n", "configuration", "ckpt pages", "redo records", "log scanned")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-26s %12d %12d %12d\n", row.Name, row.CkptPages, row.Redone, row.LogScanned)
	}
	fmt.Fprintln(w, "  faster sweeps advance the stable first-update table, shrinking redo.")
}

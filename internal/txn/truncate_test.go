package txn

import (
	"testing"
	"time"

	"mmdb/internal/event"
	"mmdb/internal/recovery"
	"mmdb/internal/wal"
)

func truncateConfig(truncate bool) Config {
	cfg := baseConfig(wal.GroupCommit, 1)
	cfg.Accounts = 512
	cfg.RecordsPerPage = 16
	cfg.Terminals = 20
	cfg.Checkpoint = true
	cfg.DataDevice = wal.NewDevice("data", 2*time.Millisecond)
	cfg.TruncateLog = truncate
	return cfg
}

// crashImage is what a crash leaves behind: recovery's input and, for the
// oracles, the merged durable log of the same instant.
type crashImage struct {
	recovery.Input
	Log []wal.Record
}

// captureCrash snapshots the crash-durable state at the current instant.
func captureCrash(t *testing.T, e *Engine) crashImage {
	t.Helper()
	log, err := e.Log().DurableRecords(e.sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	return crashImage{Input: e.CrashInput(), Log: log}
}

// runAndCrash drives the workload and captures the durable state at
// crashAt.
func runAndCrash(t *testing.T, cfg Config, runFor, crashAt time.Duration) (crashImage, *Engine) {
	t.Helper()
	sim := &event.Sim{}
	e, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var in crashImage
	sim.At(crashAt, func() { in = captureCrash(t, e) })
	e.Run(runFor)
	return in, e
}

func TestLogTruncationPreservesRecovery(t *testing.T) {
	// Same seed, same crash instant: recovery over the truncated log must
	// produce exactly the state recovery over the full log produces.
	const runFor = 2 * time.Second
	const crashAt = 1900 * time.Millisecond

	full, _ := runAndCrash(t, truncateConfig(false), runFor, crashAt)
	truncated, e := runAndCrash(t, truncateConfig(true), runFor, crashAt)

	if e.Log().Stats().Truncated == 0 {
		t.Fatal("no log records were reclaimed")
	}
	if len(truncated.Log) >= len(full.Log) {
		t.Fatalf("truncated crash log has %d records, full %d", len(truncated.Log), len(full.Log))
	}

	stFull, _, err := recovery.Recover(full.Input)
	if err != nil {
		t.Fatal(err)
	}
	stTrunc, _, err := recovery.Recover(truncated.Input)
	if err != nil {
		t.Fatal(err)
	}
	if !stFull.Equal(stTrunc) {
		t.Fatal("truncation changed the recovered state")
	}
}

func TestTruncationNeverPassesUnresolvedTransactions(t *testing.T) {
	// Crash at many instants; at each, every unresolved (loser)
	// transaction's records must still be fully present in the truncated
	// log — otherwise undo would fail, which recovery.Recover reports.
	cfg := truncateConfig(true)
	cfg.HotAccounts = 6 // dependencies keep some txns unresolved longer
	for _, at := range []time.Duration{
		101 * time.Millisecond,
		503 * time.Millisecond,
		997 * time.Millisecond,
	} {
		in, _ := runAndCrash(t, cfg, 1200*time.Millisecond, at)
		if _, _, err := recovery.Recover(in.Input); err != nil {
			t.Fatalf("crash at %v: %v", at, err)
		}
	}
}

func TestTruncationMonotoneAndBounded(t *testing.T) {
	sim := &event.Sim{}
	e, err := New(sim, truncateConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1 * time.Second)
	l := e.Log()
	horizon := l.TruncatedLSN()
	if horizon == 0 {
		t.Fatal("truncation never advanced")
	}
	// Moving backwards is a no-op.
	l.TruncateBefore(horizon - 10)
	if l.TruncatedLSN() != horizon {
		t.Fatal("truncation moved backwards")
	}
}

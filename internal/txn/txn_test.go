package txn

import (
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"mmdb/internal/event"
	"mmdb/internal/recovery"
	"mmdb/internal/store"
	"mmdb/internal/wal"
)

func logDevices(n int) []*wal.Device {
	var out []*wal.Device
	for i := 0; i < n; i++ {
		// Distinct names: each device's name is its segment namespace.
		out = append(out, wal.NewDevice(fmt.Sprintf("log%d", i), 10*time.Millisecond))
	}
	return out
}

func baseConfig(policy wal.CommitPolicy, devices int) Config {
	return Config{
		Accounts:  5000,
		Terminals: 50,
		Seed:      42,
		Log: wal.Config{
			Policy:  policy,
			Devices: logDevices(devices),
		},
	}
}

func runFor(t *testing.T, cfg Config, d time.Duration) Stats {
	t.Helper()
	sim := &event.Sim{}
	e, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(d)
}

func TestFlushPerCommitIsBoundedAt100TPS(t *testing.T) {
	// §5.2: one log IO per commit on a 10 ms device caps the system at
	// ~100 committed transactions per second.
	s := runFor(t, baseConfig(wal.FlushPerCommit, 1), 10*time.Second)
	if tps := s.TPS(); tps < 90 || tps > 105 {
		t.Fatalf("flush-per-commit TPS = %.1f, expected ~100", tps)
	}
}

func TestGroupCommitReachesRoughly1000TPS(t *testing.T) {
	// §5.2: ~10 transactions of ~400 log bytes share one 4 KB page, so
	// group commit lifts throughput by an order of magnitude.
	s := runFor(t, baseConfig(wal.GroupCommit, 1), 10*time.Second)
	if tps := s.TPS(); tps < 700 || tps > 1100 {
		t.Fatalf("group-commit TPS = %.1f, expected ~1000", tps)
	}
	if m := s.Log.MeanGroupSize(); m < 5 {
		t.Fatalf("mean commit group size = %.1f, expected several transactions per page", m)
	}
}

func TestGroupCommitImprovesOnFlushPerCommitByAnOrderOfMagnitude(t *testing.T) {
	flush := runFor(t, baseConfig(wal.FlushPerCommit, 1), 5*time.Second)
	group := runFor(t, baseConfig(wal.GroupCommit, 1), 5*time.Second)
	if ratio := group.TPS() / flush.TPS(); ratio < 7 {
		t.Fatalf("group commit only %.1fx flush-per-commit (want ~10x)", ratio)
	}
}

func TestPartitionedLogScalesThroughput(t *testing.T) {
	// §5.2: "throughput can be further increased ... by partitioning the
	// log across several devices." Scaling presumes mostly independent
	// transactions: pre-commit dependencies serialize commit groups across
	// fragments, so the account pool is kept large here (see
	// TestHotAccountsProduceDependencies for the contended case).
	mkCfg := func(devices, terminals int) Config {
		cfg := baseConfig(wal.GroupCommit, devices)
		cfg.Accounts = 100000
		cfg.Terminals = terminals
		return cfg
	}
	one := runFor(t, mkCfg(1, 50), 5*time.Second)
	two := runFor(t, mkCfg(2, 100), 5*time.Second)
	four := runFor(t, mkCfg(4, 200), 5*time.Second)
	if r := two.TPS() / one.TPS(); r < 1.6 {
		t.Errorf("2 log devices: %.2fx of 1 device (want ~2x)", r)
	}
	if r := four.TPS() / one.TPS(); r < 3.0 {
		t.Errorf("4 log devices: %.2fx of 1 device (want ~4x)", r)
	}
}

func TestStableMemoryCommitAndCompression(t *testing.T) {
	// §5.4: commit-on-stable-write doesn't beat group commit in steady
	// state (the disk drain still bounds throughput), but compressing the
	// drained log to new-values-only does.
	plain := runFor(t, baseConfig(wal.StableMemory, 1), 5*time.Second)
	cfgC := baseConfig(wal.StableMemory, 1)
	cfgC.Log.Compress = true
	compressed := runFor(t, cfgC, 5*time.Second)

	group := runFor(t, baseConfig(wal.GroupCommit, 1), 5*time.Second)
	if plain.TPS() < 0.8*group.TPS() {
		t.Errorf("stable memory TPS %.1f far below group commit %.1f", plain.TPS(), group.TPS())
	}
	if r := compressed.TPS() / plain.TPS(); r < 1.25 {
		t.Errorf("compression lifted TPS only %.2fx (want ~1.5x)", r)
	}
	// The drain device saturates in both runs, so total BytesToDisk is
	// capped either way; the claim is per-transaction: compression ships
	// fewer log bytes to disk per committed transaction.
	perTxn := func(s Stats) float64 { return float64(s.Log.BytesToDisk) / float64(s.Committed) }
	if r := perTxn(compressed) / perTxn(plain); r > 0.85 {
		t.Errorf("compression shrank disk bytes per txn only %.2fx (want ≤0.85x)", r)
	}
}

func TestTransactionLogBytesMatchPaperArithmetic(t *testing.T) {
	// The paper's "typical transaction writes 400 bytes of log": ours
	// writes a 33-byte begin (29-byte header + 4-byte CRC trailer), three
	// updates of 33+2*46 bytes, and a 33-byte commit = 441 bytes, giving
	// ~9.3 commits per 4 KB page — hence the measured ~850 tps against
	// the idealized 1000.
	s := runFor(t, baseConfig(wal.GroupCommit, 1), 2*time.Second)
	perTxn := float64(s.Log.BytesLogged) / float64(s.Log.Commits)
	if perTxn < 435 || perTxn > 450 {
		t.Fatalf("log bytes per transaction = %.1f, expected ≈441", perTxn)
	}
	if m := s.Log.MeanGroupSize(); m < 7.5 || m > 9.4 {
		t.Fatalf("commits per page = %.2f, expected ≈9.3 bounded by partial fills", m)
	}
}

func TestHotAccountsProduceDependencies(t *testing.T) {
	cfg := baseConfig(wal.GroupCommit, 2)
	cfg.HotAccounts = 5
	cfg.Terminals = 20
	s := runFor(t, cfg, 2*time.Second)
	if s.MaxDepLists == 0 {
		t.Fatal("expected pre-commit dependencies with 5 hot accounts")
	}
	if s.Committed == 0 {
		t.Fatal("no transactions committed")
	}
}

// totalBalance sums all account balances; the workload's transfers are
// zero-sum, so any transaction-consistent state sums to zero.
func totalBalance(st *store.Store) int64 {
	var sum int64
	for i := 0; i < st.NumRecords(); i++ {
		v := st.Read(uint64(i))
		sum += int64(binary.BigEndian.Uint64(v[:8]))
	}
	return sum
}

// crashAndRecover runs the workload, captures the durable state at
// crashAt, recovers, and cross-checks the result.
func crashAndRecover(t *testing.T, cfg Config, runFor, crashAt time.Duration) (recovery.Info, *store.Store) {
	t.Helper()
	sim := &event.Sim{}
	e, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var in crashImage
	var ackedAtCrash []wal.TxnID
	sim.At(crashAt, func() {
		in = captureCrash(t, e)
		// Capture the acknowledgement set inside the crash event: acks
		// delivered later within the same virtual instant (e.g. a stable-
		// memory commit triggered by a drain completing exactly now) are
		// after the crash.
		ackedAtCrash = e.AckedBy(crashAt)
	})
	e.Run(runFor)

	st, info, err := recovery.Recover(in.Input)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle 1: transfers are zero-sum, so the recovered state must be.
	if sum := totalBalance(st); sum != 0 {
		t.Fatalf("recovered balance sum = %d, want 0", sum)
	}
	// Oracle 2: recovery from snapshot + start LSN (and the commit.meta
	// horizon) must equal brute-force replay of the whole log from the
	// initial (all-zero) state.
	full, fullInfo, err := recovery.Recover(recovery.Input{
		NumRecords:     cfg.Accounts,
		RecSize:        in.RecSize,
		RecordsPerPage: in.RecordsPerPage,
		PageSize:       in.PageSize,
		Devices:        in.Devices,
		StableTail:     in.StableTail,
		IgnoreHorizon:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(full) {
		t.Fatal("recovered state differs from full log replay")
	}
	// Oracle 3: every commit acknowledged before the crash is durable. The
	// full scan's analysis is the one to ask: a commit record inside a
	// segment skipped below the horizon is not in info.Committed.
	for _, id := range ackedAtCrash {
		if !fullInfo.Committed[id] {
			t.Fatalf("acked txn %d lost by recovery", id)
		}
	}
	return info, st
}

func TestCrashRecoveryAcrossPoliciesAndTimes(t *testing.T) {
	// Configs are factories: devices accumulate durable pages, so every
	// simulated run needs fresh ones.
	mk := func(policy wal.CommitPolicy, devices int, compress, ckpt bool, hot int) func() Config {
		return func() Config {
			cfg := baseConfig(policy, devices)
			cfg.Accounts = 512
			cfg.RecordsPerPage = 16
			cfg.Terminals = 20
			cfg.HotAccounts = hot
			cfg.Log.Compress = compress
			if ckpt {
				cfg.Checkpoint = true
				cfg.DataDevice = wal.NewDevice("data", 10*time.Millisecond)
			}
			return cfg
		}
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"flush-per-commit", mk(wal.FlushPerCommit, 1, false, false, 0)},
		{"group-commit", mk(wal.GroupCommit, 1, false, false, 0)},
		{"group-commit-hot", mk(wal.GroupCommit, 1, false, false, 4)},
		{"group-commit-2dev", mk(wal.GroupCommit, 2, false, false, 0)},
		{"group-commit-4dev-hot", mk(wal.GroupCommit, 4, false, false, 6)},
		{"stable", mk(wal.StableMemory, 1, false, false, 0)},
		{"stable-compressed", mk(wal.StableMemory, 1, true, false, 0)},
		{"group-commit-ckpt", mk(wal.GroupCommit, 1, false, true, 0)},
		{"stable-compressed-ckpt", mk(wal.StableMemory, 1, true, true, 0)},
	}
	crashTimes := []time.Duration{
		3 * time.Millisecond,
		17 * time.Millisecond,
		101 * time.Millisecond,
		555 * time.Millisecond,
		999 * time.Millisecond,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, at := range crashTimes {
				crashAndRecover(t, tc.cfg(), 1200*time.Millisecond, at)
			}
		})
	}
}

// TestQuickRandomCrashes is the property-based recovery check: random
// policies, contention levels, seeds and crash instants, all of which must
// satisfy the three oracles in crashAndRecover.
func TestQuickRandomCrashes(t *testing.T) {
	f := func(seed int64, policy8, hot8, devs8 uint8, crashMs uint16) bool {
		policies := []wal.CommitPolicy{wal.FlushPerCommit, wal.GroupCommit, wal.StableMemory}
		policy := policies[int(policy8)%len(policies)]
		devices := 1
		if policy == wal.GroupCommit {
			devices = int(devs8)%3 + 1
		}
		cfg := baseConfig(policy, devices)
		cfg.Accounts = 256
		cfg.RecordsPerPage = 16
		cfg.Terminals = 12
		cfg.Seed = seed
		if hot8%3 == 0 {
			cfg.HotAccounts = int(hot8)%8 + 3
		}
		if hot8%4 == 0 {
			cfg.Checkpoint = true
			cfg.DataDevice = wal.NewDevice("data", 5*time.Millisecond)
		}
		crashAt := time.Duration(int(crashMs)%700+1) * time.Millisecond
		crashAndRecover(t, cfg, 800*time.Millisecond, crashAt)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortedTransactionsLeaveNoTrace(t *testing.T) {
	cfg := baseConfig(wal.GroupCommit, 1)
	cfg.Accounts = 256
	cfg.Terminals = 10
	cfg.AbortEvery = 3
	sim := &event.Sim{}
	e, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Run(500 * time.Millisecond)
	if s.Aborted == 0 {
		t.Fatal("expected aborts")
	}
	if sum := totalBalance(e.Store()); sum != 0 {
		t.Fatalf("live balance sum %d after aborts, want 0", sum)
	}
	st, info, err := recovery.Recover(e.CrashInput())
	if err != nil {
		t.Fatal(err)
	}
	if sum := totalBalance(st); sum != 0 {
		t.Fatalf("recovered balance sum %d, want 0", sum)
	}
	if len(info.Ended) == 0 {
		t.Fatal("expected rolled-back (ended) transactions in the log")
	}
}

func TestCheckpointBoundsRedoWork(t *testing.T) {
	// §5.5: the stable first-update table lets recovery skip the log
	// prefix already reflected in checkpointed pages.
	mk := func(ckpt bool) recovery.Info {
		cfg := baseConfig(wal.GroupCommit, 1)
		cfg.Accounts = 256
		cfg.RecordsPerPage = 16
		cfg.Terminals = 30
		if ckpt {
			cfg.Checkpoint = true
			cfg.DataDevice = wal.NewDevice("data", time.Millisecond)
		}
		info, _ := crashAndRecover(t, cfg, 3*time.Second, 2900*time.Millisecond)
		return info
	}
	with := mk(true)
	without := mk(false)
	if with.Redone >= without.Redone {
		t.Fatalf("checkpointing should reduce redo: %d with vs %d without", with.Redone, without.Redone)
	}
	if with.Redone > without.Redone/2 {
		t.Logf("note: redo reduced only from %d to %d", without.Redone, with.Redone)
	}
}

func TestCleanShutdownRecoversToLiveState(t *testing.T) {
	cfg := baseConfig(wal.GroupCommit, 1)
	cfg.Accounts = 256
	cfg.Terminals = 10
	sim := &event.Sim{}
	e, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300 * time.Millisecond) // Run drains in-flight work and flushes
	st, _, err := recovery.Recover(e.CrashInput())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(e.Store()) {
		t.Fatal("after a clean drain, recovery must reproduce the live store")
	}
}

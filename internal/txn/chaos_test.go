package txn

import (
	"fmt"
	"testing"
	"time"

	"mmdb/internal/fault"
	"mmdb/internal/recovery"
	"mmdb/internal/store"
	"mmdb/internal/wal"
)

// chaosDevices builds log devices wired to a fault schedule.
func chaosDevices(n int, inj wal.WriteInjector, exposeTorn bool) []*wal.Device {
	var devs []*wal.Device
	for i := 0; i < n; i++ {
		d := wal.NewDevice(fmt.Sprintf("log%d", i), 10*time.Millisecond)
		d.Injector = inj
		d.ExposeTorn = exposeTorn
		devs = append(devs, d)
	}
	return devs
}

// replayResolved builds the committed-prefix oracle: a fresh store (plus
// the crash's snapshot pages) with every resolved transaction's update
// records applied in LSN order. Losers' updates are skipped entirely —
// by §5.2 pre-commit ordering no durably committed transaction can have
// overwritten a loser's value, so "undo by pre-image" and "never applied"
// must coincide. Recovery's result must equal this state bit for bit.
func replayResolved(t *testing.T, in crashImage, info recovery.Info) *store.Store {
	t.Helper()
	st, err := store.New(in.NumRecords, in.RecSize, in.RecordsPerPage)
	if err != nil {
		t.Fatal(err)
	}
	for p, img := range in.SnapshotPages {
		if err := st.InstallPage(p, img); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range in.Log {
		if r.Type != wal.Update {
			continue
		}
		if !info.Committed[r.Txn] && !info.Ended[r.Txn] {
			continue
		}
		if err := st.Apply(r.Rec, r.New); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// checkCrashInvariants recovers from in and asserts the two §5 safety
// invariants: every transaction acknowledged by crash time is found
// committed, and the recovered state equals the committed-prefix oracle.
// Both oracles read transaction outcomes, so they run against the
// full-scan recovery; the horizon-skipping one must rebuild the same store.
func checkCrashInvariants(t *testing.T, e *Engine, in crashImage, crashAt time.Duration) recovery.Info {
	t.Helper()
	skip, _, err := recovery.Recover(in.Input)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	in.IgnoreHorizon = true
	st, info, err := recovery.Recover(in.Input)
	if err != nil {
		t.Fatalf("full-scan recovery failed: %v", err)
	}
	if !skip.Equal(st) {
		t.Fatal("horizon-skipping recovery differs from the full scan")
	}
	for _, id := range e.AckedBy(crashAt) {
		if !info.Committed[id] {
			t.Fatalf("acked txn %d lost: not found committed after crash", id)
		}
	}
	if !st.Equal(replayResolved(t, in, info)) {
		t.Fatal("recovered state diverges from the committed-prefix replay")
	}
	return info
}

// TestRecoveryWithTornLogTail tears a log page mid-run: the device keeps
// only a byte prefix of that page (exposed to recovery) and fails from
// then on. Recovery must cut the log at the last intact record and land
// exactly on the committed prefix, never acknowledging a torn-away commit.
func TestRecoveryWithTornLogTail(t *testing.T) {
	for _, expose := range []bool{true, false} {
		cfg := baseConfig(wal.GroupCommit, 1)
		cfg.Accounts = 512
		cfg.RecordsPerPage = 16
		inj := fault.NewInjector(11).TornEvery("log0", 12)
		cfg.Log.Devices = chaosDevices(1, inj, expose)

		const crashAt = 1 * time.Second
		in, e := runAndCrash(t, cfg, 1200*time.Millisecond, crashAt)
		if e.Log().Stats().LostPages == 0 {
			t.Fatal("the tear never happened")
		}
		if inj.Stats().Torn != 1 {
			t.Fatalf("torn writes: %d, want 1", inj.Stats().Torn)
		}
		info := checkCrashInvariants(t, e, in, crashAt)
		if len(info.Committed) == 0 {
			t.Fatal("no commits survived: the schedule killed the whole run")
		}
	}
}

// TestRecoveryTruncatedTailStopsCleanly cuts the torn page mid-record
// (a 40-byte surviving prefix always splits a 33-byte-plus record
// boundary somewhere early) and compares against a fault-free twin: the
// damaged run must recover a (possibly equal) subset of the twin's
// commits, never a superset, and still satisfy both crash invariants.
func TestRecoveryTruncatedTailStopsCleanly(t *testing.T) {
	run := func(inj wal.WriteInjector) (crashImage, *Engine) {
		cfg := baseConfig(wal.GroupCommit, 1)
		cfg.Accounts = 512
		cfg.RecordsPerPage = 16
		cfg.Log.Devices = chaosDevices(1, inj, true)
		return runAndCrash(t, cfg, 1200*time.Millisecond, 1*time.Second)
	}
	clean, _ := run(nil)
	torn, e := run(fault.NewInjector(7).TornEvery("log0", 9, 40))

	_, cleanInfo, err := recovery.Recover(clean.Input)
	if err != nil {
		t.Fatal(err)
	}
	tornInfo := checkCrashInvariants(t, e, torn, 1*time.Second)
	if len(tornInfo.Committed) >= len(cleanInfo.Committed) {
		t.Fatalf("torn run recovered %d commits, fault-free twin %d: the tear cost nothing",
			len(tornInfo.Committed), len(cleanInfo.Committed))
	}
}

// TestLoserUndoUnderAbortsAndHotChains crashes a contended workload —
// hot accounts force pre-commit dependency chains, AbortEvery seeds
// rollbacks — at several instants and checks both crash invariants at
// each, requiring that undo actually ran at least once across the grid.
func TestLoserUndoUnderAbortsAndHotChains(t *testing.T) {
	undone := 0
	for _, crashAt := range []time.Duration{
		130 * time.Millisecond,
		517 * time.Millisecond,
		901 * time.Millisecond,
	} {
		cfg := baseConfig(wal.GroupCommit, 2)
		cfg.Accounts = 512
		cfg.RecordsPerPage = 16
		cfg.HotAccounts = 12
		cfg.AbortEvery = 5
		// Tiny log pages force every transaction's records across page
		// boundaries, so crashes catch update pages durable with the commit
		// group still in flight — the undo path's worst case.
		cfg.Log.PageSize = 256
		in, e := runAndCrash(t, cfg, 1200*time.Millisecond, crashAt)
		info := checkCrashInvariants(t, e, in, crashAt)
		undone += info.Undone
		if len(info.Committed) == 0 {
			t.Fatalf("crash at %v: nothing committed", crashAt)
		}
	}
	if undone == 0 {
		t.Fatal("no loser update was ever undone across the crash grid")
	}
}

package mmdb

import (
	"fmt"
	"time"

	"mmdb/internal/event"
	"mmdb/internal/recovery"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// CommitPolicy selects the §5 commit discipline.
type CommitPolicy = wal.CommitPolicy

// Commit policies.
const (
	// FlushPerCommit writes one log page per commit (~100 tps on a 10 ms
	// device).
	FlushPerCommit = wal.FlushPerCommit
	// GroupCommit batches commit records sharing a log page (§5.2).
	GroupCommit = wal.GroupCommit
	// StableMemoryCommit commits on write to a battery-backed log buffer
	// (§5.4).
	StableMemoryCommit = wal.StableMemory
)

// RecoveryConfig parameterizes a recovery simulation run.
type RecoveryConfig struct {
	// Accounts is the number of bank records (Gray's debit/credit mix).
	// 0 means 10000.
	Accounts int
	// Terminals is the closed-loop multiprogramming level. 0 means 50.
	Terminals int
	// UpdatesPerTxn is the accounts each transfer touches. 0 means 3.
	UpdatesPerTxn int
	// HotAccounts restricts choices to the first N accounts, forcing
	// pre-commit dependencies. 0 means uniform.
	HotAccounts int
	// Policy is the commit discipline.
	Policy CommitPolicy
	// LogDevices is the partitioned-log width. 0 means 1.
	LogDevices int
	// LogPageWrite is the device service time per 4 KB log page.
	// 0 means 10ms, the paper's figure.
	LogPageWrite time.Duration
	// CompressLog drains only new values of committed transactions to
	// disk (§5.4; requires StableMemoryCommit).
	CompressLog bool
	// Checkpoint runs the §5.3 background sweep on a dedicated data disk.
	Checkpoint bool
	// AbortEvery aborts every n-th transaction before commit. 0 = never.
	AbortEvery int
	// ReadOnlyTerminals adds closed-loop read-only transactions scanning
	// ReadAccounts accounts with ReadCPU of think time per read (§6).
	ReadOnlyTerminals int
	ReadAccounts      int
	ReadCPU           time.Duration
	// Versioning serves the read-only transactions from Reed-style
	// version chains (no locks) instead of shared locks.
	Versioning bool
	// Seed fixes the workload randomness.
	Seed int64
	// SegmentPages is the size, in pages, of the segment files each log
	// device is bounded into ("log0/seg-000001", ...) beside a persisted
	// dual-slot commit.meta recording the durable {segment, offset, LSN}
	// horizon. Crash recovery skips segments wholly below the horizon
	// unread, and fans the scan and the page-partitioned replay out over
	// ReplayParallelism workers. 0 means 64.
	SegmentPages int
	// CompactSegments runs the §5.6 background log compressor: cold
	// segments are rewritten keeping only the newest committed value per
	// record with pre-images stripped.
	CompactSegments bool
	// TruncateLog reclaims the log prefix no recovery could need by
	// deleting whole segment files. Effective with Checkpoint, which
	// advances the redo bound (§5.5).
	TruncateLog bool
	// ReplayParallelism is the recovery fan-out width (0 = serial,
	// <0 = one worker per CPU). Replay cost counters are bit-identical at
	// every width.
	ReplayParallelism int
	// Faults, when set, is consulted on every log (and checkpoint) device
	// page write: the chaos knob that injects transient write errors,
	// permanent device failures, stalls and torn pages into the §5 engine.
	Faults *FaultInjector
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.Accounts == 0 {
		c.Accounts = 10000
	}
	if c.Terminals == 0 {
		c.Terminals = 50
	}
	if c.UpdatesPerTxn == 0 {
		c.UpdatesPerTxn = 3
	}
	if c.LogDevices == 0 {
		c.LogDevices = 1
	}
	if c.LogPageWrite == 0 {
		c.LogPageWrite = 10 * time.Millisecond
	}
	return c
}

// RecoveryStats summarizes a recovery simulation.
type RecoveryStats struct {
	Committed      int64
	Aborted        int64
	ReadTxns       int64 // acknowledged read-only transactions
	TPS            float64
	ReadTPS        float64
	MeanGroupSize  float64
	LogPages       int64
	LogBytesToDisk int64
	CkptPages      int64
}

// RecoverySim drives the §5 transaction engine in virtual time.
type RecoverySim struct {
	cfg    RecoveryConfig
	sim    *event.Sim
	engine *txn.Engine
}

// NewRecoverySim builds a simulation.
func NewRecoverySim(cfg RecoveryConfig) (*RecoverySim, error) {
	cfg = cfg.withDefaults()
	sim := &event.Sim{}
	newDevice := func(name string) *wal.Device {
		d := wal.NewDevice(name, cfg.LogPageWrite)
		if cfg.Faults != nil {
			d.Injector = cfg.Faults
		}
		return d
	}
	var devices []*wal.Device
	for i := 0; i < cfg.LogDevices; i++ {
		devices = append(devices, newDevice(fmt.Sprintf("log%d", i)))
	}
	tc := txn.Config{
		Accounts:          cfg.Accounts,
		Terminals:         cfg.Terminals,
		UpdatesPerTxn:     cfg.UpdatesPerTxn,
		HotAccounts:       cfg.HotAccounts,
		AbortEvery:        cfg.AbortEvery,
		ReadOnlyTerminals: cfg.ReadOnlyTerminals,
		ReadAccounts:      cfg.ReadAccounts,
		ReadCPU:           cfg.ReadCPU,
		Versioning:        cfg.Versioning,
		Seed:              cfg.Seed,
		TruncateLog:       cfg.TruncateLog,
		Log: wal.Config{
			Policy:          cfg.Policy,
			Devices:         devices,
			Compress:        cfg.CompressLog,
			SegmentPages:    cfg.SegmentPages,
			CompactSegments: cfg.CompactSegments,
		},
	}
	if cfg.Checkpoint {
		tc.Checkpoint = true
		tc.DataDevice = newDevice("data")
	}
	e, err := txn.New(sim, tc)
	if err != nil {
		return nil, err
	}
	return &RecoverySim{cfg: cfg, sim: sim, engine: e}, nil
}

// Run executes the workload for d of virtual time and reports throughput.
func (s *RecoverySim) Run(d time.Duration) RecoveryStats {
	st := s.engine.Run(d)
	return RecoveryStats{
		Committed:      st.Committed,
		Aborted:        st.Aborted,
		ReadTxns:       st.ReadTxns,
		TPS:            st.TPS(),
		ReadTPS:        st.ReadTPS(),
		MeanGroupSize:  st.Log.MeanGroupSize(),
		LogPages:       st.Log.PagesWritten,
		LogBytesToDisk: st.Log.BytesToDisk,
		CkptPages:      st.CkptPages,
	}
}

// RunAndCrash runs the workload but captures the crash-durable state at
// crashAt (before in-flight work drains), then recovers from it. It
// returns the run statistics, the recovery report, and the number of
// transactions recovery found committed.
func (s *RecoverySim) RunAndCrash(runFor, crashAt time.Duration) (RecoveryStats, RecoveryInfo, int, error) {
	if crashAt > runFor {
		crashAt = runFor
	}
	var in recovery.Input
	// Run drains every queued event, so the capture always happens.
	s.sim.At(s.sim.Now()+crashAt, func() { in = s.engine.CrashInput() })
	st := s.Run(runFor)
	info, err := s.recoverFrom(in)
	if err != nil {
		return st, RecoveryInfo{}, 0, err
	}
	return st, info, info.Committed, nil
}

// recoverFrom runs crash recovery on a captured crash image.
func (s *RecoverySim) recoverFrom(in recovery.Input) (RecoveryInfo, error) {
	in.Parallelism = s.cfg.ReplayParallelism
	_, ri, err := recovery.Recover(in)
	if err != nil {
		return RecoveryInfo{}, err
	}
	return toRecoveryInfo(ri), nil
}

// CrashAndRecover captures the durable state at the current instant and
// runs crash recovery, returning how much work recovery did.
func (s *RecoverySim) CrashAndRecover() (recovered int, info RecoveryInfo, err error) {
	info, err = s.recoverFrom(s.engine.CrashInput())
	if err != nil {
		return 0, RecoveryInfo{}, err
	}
	return info.Committed, info, nil
}

// RecoveryInfo reports recovery effort.
type RecoveryInfo struct {
	Committed  int
	Losers     int
	Redone     int
	Undone     int
	LogScanned int

	SegmentsScanned int           // segment files read and decoded
	SegmentsSkipped int           // segments skipped below the commit.meta horizon
	ReplayWorkers   int           // recovery fan-out width used
	CompactedBytes  int64         // log bytes reclaimed by §5.6 compaction
	Virtual         time.Duration // virtual recovery time (width-independent)
}

func toRecoveryInfo(ri recovery.Info) RecoveryInfo {
	return RecoveryInfo{
		Committed:       len(ri.Committed),
		Losers:          len(ri.Losers),
		Redone:          ri.Redone,
		Undone:          ri.Undone,
		LogScanned:      ri.LogScanned,
		SegmentsScanned: ri.SegmentsScanned,
		SegmentsSkipped: ri.SegmentsSkipped,
		ReplayWorkers:   ri.ReplayWorkers,
		CompactedBytes:  ri.CompactedBytes,
		Virtual:         ri.Virtual,
	}
}

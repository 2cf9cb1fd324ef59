package main

import (
	"fmt"
	"runtime"
	"time"

	"mmdb"
)

const (
	txnAccounts    = 10_000
	txnTerminals   = 50
	txnRecordBytes = 46              // internal/txn's default record size
	txnVirtualRun  = 5 * time.Second // ~4k commits: short cycles, so a run completes enough of them for a tail
)

func txnConfig(seed int64, scale float64) (mmdb.RecoveryConfig, time.Duration) {
	return mmdb.RecoveryConfig{
		Accounts:          txnAccounts,
		Terminals:         txnTerminals,
		Policy:            mmdb.GroupCommit,
		Checkpoint:        true,
		SegmentPages:      64,
		ReplayParallelism: 2,
		Seed:              seed,
	}, time.Duration(float64(txnVirtualRun) * scale)
}

func describeTxn(cfg mmdb.RecoveryConfig, virtual time.Duration) map[string]any {
	return map[string]any{
		"policy":             "group-commit",
		"checkpoint":         cfg.Checkpoint,
		"segment_pages":      cfg.SegmentPages,
		"replay_parallelism": cfg.ReplayParallelism,
		"accounts":           cfg.Accounts,
		"terminals":          cfg.Terminals,
		"virtual_run_s":      virtual.Seconds(),
		"user_bytes":         cfg.Accounts * txnRecordBytes,
	}
}

// txnCycle is one NewRecoverySim → Run → CrashAndRecover round. Every
// cycle of a run does identical work (same seed), so the spread of its
// wall times is the host's, not the workload's.
type txnCycle struct {
	end                     time.Duration // since the loop started
	newT, runT, recT        time.Duration
	stats                   mmdb.RecoveryStats
	info                    mmdb.RecoveryInfo
	recovered               int
	allocBefore, allocAfter uint64
}

func (c txnCycle) wall() time.Duration { return c.newT + c.runT + c.recT }

// lost is how many acknowledged commits recovery failed to find.
func (c txnCycle) lost() int {
	if lost := int(c.stats.Committed) - c.recovered; lost > 0 {
		return lost
	}
	return 0
}

func runTxnCycle(cfg mmdb.RecoveryConfig, virtual time.Duration, start time.Time) (txnCycle, error) {
	var c txnCycle
	var mem runtime.MemStats
	// Collect the last cycle's simulator off the clock, so every
	// cycle starts from the same heap.
	runtime.GC()
	runtime.ReadMemStats(&mem)
	c.allocBefore = mem.TotalAlloc
	t0 := time.Now()
	sim, err := mmdb.NewRecoverySim(cfg)
	if err != nil {
		return c, err
	}
	t1 := time.Now()
	c.stats = sim.Run(virtual)
	t2 := time.Now()
	c.recovered, c.info, err = sim.CrashAndRecover()
	t3 := time.Now()
	if err != nil {
		return c, fmt.Errorf("crash recovery: %w", err)
	}
	runtime.ReadMemStats(&mem)
	c.allocAfter = mem.TotalAlloc
	c.newT, c.runT, c.recT, c.end = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(start)
	return c, nil
}

// runTxn measures the §5 workload end to end: commits per wall second
// inside Run, and what a crash then costs.
func runTxn(rc runConfig, w workloadDef) (*workloadReport, error) {
	measured := rc.dur()
	cfg, virtual := txnConfig(rc.Seed, rc.Scale)
	rep := newWorkloadReport(w)
	rep.Options = describeTxn(cfg, virtual)

	before := liveHeap()
	sim, err := mmdb.NewRecoverySim(cfg)
	if err != nil {
		return nil, err
	}
	memAmp := float64(liveHeap()-before) / float64(cfg.Accounts*txnRecordBytes)
	runtime.KeepAlive(sim)

	warm := warmup(measured)
	win := measured / numWindows
	windows := make([][]txnCycle, numWindows)
	cycles := 0
	start := time.Now()
	for time.Since(start) < warm+measured {
		c, err := runTxnCycle(cfg, virtual, start)
		if err != nil {
			return nil, err
		}
		rep.Attempted += int(c.stats.Committed)
		rep.fail(c.lost(), fmt.Errorf("recovery found %d of %d acknowledged commits", c.recovered, c.stats.Committed))
		if k := int((c.end - warm) / win); c.end >= warm && k < numWindows {
			windows[k] = append(windows[k], c)
			cycles++
		}
	}
	for _, ws := range windows {
		if len(ws) == 0 {
			return nil, fmt.Errorf("%s: a %v window completed no cycle; run longer", w.Name, win)
		}
	}
	// A window's value is a quantile over its cycles (the median unless
	// said otherwise); the metric is the median of the windows.
	perWindowQ := func(unit string, q float64, f func(c txnCycle) float64) metric {
		vals := make([]float64, numWindows)
		for k, ws := range windows {
			xs := make([]float64, len(ws))
			for i, c := range ws {
				xs[i] = f(c)
			}
			vals[k] = percentile(sorted(xs), q)
		}
		return windowed(unit, vals, cycles)
	}
	perWindow := func(unit string, f func(c txnCycle) float64) metric { return perWindowQ(unit, 0.5, f) }
	slot := func(name string, f func(c txnCycle) time.Duration) metric {
		m := perWindow("ms", func(c txnCycle) float64 { return ms(f(c)) })
		m.Note = name
		return m
	}
	rep.EndToEnd = map[string]metric{
		"setup_s": perWindow("s", func(c txnCycle) float64 { return c.newT.Seconds() }),
		"mem_amp": {Value: memAmp, Unit: "ratio", N: 1},
		"ops_per_s": perWindow("1/s", func(c txnCycle) float64 {
			return float64(c.stats.Committed) / c.runT.Seconds()
		}),
		"p50_ms.a": slot("run", func(c txnCycle) time.Duration { return c.runT }),
		"p50_ms.b": slot("recover", func(c txnCycle) time.Duration { return c.recT }),
		"p50_ms.c": slot("cycle", txnCycle.wall),
		// A window holds about sixty cycles, so only three lie beyond
		// its p95; n says how many cycles the run completed.
		"p95_ms": perWindowQ("ms", 0.95, func(c txnCycle) float64 { return ms(c.wall()) }),
		"alloc_kb_per_op": perWindow("KB", func(c txnCycle) float64 {
			return float64(c.allocAfter-c.allocBefore) / 1024 / float64(c.stats.Committed)
		}),
	}
	return rep, nil
}

package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"mmdb"
)

// The traced pass splits its --seconds between a two-client load phase
// (admission and queueing numbers), the single-goroutine traced
// pipeline, and the kernels on shadow fixtures.
const (
	loadShare   = 0.25
	traceShare  = 0.40
	kernelShare = 0.30
)

// fillPerLayer stamps each measured metric with its declared unit and
// gives every other per-layer metric a value: a layer the workload's
// statements never enter did no work and took no time.
func fillPerLayer(got map[string]metric) {
	for _, def := range perLayer {
		m, ok := got[def.Name]
		if !ok {
			m.Note = notExercised
		}
		m.Unit = def.Unit
		got[def.Name] = m
	}
}

const notExercised = "layer not exercised by this workload"

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".jsonl")
}

// traceSQL is the traced pass of a SQL workload.
func traceSQL(cfg runConfig, w workloadDef) (*workloadReport, error) {
	seed, total, scale := cfg.Seed, cfg.dur(), cfg.Scale
	spec := sqlSpecFor(w.Name, scale)
	d := newDataset(spec.N, spec.Sale, seed)
	rep := newWorkloadReport(w)
	rep.Options = spec.describe(d)
	got := make(map[string]metric)

	e, _, err := setUp(spec, d)
	if err != nil {
		return nil, err
	}
	defer e.close()

	// The floor under every latency: an empty round trip on the live
	// server.
	pings := make([]float64, 2000)
	for i := range pings {
		t0 := time.Now()
		if err := e.clients[0].Ping(); err != nil {
			return nil, fmt.Errorf("ping: %w", err)
		}
		pings[i] = us(time.Since(t0))
	}
	got["sqlclient.ping_rtt_us"] = metric{Value: median(pings), N: len(pings)}

	// Load phase: the workload's own two-client closed loop, for what
	// only concurrency shows.
	load := time.Duration(float64(total) * loadShare)
	var readersAlone []sample
	if w.Name == "write_mix" {
		// Readers alone first, then the writer beside one: the
		// difference is what its exclusive intent costs a reader.
		load /= 2
		alone := closedLoop(e, d, []*stream{newStream(mixPoint, d, seed, 0), newStream(mixPoint, d, seed, 1)}, load, nil, nil)
		rep.Attempted += alone.attempted
		rep.fail(alone.failed, alone.firstErr)
		readersAlone = alone.samples
	}
	res := closedLoop(e, d, clientStreams(spec, d, seed), load, nil, nil)
	rep.Attempted += res.attempted
	rep.fail(res.failed, res.firstErr)
	if readersAlone != nil {
		with, alone := latencies(res.samples, clPoint), latencies(readersAlone, clPoint)
		got["lock.reader_penalty_ms"] = metric{Value: percentile(with, 0.5) - percentile(alone, 0.5), N: len(with)}
	}
	queued := make([]float64, len(res.samples))
	for i, s := range res.samples {
		queued[i] = us(s.queued)
	}
	got["session.queued_us_p50"] = metric{Value: median(queued), N: len(queued)}
	sm := e.db.SessionMetrics()
	got["session.rejected"] = metric{Value: float64(sm.Rejected + e.srv.Stats().Overloads.Load())}
	got["session.running_peak"] = metric{Value: float64(sm.RunningPeak)}

	tr := newTracer()
	exact := tracedPass(e.db, d, clientStreams(spec, d, seed), tr,
		time.Duration(float64(total)*traceShare), exactPrefix(w.Name, scale), rep)
	for k, v := range exact {
		got[k] = v
	}
	e.verifyCount(d, rep)

	fx, err := newFixture(d, spec.MemoryPages/numClients, e.db)
	if err != nil {
		return nil, err
	}
	if err := runKernels(fx, w.Name, tr, time.Duration(float64(total)*kernelShare)); err != nil {
		return nil, err
	}
	if slices.Contains(analytic, w.Name) {
		got["join.spill_ios"] = metric{Value: float64(fx.spillIOs)}
		got["agg.groups"] = metric{Value: float64(fx.groups)}
		got["extsort.runs"] = metric{Value: float64(fx.sortRuns)}
		got["extsort.merge_passes"] = metric{Value: float64(fx.sortPasses)}
	}

	for k, v := range spanMetrics(tr.spans) {
		got[k] = v
	}
	fillPerLayer(got)
	rep.PerLayer = got
	rep.TraceFile = tracePath(cfg.OutDir, w.Name)
	return rep, writeTraceFile(rep.TraceFile, tr.spans)
}

// traceTxn is the traced pass of txn_recover: the same cycles with a
// span per step, the engine's own counts from the first cycle (every
// cycle repeats it exactly), and the log page codec on a fixture.
func traceTxn(rc runConfig, w workloadDef) (*workloadReport, error) {
	total := rc.dur()
	cfg, virtual := txnConfig(rc.Seed, rc.Scale)
	rep := newWorkloadReport(w)
	rep.Options = describeTxn(cfg, virtual)
	got := make(map[string]metric)
	tr := newTracer()

	var first *txnCycle
	start := time.Now()
	for req := 1; first == nil || time.Since(start) < time.Duration(float64(total)*(1-kernelShare)); req++ {
		root := tr.begin(spCycle, 0, req)
		h := tr.begin(spTxnNew, root, req)
		sim, err := mmdb.NewRecoverySim(cfg)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		h = tr.begin(spTxnRun, root, req)
		stats := sim.Run(virtual)
		tr.end(h)
		h = tr.begin(spRecover, root, req)
		recovered, info, err := sim.CrashAndRecover()
		tr.end(h)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("crash recovery: %w", err)
		}
		tr.spans[h-1].Count = int64(info.LogScanned)
		c := txnCycle{stats: stats, info: info, recovered: recovered}
		rep.Attempted += int(stats.Committed)
		rep.fail(c.lost(), fmt.Errorf("recovery found %d of %d acknowledged commits", recovered, stats.Committed))
		if first == nil {
			first = &c
		} else if c.stats != first.stats || c.info != first.info {
			rep.fail(1, fmt.Errorf("cycle %d did not repeat cycle 1: %+v %+v", req, c.stats, c.info))
		}
	}
	count := func(name string, v float64) { got[name] = metric{Value: v} }
	count("txn.virtual_tps", first.stats.TPS)
	count("txn.committed", float64(first.stats.Committed))
	count("wal.log_pages", float64(first.stats.LogPages))
	count("wal.bytes_per_commit", float64(first.stats.LogBytesToDisk)/float64(first.stats.Committed))
	count("wal.mean_group_size", first.stats.MeanGroupSize)
	count("checkpoint.pages", float64(first.stats.CkptPages))
	count("recovery.records_replayed", float64(first.info.Redone))
	count("recovery.segments_scanned", float64(first.info.SegmentsScanned))
	count("recovery.segments_skipped", float64(first.info.SegmentsSkipped))
	count("recovery.virtual_ms", ms(first.info.Virtual))

	if err := runKernels(&fixture{}, w.Name, tr, time.Duration(float64(total)*kernelShare)); err != nil {
		return nil, err
	}
	for k, v := range spanMetrics(tr.spans) {
		got[k] = v
	}
	fillPerLayer(got)
	rep.PerLayer = got
	rep.TraceFile = tracePath(rc.OutDir, w.Name)
	return rep, writeTraceFile(rep.TraceFile, tr.spans)
}

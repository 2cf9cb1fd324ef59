package extsort

import (
	"context"
	"fmt"

	"mmdb/internal/cost"
	"mmdb/internal/exec"
	"mmdb/internal/heap"
	"mmdb/internal/tuple"
)

// chunkResult is what one formation worker hands back: either an in-memory
// sorted slice (the chunk fit its queue share) or a set of run files living
// on the worker's disk view, plus the chunk's stats and the worker clock
// whose counters fold into the global clock at the fan-in.
type chunkResult struct {
	sorted []tuple.Tuple
	runs   []*heap.File
	stats  Stats
	clock  *cost.Clock
}

// sortChunked executes the chunked plan: `chunks` formation workers, each
// running replacement selection (and any intermediate merge passes) over
// its own page range with MemTuples/chunks queue slots on a private clock
// view, then a merge tree whose root fans in one stream per chunk.
//
// Counters are width-independent by construction: each chunk's work is a
// pure function of its page range and slot count, worker clocks fold into
// the base clock at the fan-in barrier (counter addition commutes), and
// everything after the barrier — re-homing run files, priming the merge
// heads, the root selection tree — runs on the caller's goroutine against
// the base clock.
func sortChunked(f *heap.File, cfg Config, chunks int) (Stream, Stats, error) {
	disk := f.Disk()
	baseClock := disk.Clock()
	slots := cfg.MemTuples / chunks
	if slots < 2 {
		slots = 2 // planChunks guarantees this; keep the invariant local
	}
	// Per-chunk fanout budget: the merge tree holds one buffer page per
	// open run in every chunk, so dividing MaxFanout keeps the total at
	// most MaxFanout pages — up to the same floor of 2 the flat merge has.
	chunkFanout := 0
	if cfg.MaxFanout > 1 {
		chunkFanout = cfg.MaxFanout / chunks
		if chunkFanout < 2 {
			chunkFanout = 2
		}
	}

	np := f.NumPages()
	results := make([]chunkResult, chunks)
	pool := exec.NewPool(cfg.Parallelism)
	err := pool.ForEach(context.Background(), chunks, func(_ context.Context, i int) error {
		start := i * np / chunks
		end := (i + 1) * np / chunks
		wc := cost.NewClock(baseClock.Params())
		results[i].clock = wc
		wf, err := f.OnDisk(disk.View(wc))
		if err != nil {
			return err
		}
		prefix := fmt.Sprintf("%s.c%d", cfg.Prefix, i)
		runs, sorted, err := replacementSelect(wf, start, end, cfg.Col, slots, prefix, cfg.Input, true)
		if err != nil {
			return err
		}
		if sorted != nil {
			results[i].sorted = sorted
			results[i].stats = Stats{Runs: 1, InMemory: true}
			return nil
		}
		st := Stats{Runs: len(runs)}
		if chunkFanout > 1 {
			for len(runs) > chunkFanout {
				runs, err = mergePass(runs, cfg.Col, chunkFanout, fmt.Sprintf("%s.m%d", prefix, st.MergePasses))
				if err != nil {
					return err
				}
				st.MergePasses++
			}
		}
		st.FinalRuns = len(runs)
		results[i].runs = runs
		results[i].stats = st
		return nil
	})

	// Fan-in barrier: fold every worker clock that ran, in chunk order.
	// On success this is where the chunk counters become globally visible;
	// on error it keeps the global clock consistent with the IO that
	// actually happened before cleanup.
	for i := range results {
		if results[i].clock != nil {
			baseClock.Charge(results[i].clock.Counters())
		}
	}
	if err != nil {
		for i := range results {
			dropAll(results[i].runs)
		}
		return nil, Stats{}, err
	}

	stats := Stats{Chunks: chunks, InMemory: true}
	streams := make([]Stream, chunks)
	fail := func(err error) (Stream, Stats, error) {
		for _, s := range streams {
			if s != nil {
				s.Close()
			}
		}
		for i := range results {
			dropAll(results[i].runs)
		}
		return nil, Stats{}, err
	}
	for i := range results {
		stats.add(results[i].stats)
		if results[i].sorted != nil {
			streams[i] = &sliceStream{items: results[i].sorted}
			continue
		}
		stats.InMemory = false
		// Re-home the worker's run files so the merge reads charge the
		// base clock; priming below happens serially in chunk order.
		rehomed := make([]*heap.File, len(results[i].runs))
		for k, rf := range results[i].runs {
			h, err := rf.OnDisk(disk)
			if err != nil {
				return fail(err)
			}
			rehomed[k] = h
		}
		ms, err := mergeRuns(rehomed, cfg.Col)
		if err != nil {
			return fail(err)
		}
		results[i].runs = nil // owned by the stream now
		streams[i] = ms
	}

	// With more than one worker the interior nodes run eagerly on their
	// own goroutines behind bounded channels; at width 1 the root pulls
	// them lazily inline. Charges are identical either way — see the
	// Close/drain contract on Stream.
	if cfg.workers() > 1 {
		for i := range streams {
			streams[i] = newBatchPumpStream(streams[i], pumpBuffer)
		}
	}
	root, err := newTreeStream(streams, f.Schema(), cfg.Col, baseClock)
	if err != nil {
		return fail(err)
	}
	return root, stats, nil
}

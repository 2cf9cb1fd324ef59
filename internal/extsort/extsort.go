// Package extsort implements the sort machinery of the paper's sort-merge
// join (§3.4): replacement-selection run formation producing runs of
// roughly twice the memory size [KNUT73], followed by an n-way merge using
// one buffer page per run.
//
// IO accounting follows the paper: run pages are written sequentially
// (IOseq) and read back during the merge with random IO (IOrand), giving
// the (|R|+|S|)*IOseq + (|R|+|S|)*IOrand terms of the sort-merge cost
// formula. When the input fits in the priority queue it is sorted entirely
// in memory, which is why the paper's sort-merge curve improves above
// |M| = |S|*F.
//
// # Parallel execution
//
// A sort has two independent knobs, mirroring the hash joins' GraceParts
// vs Parallelism split:
//
//   - Config.Chunks is the *plan*: the input's pages are split into that
//     many contiguous ranges, each sorted by replacement selection with
//     MemTuples/Chunks queue slots into its own run namespace, and the
//     chunk streams are combined by a merge tree whose root fans in one
//     stream per chunk. Chunks determines the virtual counters (more,
//     shorter runs; an extra merge level) and must not depend on the
//     worker count.
//   - Config.Parallelism is the *schedule*: how many exec.Pool workers
//     form chunks concurrently, and whether the merge tree's interior
//     nodes run eagerly on their own goroutines (bounded channels) or are
//     pulled lazily inline. For a fixed plan the charged counters are
//     bit-identical at every width — per-chunk work does not change and
//     counter addition commutes — so Parallelism trades wall-clock time
//     only, never the paper's accounting.
//
// Chunks <= 1 is exactly the original serial algorithm: one replacement-
// selection queue, flat merge passes, a single selection tree, and lazy
// (consumption-driven) merge IO. Chunked streams instead charge the full
// merge cost: abandoning one early and calling Close finishes the
// remaining run reads so the totals stay schedule-independent.
package extsort

import (
	"bytes"
	"fmt"

	"mmdb/internal/exec"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// Stream yields tuples in non-decreasing key order. After Next returns
// ok=false, Err reports any underlying failure. Close releases the sort's
// temporary run files and must be called (it is idempotent); on a chunked
// stream it also completes any remaining run reads so the charged counters
// never depend on how far the consumer got or on worker scheduling.
type Stream interface {
	Next() (tuple.Tuple, bool)
	Err() error
	Close() error
}

// Stats describes how a sort executed.
type Stats struct {
	Runs        int  // number of initial runs formed (across all chunks)
	FinalRuns   int  // runs merged by the on-the-fly merge (across all chunks)
	MergePasses int  // deepest chain of intermediate merge passes (0 under the paper's |M| >= sqrt(|S|*F) assumption)
	Chunks      int  // run-formation chunks (1 = the classic single queue)
	InMemory    bool // true when no run files were needed
}

// add folds a per-chunk stats contribution into the totals.
func (s *Stats) add(o Stats) {
	s.Runs += o.Runs
	s.FinalRuns += o.FinalRuns
	if o.MergePasses > s.MergePasses {
		s.MergePasses = o.MergePasses
	}
}

// Config describes one sort execution (see the package comment for the
// Chunks/Parallelism split).
type Config struct {
	Col       int          // sort column
	MemTuples int          // priority-queue memory, in tuples (>= 2)
	MaxFanout int          // bound on simultaneously open runs; <= 0 means unlimited
	Prefix    string       // temporary run files are named Prefix[.cN].run.K
	Input     simio.Access // access kind charged for the input scan
	// Chunks splits run formation into that many page-range chunks, each
	// with MemTuples/Chunks queue slots. 0 or 1 means the classic single
	// queue. Chunks is clamped so every chunk keeps at least 2 slots and
	// at least one input page.
	Chunks int
	// Parallelism bounds the formation worker goroutines and switches the
	// merge tree to eager interior nodes; 0 or 1 means serial inline
	// execution, a negative value means one worker per CPU. Counters are
	// identical at every setting for a fixed Chunks.
	Parallelism int
}

// Sort sorts file f on column col using at most memTuples tuples of
// priority-queue memory — the classic serial plan (Chunks=1). Temporary
// run files are named prefix.run.N. The input is scanned with inputAccess
// (Uncharged for base relations, per the paper's convention of ignoring
// the initial read).
//
// maxFanout bounds how many runs the final merge may hold open (one buffer
// page each). When the initial runs exceed it, intermediate merge passes
// combine them first — the ">2 phases" case the paper's memory assumption
// excludes, kept here so the operator degrades instead of failing.
// maxFanout <= 0 means unlimited.
func Sort(f *heap.File, col int, memTuples int, maxFanout int, prefix string, inputAccess simio.Access) (Stream, Stats, error) {
	return SortWith(f, Config{
		Col: col, MemTuples: memTuples, MaxFanout: maxFanout,
		Prefix: prefix, Input: inputAccess,
	})
}

// SortWith sorts file f under cfg. The returned stream owns the sort's
// temporary run files; Close it when done (draining to ok=false also
// releases everything).
func SortWith(f *heap.File, cfg Config) (Stream, Stats, error) {
	if cfg.MemTuples < 2 {
		return nil, Stats{}, fmt.Errorf("extsort: need at least 2 tuples of memory, got %d", cfg.MemTuples)
	}
	chunks := planChunks(f, cfg)
	if chunks > 1 {
		return sortChunked(f, cfg, chunks)
	}

	disk := f.Disk()
	clock := disk.Clock()
	schema := f.Schema()

	if f.NumTuples() <= int64(cfg.MemTuples) {
		// Fully in-memory: heap-sort via the same counting priority queue.
		q := newKQueue(clock, kindKey, int(f.NumTuples()))
		err := f.Scan(cfg.Input, func(t tuple.Tuple) bool {
			q.Push(item{key: schema.KeyBytes(t, cfg.Col), tup: t.Clone()})
			return true
		})
		if err != nil {
			return nil, Stats{}, err
		}
		return &memStream{q: q}, Stats{Runs: 1, Chunks: 1, InMemory: true}, nil
	}

	runs, err := formRuns(f, cfg.Col, cfg.MemTuples, cfg.Prefix, cfg.Input)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Runs: len(runs), Chunks: 1}
	if cfg.MaxFanout > 1 {
		for len(runs) > cfg.MaxFanout {
			runs, err = mergePass(runs, cfg.Col, cfg.MaxFanout, fmt.Sprintf("%s.m%d", cfg.Prefix, stats.MergePasses))
			if err != nil {
				dropAll(runs)
				return nil, Stats{}, err
			}
			stats.MergePasses++
		}
	}
	stats.FinalRuns = len(runs)
	ms, err := mergeRuns(runs, cfg.Col)
	if err != nil {
		dropAll(runs)
		return nil, Stats{}, err
	}
	return ms, stats, nil
}

// planChunks clamps the configured chunk count to the plan-determined
// bounds: at least 2 queue slots and at least one input page per chunk.
// The result depends only on the input and the memory budget, never on
// Parallelism, which is what keeps counters width-independent.
func planChunks(f *heap.File, cfg Config) int {
	chunks := cfg.Chunks
	if chunks < 2 {
		return 1
	}
	if max := cfg.MemTuples / 2; chunks > max {
		chunks = max
	}
	if np := f.NumPages(); chunks > np {
		chunks = np
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// dropAll removes a set of run files, tolerating nils.
func dropAll(runs []*heap.File) {
	for _, r := range runs {
		if r != nil {
			r.Drop()
		}
	}
}

// mergePass merges groups of up to fanout runs into longer runs, reading
// run pages with random IO and writing the merged output sequentially.
// On error every input run and the partial output are dropped.
func mergePass(runs []*heap.File, col, fanout int, prefix string) ([]*heap.File, error) {
	var next []*heap.File
	fail := func(ms Stream, out *heap.File, err error) ([]*heap.File, error) {
		if ms != nil {
			ms.Close()
		}
		if out != nil {
			out.Drop()
		}
		dropAll(next)
		dropAll(runs)
		return nil, err
	}
	for i := 0; i < len(runs); i += fanout {
		j := i + fanout
		if j > len(runs) {
			j = len(runs)
		}
		group := runs[i:j]
		if len(group) == 1 {
			next = append(next, group[0])
			runs[i] = nil // owned by next now
			continue
		}
		ms, err := mergeRuns(group, col)
		if err != nil {
			return fail(nil, nil, err)
		}
		out, err := heap.Create(group[0].Disk(), fmt.Sprintf("%s.%d", prefix, len(next)), group[0].Schema())
		if err != nil {
			return fail(ms, nil, err)
		}
		for {
			t, ok := ms.Next()
			if !ok {
				break
			}
			if err := out.Append(t, simio.Seq); err != nil {
				return fail(ms, out, err)
			}
		}
		if err := ms.Err(); err != nil {
			return fail(ms, out, err)
		}
		if err := out.Flush(simio.Seq); err != nil {
			return fail(ms, out, err)
		}
		ms.Close() // drops the group's (already exhausted) run files
		for k := i; k < j; k++ {
			runs[k] = nil
		}
		next = append(next, out)
	}
	return next, nil
}

// formRuns performs replacement selection with a queue of memTuples
// elements, writing each run to its own heap file with sequential IO.
// Run files are created lazily (on first emit) and dropped on error.
func formRuns(f *heap.File, col int, memTuples int, prefix string, inputAccess simio.Access) ([]*heap.File, error) {
	runs, sorted, err := replacementSelect(f, 0, f.NumPages(), col, memTuples, prefix, inputAccess, false)
	if err != nil {
		return nil, err
	}
	if sorted != nil {
		// Unreachable from Sort (the in-memory case is handled before
		// formRuns), but keep formRuns total.
		panic("extsort: formRuns produced an in-memory result")
	}
	return runs, nil
}

// replacementSelect runs Knuth's algorithm 5.4.1R over pages [start, end)
// of f with a queue of slots elements. When allowMem is set and the whole
// range fits the queue, no run file is written and the sorted tuples are
// returned in memory instead — the chunked sort's per-chunk shortcut.
// On error, every run file created so far is dropped.
func replacementSelect(f *heap.File, start, end, col, slots int, prefix string, inputAccess simio.Access, allowMem bool) ([]*heap.File, []tuple.Tuple, error) {
	disk := f.Disk()
	clock := disk.Clock()
	schema := f.Schema()

	q := newKQueue(clock, kindRunThenKey, slots)
	var runs []*heap.File
	var out *heap.File
	curRun := 0

	newRunFile := func() (*heap.File, error) {
		rf, err := heap.Create(disk, fmt.Sprintf("%s.run.%d", prefix, len(runs)), schema)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rf)
		return rf, nil
	}

	emit := func(it item) error {
		if out == nil {
			var err error
			if out, err = newRunFile(); err != nil {
				return err
			}
			curRun = it.run
		} else if it.run != curRun {
			if err := out.Flush(simio.Seq); err != nil {
				return err
			}
			var err error
			if out, err = newRunFile(); err != nil {
				return err
			}
			curRun = it.run
		}
		return out.Append(it.tup, simio.Seq)
	}

	var err error
	scanErr := f.ScanRange(start, end, inputAccess, func(t tuple.Tuple) bool {
		tc := t.Clone() // the scan's tuple view is reused; retain a copy
		it := item{run: curRun, key: schema.KeyBytes(tc, col), tup: tc}
		if q.Len() < slots {
			q.Push(it)
			return true
		}
		top := q.Peek()
		// The incoming tuple joins the current run if it can still be
		// emitted after the smallest queued key; otherwise it waits for
		// the next run. One comparison, as in Knuth's algorithm 5.4.1R.
		clock.Comps(1)
		if compareKeys(it.key, top.key) >= 0 {
			it.run = top.run
		} else {
			it.run = top.run + 1
		}
		popped := q.Replace(it)
		err = emit(popped)
		return err == nil
	})
	if scanErr == nil {
		scanErr = err
	}
	if scanErr != nil {
		dropAll(runs)
		return nil, nil, scanErr
	}
	if allowMem && out == nil {
		// The whole range fit the queue: drain it in memory, run-then-key
		// order (every element is in run 0, so this is key order).
		sorted := make([]tuple.Tuple, 0, q.Len())
		for q.Len() > 0 {
			sorted = append(sorted, q.Pop().tup)
		}
		return nil, sorted, nil
	}
	for q.Len() > 0 {
		if err := emit(q.Pop()); err != nil {
			dropAll(runs)
			return nil, nil, err
		}
	}
	if out != nil {
		if err := out.Flush(simio.Seq); err != nil {
			dropAll(runs)
			return nil, nil, err
		}
	}
	return runs, nil, nil
}

// compareKeys is lexicographic with shorter-is-smaller length tie-break —
// exactly bytes.Compare, which replaced the original byte loop (same
// results, so same charges; the SIMD-backed compare is a pure wall-time
// win).
func compareKeys(a, b []byte) int { return bytes.Compare(a, b) }

// workers normalizes the config's Parallelism to a worker count.
func (c Config) workers() int { return exec.Workers(c.Parallelism) }

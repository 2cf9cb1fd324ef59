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
// # Chunks and parallel execution
//
// There is one pipeline; a sort has two independent knobs over it,
// mirroring the hash joins' GraceParts vs Parallelism split:
//
//   - Config.Chunks is the *plan*: the input's pages are split into that
//     many contiguous ranges, each sorted by replacement selection with
//     MemTuples/Chunks queue slots into its own run namespace. A chunk
//     whose range fits its queue writes no run: its selection tree is its
//     stream, popped as the consumer pulls. Any other chunk's stream
//     merges its runs. More than one chunk adds a root merge that fans in
//     one stream per chunk; with one chunk (Chunks <= 1) the chunk's
//     stream is the sort's. Chunks determines the virtual counters (more,
//     shorter runs; an extra merge level) and must not depend on the
//     worker count.
//   - Config.Parallelism is the *schedule*: how many exec.Pool workers
//     form chunks concurrently. The fan-out finishes before SortWith
//     returns, and the root pulls its children inline at every width, so
//     the width picks no code. For a fixed plan the charged counters are
//     bit-identical at every width — per-chunk work does not change and
//     counter addition commutes — so Parallelism trades wall-clock time
//     only, never the paper's accounting.
//
// The sort has one clock, the one its input's disk charges: the workers
// share it, every page IO lands on it directly, and each selection tree
// tallies its comparisons and swaps and adds them to it once per pull
// (kernel.go), so sharing it costs no per-comparison contention.
//
// A one-chunk stream charges as the consumer pulls: abandoning it early
// and calling Close reads no more run pages and pops no more tuples, which
// is the serial sort the paper prices and what sort-merge's merging join,
// which stops at the end of either input, is charged. A multi-chunk
// stream's Close finishes every chunk stream instead, so its totals do not
// depend on how far the consumer got.
package extsort

import (
	"bytes"
	"context"
	"fmt"

	"mmdb/internal/exec"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// Stream yields tuples in non-decreasing key order. After Next returns
// ok=false, Err reports any underlying failure. Close releases the sort's
// temporary run files and must be called (it is idempotent); on a
// multi-chunk stream it also finishes every chunk stream so the charged
// counters never depend on how far the consumer got.
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
	Chunks      int  // run-formation chunks
	InMemory    bool // true when no run files were needed
}

// add folds a per-chunk stats contribution into the totals.
func (s *Stats) add(o Stats) {
	s.Runs += o.Runs
	s.FinalRuns += o.FinalRuns
	s.MergePasses = max(s.MergePasses, o.MergePasses)
	s.InMemory = s.InMemory && o.InMemory
}

// Config describes one sort execution (see the package comment for the
// Chunks/Parallelism split).
type Config struct {
	Col       int          // sort column
	MemTuples int          // priority-queue memory, in tuples (>= 2)
	MaxFanout int          // bound on simultaneously open runs; <= 0 means unlimited
	Prefix    string       // temporary run files are named Prefix.cN.run.K
	Input     simio.Access // access kind charged for the input scan
	// Chunks splits run formation into that many page-range chunks, each
	// with MemTuples/Chunks queue slots. 0 or 1 means one chunk: a single
	// queue and no root merge. Chunks is clamped so every chunk keeps at
	// least 2 slots and at least one input page.
	Chunks int
	// Parallelism bounds the formation workers; 0 or 1 means serial inline
	// execution, a negative value means one worker per CPU. Counters are
	// identical at every setting for a fixed Chunks.
	Parallelism int
}

// WithMemory returns c sized for a sort of f that has m pages of memory
// to itself (a relation sort, not one of sort-merge's two): a queue of m
// pages' worth of f's tuples divided by the structure overhead fudge (at
// least 2 tuples), and a final merge holding up to m runs open, one
// buffer page each.
func (c Config) WithMemory(f *heap.File, m int, fudge float64) Config {
	c.MemTuples = max(2, int(float64(m)*float64(f.TuplesPerPage())/fudge))
	c.MaxFanout = m
	return c
}

// SortWith sorts file f under cfg. The input is scanned with cfg.Input
// (Uncharged for base relations, per the paper's convention of ignoring
// the initial read). When a chunk's initial runs exceed its share of
// MaxFanout, intermediate merge passes combine them first — the ">2
// phases" case the paper's memory assumption excludes, kept so the
// operator degrades instead of failing. The returned stream owns the
// sort's temporary run files; Close it when done (draining to ok=false
// also releases everything).
//
// The whole sort charges one clock, the one f's disk charges: chunk
// workers read f and write their runs on f's disk, and their selection
// trees flush their tallies to it. The workers are done when SortWith
// returns; the stream starts no goroutine, and the root merge pulls every
// chunk stream inline. Counters are width-independent by construction:
// each chunk's formation is a pure function of its page range and slot
// count, and counter addition commutes.
func SortWith(f *heap.File, cfg Config) (Stream, Stats, error) {
	if cfg.MemTuples < 2 {
		return nil, Stats{}, fmt.Errorf("extsort: need at least 2 tuples of memory, got %d", cfg.MemTuples)
	}
	chunks := planChunks(f, cfg)
	slots := cfg.MemTuples / chunks // planChunks keeps this >= 2
	// Per-chunk fanout budget: the merges hold one buffer page per open
	// run in every chunk, so dividing MaxFanout keeps the total at most
	// MaxFanout pages — up to a floor of 2.
	fanout := 0
	if cfg.MaxFanout > 1 {
		fanout = max(2, cfg.MaxFanout/chunks)
	}

	np := f.NumPages()
	results := make([]chunk, chunks)
	err := exec.NewPool(cfg.Parallelism).ForEach(context.Background(), chunks, func(_ context.Context, i int) error {
		prefix := fmt.Sprintf("%s.c%d", cfg.Prefix, i)
		return results[i].form(f, i*np/chunks, (i+1)*np/chunks, cfg.Col, slots, fanout, prefix, cfg.Input)
	})
	streams := make([]Stream, 0, chunks)
	fail := func(err error) (Stream, Stats, error) {
		for _, s := range streams {
			s.Close()
		}
		for i := range results {
			dropAll(results[i].runs)
		}
		return nil, Stats{}, err
	}
	if err != nil {
		return fail(err)
	}

	stats := Stats{Chunks: chunks, InMemory: true}
	for i := range results {
		stats.add(results[i].stats)
		s, err := results[i].stream(cfg.Col)
		if err != nil {
			return fail(err)
		}
		streams = append(streams, s)
	}
	if chunks == 1 {
		return streams[0], stats, nil
	}
	// The root pulls its children inline, and drainOnClose finishes each
	// on Close, so a multi-chunk bill does not depend on where the
	// consumer stopped.
	for i, s := range streams {
		streams[i] = drainOnClose{s}
	}
	root, err := newMergeStream(streams, f.Schema(), cfg.Col, f.Disk().Clock())
	if err != nil {
		return nil, Stats{}, err
	}
	return root, stats, nil
}

// planChunks clamps the configured chunk count to the plan-determined
// bounds: at least 2 queue slots and at least one input page per chunk.
// The result depends only on the input and the memory budget, never on
// Parallelism, which is what keeps counters width-independent.
func planChunks(f *heap.File, cfg Config) int {
	return max(1, min(cfg.Chunks, cfg.MemTuples/2, f.NumPages()))
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
		group := runs[i:min(i+fanout, len(runs))]
		if len(group) == 1 {
			next = append(next, group[0])
			group[0] = nil // owned by next now
			continue
		}
		disk, schema := group[0].Disk(), group[0].Schema()
		ms, err := mergeRuns(group, col)
		clear(group) // owned by the merge now, which drops them
		if err != nil {
			return fail(nil, nil, err)
		}
		out, err := heap.Create(disk, fmt.Sprintf("%s.%d", prefix, len(next)), schema)
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
		next = append(next, out)
	}
	return next, nil
}

// replacementSelect runs Knuth's algorithm 5.4.1R over pages [start, end)
// of f with a queue of slots elements, allocated for no more than the
// range's tuples. When the whole range fits the queue, no run file is
// written and the filled queue is returned instead, to be popped in key
// order (every element is in run 0). The queued tuples are views of f's
// pages, which stay as they are while the sort's caller holds f
// (docs/ARCHITECTURE.md, "Page lifetime"). On error, every run file
// created so far is dropped.
func replacementSelect(f *heap.File, start, end, col, slots int, prefix string, inputAccess simio.Access) ([]*heap.File, *kqueue, error) {
	disk := f.Disk()
	schema := f.Schema()

	q := newKQueue(disk.Clock(), kindRunThenKey, min(slots, (end-start)*f.TuplesPerPage()))
	defer q.charge()
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
		it := item{run: curRun, key: schema.KeyBytes(t, col), tup: t}
		if q.Len() < slots {
			q.Push(it)
			return true
		}
		top := q.Peek()
		// The incoming tuple joins the current run if it can still be
		// emitted after the smallest queued key; otherwise it waits for
		// the next run. One comparison, as in Knuth's algorithm 5.4.1R.
		q.comps++
		if bytes.Compare(it.key, top.key) >= 0 {
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
	if out == nil {
		return nil, q, nil
	}
	for q.Len() > 0 {
		if err := emit(q.Pop()); err != nil {
			dropAll(runs)
			return nil, nil, err
		}
	}
	if err := out.Flush(simio.Seq); err != nil {
		dropAll(runs)
		return nil, nil, err
	}
	return runs, nil, nil
}

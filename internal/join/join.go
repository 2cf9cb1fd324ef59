// Package join implements the four join algorithms evaluated in §3 of the
// paper — Sort-Merge, Simple Hash, GRACE Hash and Hybrid Hash — as
// executable operators over simulated paged storage, plus a nested-loops
// reference oracle for testing.
//
// Each algorithm does the real work (sorting, hashing, partitioning,
// probing) and charges every primitive operation to the disk's virtual
// clock with the same accounting discipline as the paper's cost formulas:
// one hash per tuple per pass, one move per tuple placed in a table or
// output buffer, one comparison per probe candidate or sort comparison,
// and IOseq/IOrand per intermediate page written or read. The initial scan
// of the base relations and the writing of the result are uncharged (§3.2).
package join

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/cost"
	"mmdb/internal/exec"
	"mmdb/internal/extsort"
	"mmdb/internal/heap"
	"mmdb/internal/tuple"
)

// Algorithm selects a join implementation.
type Algorithm int

// The implemented algorithms.
const (
	NestedLoops Algorithm = iota // reference oracle (uncharged)
	SortMerge
	SimpleHash
	GraceHash
	HybridHash
)

// String returns the algorithm's name as used in experiment output.
func (a Algorithm) String() string {
	switch a {
	case NestedLoops:
		return "nested-loops"
	case SortMerge:
		return "sort-merge"
	case SimpleHash:
		return "simple-hash"
	case GraceHash:
		return "grace-hash"
	case HybridHash:
		return "hybrid-hash"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Spec describes one join execution.
type Spec struct {
	R, S       *heap.File // R is the smaller (build) relation, per §3.2
	RCol, SCol int        // equijoin columns
	M          int        // pages of main memory available (the paper's |M|)
	F          float64    // fudge factor; 0 means the Table 2 value 1.2
	GraceParts int        // GRACE partition count; 0 means a fragmentation-aware fit (see grace.go)
	// HybridSkew scales hybrid hash's partition count above the paper's
	// exact-fit minimum B = ceil((|R|F-|M|)/(|M|-1)) to absorb hash
	// variance. 0 means 1.25; 1.0 reproduces the paper's formula verbatim
	// (and risks the recursive overflow pass of §3.3).
	HybridSkew float64
	// LiveM, when non-nil, reports the join's memory grant in pages as of
	// now: the session broker can shrink or revoke a grant mid-query, and
	// hybrid hash responds by spilling its resident partition and falling
	// back to GRACE-style recursive bucket joins instead of failing
	// (Result.GraceFallback records that this happened). M remains the
	// planning-time grant used to pick partition counts. The function must
	// be safe to call from multiple goroutines and is never trusted below
	// the 2-page floor every join path assumes.
	LiveM func() int
	// Parallelism bounds the worker goroutines the partition phases of
	// GRACE and hybrid hash may use: the bucket pairs of §3.6/§3.7 are
	// independent, so they fan out over a worker pool. Sort-merge uses the
	// same knob: the two relation sorts overlap, and each sort's formation
	// chunks and merge-tree nodes run on up to Parallelism workers. 0 or 1
	// means serial execution on the calling goroutine, exactly the
	// original engine; a negative value means one worker per CPU
	// (GOMAXPROCS). The virtual clock's counters are identical at every
	// setting — the per-partition (and per-chunk) work does not change,
	// and counter addition commutes — so Parallelism trades wall-clock
	// time only. Emit callbacks are serialized (never called
	// concurrently), but their order changes with the schedule when
	// Parallelism > 1.
	Parallelism int
	// SortChunks is sort-merge's decomposition plan: each relation sort
	// splits run formation into this many page-range chunks (each with a
	// proportional share of the queue memory) combined by a merge tree.
	// Like GraceParts it changes the virtual counters — more, shorter
	// runs; an extra selection-tree level — and is therefore a plan knob,
	// deliberately separate from Parallelism: a chunked plan charges
	// identical counters whether 1 or 8 workers execute it. 0 or 1 means
	// the classic single-queue sort.
	SortChunks int
}

// workers returns the effective worker count for the spec.
func (s Spec) workers() int { return exec.Workers(s.Parallelism) }

// liveM returns the memory currently granted, in pages: M when no live
// grant is wired, otherwise LiveM() clamped to the 2-page floor.
func (s Spec) liveM() int {
	if s.LiveM == nil {
		return s.M
	}
	if m := s.LiveM(); m >= 2 {
		return m
	}
	return 2
}

func (s Spec) withDefaults() Spec {
	if s.F == 0 {
		s.F = 1.2
	}
	return s
}

func (s Spec) validate() error {
	if s.R == nil || s.S == nil {
		return fmt.Errorf("join: spec needs both relations")
	}
	if s.M < 2 {
		return fmt.Errorf("join: need at least 2 pages of memory, got %d", s.M)
	}
	if s.F < 1 {
		return fmt.Errorf("join: fudge factor %g must be >= 1", s.F)
	}
	if s.RCol < 0 || s.RCol >= s.R.Schema().NumFields() {
		return fmt.Errorf("join: R column %d out of range", s.RCol)
	}
	if s.SCol < 0 || s.SCol >= s.S.Schema().NumFields() {
		return fmt.Errorf("join: S column %d out of range", s.SCol)
	}
	rw := s.R.Schema().FieldWidth(s.RCol)
	sw := s.S.Schema().FieldWidth(s.SCol)
	if rw != sw || s.R.Schema().Field(s.RCol).Kind != s.S.Schema().Field(s.SCol).Kind {
		return fmt.Errorf("join: join columns have incompatible types")
	}
	return nil
}

// Emit receives one joined pair. The tuple views are only valid during the
// call.
type Emit func(r, s tuple.Tuple)

// Result reports a join execution.
type Result struct {
	Algorithm  Algorithm
	Matches    int64         // joined pairs produced
	Counters   cost.Counters // operations charged by this join
	Elapsed    time.Duration // virtual time consumed
	Passes     int           // simple hash: passes; hash joins: 1 + recursion depth
	Partitions int           // disk partitions created at the top level
	// GraceFallback reports that a mid-query memory-grant revocation made
	// hybrid hash spill its resident partition and finish GRACE-style.
	GraceFallback bool
	// RSort and SSort report how sort-merge sorted each relation (runs
	// formed, intermediate passes, in-memory shortcuts); zero for the
	// other algorithms.
	RSort, SSort extsort.Stats
}

var tmpSeq atomic.Uint64

func tmpPrefix(a Algorithm) string {
	return fmt.Sprintf("tmp.%s.%d", a, tmpSeq.Add(1))
}

// Run executes the join with the given algorithm, streaming matches to
// emit (which may be nil to count only).
func Run(a Algorithm, spec Spec, emit Emit) (Result, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	clock := spec.R.Disk().Clock()
	res := Result{Algorithm: a}
	parallel := spec.workers() > 1
	var matches atomic.Int64
	var emitMu sync.Mutex
	var counted Emit
	if parallel {
		// Parallel partition workers emit concurrently: count matches
		// atomically and serialize the user's callback so it never runs
		// on two goroutines at once.
		counted = func(r, s tuple.Tuple) {
			matches.Add(1)
			if emit != nil {
				emitMu.Lock()
				emit(r, s)
				emitMu.Unlock()
			}
		}
	} else {
		counted = func(r, s tuple.Tuple) {
			res.Matches++
			if emit != nil {
				emit(r, s)
			}
		}
	}
	before := clock.Counters()
	t0 := clock.Now()
	var err error
	switch a {
	case NestedLoops:
		err = nestedLoops(spec, counted)
	case SortMerge:
		err = sortMerge(spec, counted, &res)
	case SimpleHash:
		err = simpleHash(spec, counted, &res)
	case GraceHash:
		err = graceHash(spec, counted, &res)
	case HybridHash:
		err = hybridHash(spec, counted, &res)
	default:
		err = fmt.Errorf("join: unknown algorithm %v", a)
	}
	if err != nil {
		return Result{}, err
	}
	if parallel {
		res.Matches = matches.Load()
	}
	res.Counters = clock.Counters().Sub(before)
	res.Elapsed = clock.Now() - t0
	return res, nil
}

// tableCapacity returns how many tuples of f a hash (or sort) structure
// occupying m pages can hold, accounting for the fudge factor: a structure
// holding n tuples occupies n*F/tuplesPerPage pages (§3.2).
func tableCapacity(m int, f *heap.File, fudge float64) int {
	c := int(float64(m) * float64(f.TuplesPerPage()) / fudge)
	if c < 1 {
		c = 1
	}
	return c
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

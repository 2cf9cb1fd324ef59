package join

// Parallel-execution determinism: a join at Parallelism=8 must produce the
// same match multiset and — because per-partition work is unchanged and
// counter addition commutes — bit-identical Counters, Passes and
// Partitions as the serial run. These tests are the -race exercise for the
// worker pool, the sharded hash table, and the atomic clock.

import (
	"sync"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/fault"
	"mmdb/internal/heap"
	"mmdb/internal/tuple"
)

// runCase builds identical relations on a fresh disk and runs the join at
// the given parallelism, returning the match multiset and Result.
func runCase(t *testing.T, a Algorithm, nR, nS int, domain int64, m, graceParts, parallelism int) (map[string]int, Result) {
	t.Helper()
	disk, _ := testEnv()
	r := makeRelation(t, disk, "R", nR, domain, 21)
	s := makeRelation(t, disk, "S", nS, domain, 22)
	return matches(t, a, Spec{R: r, S: s, M: m, GraceParts: graceParts, Parallelism: parallelism})
}

func TestParallelJoinMatchesSerialExactly(t *testing.T) {
	cases := []struct {
		name       string
		alg        Algorithm
		nR, nS     int
		domain     int64
		m          int
		graceParts int
	}{
		{name: "grace-many-partitions", alg: GraceHash, nR: 600, nS: 900, domain: 200, m: 24, graceParts: 16},
		{name: "grace-default-partitions", alg: GraceHash, nR: 500, nS: 700, domain: 150, m: 10},
		{name: "grace-overflow-recursion", alg: GraceHash, nR: 400, nS: 600, domain: 50, m: 5},
		{name: "hybrid-partitioned", alg: HybridHash, nR: 600, nS: 900, domain: 200, m: 20},
		{name: "hybrid-all-resident", alg: HybridHash, nR: 300, nS: 500, domain: 100, m: 300},
		{name: "hybrid-tight", alg: HybridHash, nR: 400, nS: 600, domain: 50, m: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantSet, want := runCase(t, tc.alg, tc.nR, tc.nS, tc.domain, tc.m, tc.graceParts, 1)
			gotSet, got := runCase(t, tc.alg, tc.nR, tc.nS, tc.domain, tc.m, tc.graceParts, 8)
			if !sameMultiset(gotSet, wantSet) {
				t.Errorf("parallel match multiset differs from serial")
			}
			if got.Matches != want.Matches {
				t.Errorf("Matches: parallel %d, serial %d", got.Matches, want.Matches)
			}
			if got.Counters != want.Counters {
				t.Errorf("Counters diverge:\n  parallel %v\n  serial   %v", got.Counters, want.Counters)
			}
			if got.Passes != want.Passes || got.Partitions != want.Partitions {
				t.Errorf("shape diverges: parallel passes=%d parts=%d, serial passes=%d parts=%d",
					got.Passes, got.Partitions, want.Passes, want.Partitions)
			}
			if got.Elapsed != want.Elapsed {
				t.Errorf("virtual time diverges: parallel %v, serial %v", got.Elapsed, want.Elapsed)
			}
		})
	}
}

// runSortCase is runCase for sort-merge: the chunk plan is pinned while
// the width varies, mirroring how GraceParts stays fixed above.
func runSortCase(t *testing.T, nR, nS int, domain int64, m, chunks, parallelism int) (map[string]int, Result) {
	t.Helper()
	disk, _ := testEnv()
	r := makeRelation(t, disk, "R", nR, domain, 33)
	s := makeRelation(t, disk, "S", nS, domain, 34)
	return matches(t, SortMerge, Spec{R: r, S: s, M: m, SortChunks: chunks, Parallelism: parallelism})
}

// TestParallelSortMergeMatchesSerialExactly is the sort-merge counterpart
// of the hash-join determinism test: with the SortChunks plan pinned, the
// whole Result — counters, virtual time, run counts, per-relation sort
// stats — must be bit-identical at widths 1, 2 and 8, and the match
// multiset unchanged. Chunks=1 additionally pins the one-chunk plan
// under a parallel pool.
func TestParallelSortMergeMatchesSerialExactly(t *testing.T) {
	cases := []struct {
		name   string
		nR, nS int
		domain int64
		m      int
		chunks int
	}{
		{name: "chunked-external", nR: 600, nS: 1800, domain: 300, m: 8, chunks: 4},
		{name: "chunked-tight-memory", nR: 400, nS: 1200, domain: 100, m: 4, chunks: 8},
		{name: "chunked-in-memory", nR: 200, nS: 400, domain: 80, m: 400, chunks: 4},
		{name: "classic-plan-parallel-pool", nR: 500, nS: 1500, domain: 200, m: 8, chunks: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantSet, want := runSortCase(t, tc.nR, tc.nS, tc.domain, tc.m, tc.chunks, 1)
			for _, width := range []int{2, 8} {
				gotSet, got := runSortCase(t, tc.nR, tc.nS, tc.domain, tc.m, tc.chunks, width)
				if !sameMultiset(gotSet, wantSet) {
					t.Errorf("width %d: match multiset differs from serial", width)
				}
				if got != want {
					t.Errorf("width %d: Result diverges:\n  parallel %+v\n  serial   %+v", width, got, want)
				}
			}
		})
	}
}

// TestSortMergeChunkedOracle checks the chunked sort-merge against the
// nested-loops oracle.
func TestSortMergeChunkedOracle(t *testing.T) {
	disk, _ := testEnv()
	r := makeRelation(t, disk, "R", 300, 80, 35)
	s := makeRelation(t, disk, "S", 450, 80, 36)
	want, _ := matches(t, NestedLoops, Spec{R: r, S: s, M: 8})
	got, res := matches(t, SortMerge, Spec{R: r, S: s, M: 8, SortChunks: 4, Parallelism: 4})
	if !sameMultiset(got, want) {
		t.Errorf("chunked sort-merge: match multiset differs from oracle")
	}
	if res.RSort.Chunks != 4 || res.SSort.Chunks != 4 {
		t.Errorf("sort stats not surfaced: %+v / %+v", res.RSort, res.SSort)
	}
}

// TestParallelEmitNeverConcurrent verifies the documented guarantee that
// the user's emit callback is serialized: an unlocked counter in the
// callback must still total correctly (and the -race run proves no two
// calls overlap).
func TestParallelEmitNeverConcurrent(t *testing.T) {
	disk, _ := testEnv()
	r := makeRelation(t, disk, "R", 500, 120, 23)
	s := makeRelation(t, disk, "S", 800, 120, 24)
	var inEmit int // deliberately unsynchronized: emit must be serialized
	res, err := Run(GraceHash, Spec{R: r, S: s, M: 16, GraceParts: 8, Parallelism: 8},
		func(r, s tuple.Tuple) { inEmit++ })
	if err != nil {
		t.Fatal(err)
	}
	if int64(inEmit) != res.Matches {
		t.Fatalf("emit called %d times, %d matches counted", inEmit, res.Matches)
	}
}

// TestParallelOracleAgreement re-runs the correctness oracle with the pool
// engaged: every parallel hash join still produces nested-loops' answer.
func TestParallelOracleAgreement(t *testing.T) {
	disk, _ := testEnv()
	r := makeRelation(t, disk, "R", 300, 80, 25)
	s := makeRelation(t, disk, "S", 450, 80, 26)
	want, _ := matches(t, NestedLoops, Spec{R: r, S: s, M: 8})
	for _, a := range []Algorithm{GraceHash, HybridHash} {
		got, _ := matches(t, a, Spec{R: r, S: s, M: 8, Parallelism: 4})
		if !sameMultiset(got, want) {
			t.Errorf("%v parallel: match multiset differs from oracle", a)
		}
	}
}

// TestParallelFaultInjectionPropagates arms the fault injector and checks
// that a device error inside one partition worker aborts the whole join
// with that error, with no goroutine leak (the -race runtime would flag a
// worker outliving the test via the shared clock).
func TestParallelFaultInjectionPropagates(t *testing.T) {
	disk, _ := testEnv()
	r := makeRelation(t, disk, "R", 400, 100, 27)
	s := makeRelation(t, disk, "S", 600, 100, 28)
	disk.SetInjector(fault.NewInjector(0).PermanentAfter("", 40))
	defer disk.SetInjector(nil)
	_, err := Run(GraceHash, Spec{R: r, S: s, M: 8, GraceParts: 8, Parallelism: 8}, nil)
	if err == nil {
		t.Fatal("expected injected device failure to surface")
	}
}

// TestParallelRunsShareOneClock runs two parallel joins concurrently on
// one disk/clock. The individual Result.Counters deltas interleave (as
// they would with any shared clock), but the clock's combined total is
// still exactly the sum of what two isolated serial runs charge — no
// update is ever lost or double-counted.
func TestParallelRunsShareOneClock(t *testing.T) {
	// Baselines: each join alone on its own disk, serially.
	var want cost.Counters
	for i, seed := range []int64{29, 31} {
		disk, _ := testEnv()
		r := makeRelation(t, disk, "R", 300, 90, seed)
		s := makeRelation(t, disk, "S", 450, 90, seed+1)
		res, err := Run(GraceHash, Spec{R: r, S: s, M: 8}, nil)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		want.Add(res.Counters)
	}

	// Now both joins at once, both parallel, on one shared clock.
	disk, clock := testEnv()
	r1 := makeRelation(t, disk, "R1", 300, 90, 29)
	s1 := makeRelation(t, disk, "S1", 450, 90, 30)
	r2 := makeRelation(t, disk, "R2", 300, 90, 31)
	s2 := makeRelation(t, disk, "S2", 450, 90, 32)
	before := clock.Counters()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	run := func(i int, r, s *heap.File) {
		defer wg.Done()
		_, errs[i] = Run(GraceHash, Spec{R: r, S: s, M: 8, Parallelism: 4}, nil)
	}
	wg.Add(2)
	go run(0, r1, s1)
	go run(1, r2, s2)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if total := clock.Counters().Sub(before); total != want {
		t.Fatalf("clock total %v != sum of isolated serial charges %v", total, want)
	}
}

package join

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/tuple"
)

// runKernelCase executes one join on a fresh disk, returning the ordered
// emission sequence, the match multiset, the result, and the full clock
// counters.
func runKernelCase(t *testing.T, a Algorithm, width int, mutate func(*Spec)) ([]string, map[string]int, Result, cost.Counters) {
	t.Helper()
	disk, clock := testEnv()
	r := makeRelation(t, disk, "R", 600, 150, 77)
	s := makeRelation(t, disk, "S", 900, 150, 78)
	spec := Spec{R: r, S: s, M: 12, Parallelism: width}
	if mutate != nil {
		mutate(&spec)
	}
	var seq []string
	got := make(map[string]int)
	res, err := Run(a, spec, func(r, s tuple.Tuple) {
		p := fmt.Sprintf("%x|%x", []byte(r), []byte(s))
		seq = append(seq, p)
		got[p]++
	})
	if err != nil {
		t.Fatalf("%v width=%d: %v", a, width, err)
	}
	return seq, got, res, clock.Counters()
}

// seqDigest folds an emission sequence into one order-sensitive value.
func seqDigest(seq []string) uint64 {
	h := fnv.New64a()
	for _, s := range seq {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// pinned is what one join shape charged and emitted at the commit that
// deleted the classic chained-table/stdlib-FNV/per-tuple-probe path, where
// kernel on and off were bit-identical at every width: the counters, the
// match count, the digest of the width-1 emission sequence, and the plan
// shape the Result reports.
type pinned struct {
	counters cost.Counters
	matches  int64
	digest   uint64
	shape    shape
}

// shape is the plan a join reports: passes, top-level partitions, and
// whether a revoked grant forced the GRACE fallback.
type shape struct {
	passes, partitions int
	fallback           bool
}

func checkPinned(t *testing.T, width int, want pinned, seq []string, set, serialSet map[string]int, res Result, c cost.Counters) {
	t.Helper()
	if c != want.counters {
		t.Errorf("counters moved:\ngot  %+v\nwant %+v", c, want.counters)
	}
	if res.Matches != want.matches {
		t.Errorf("matches moved: %d, want %d", res.Matches, want.matches)
	}
	if got := (shape{res.Passes, res.Partitions, res.GraceFallback}); got != want.shape {
		t.Errorf("plan shape moved: %+v, want %+v", got, want.shape)
	}
	if width == 1 {
		if d := seqDigest(seq); d != want.digest {
			t.Errorf("emission order moved: digest %#x, want %#x", d, want.digest)
		}
	} else if !sameMultiset(set, serialSet) {
		t.Error("match multiset diverges from the serial run")
	}
}

// TestRadixKernelJoinsIdentical pins every join shape to the counters and
// the serial emission order the classic layout produced: with the plan
// knobs fixed, the hash table, hasher, prober, selection tree and pumps
// must charge those exact counters at every schedule width, produce the
// same matches, and at width 1 the exact same emission sequence. An
// all-resident hybrid join is one pass with nothing to fan out, so its
// emission sequence is pinned at every width (ordered).
func TestRadixKernelJoinsIdentical(t *testing.T) {
	algos := []struct {
		a       Algorithm
		mutate  func(*Spec)
		want    pinned
		ordered bool
	}{
		{SimpleHash, nil, pinned{cost.Counters{Comps: 3567, Hashes: 4962, Moves: 4062, SeqIOs: 584}, 3567, 0xa6977401cde28229, shape{6, 0, false}}, false},
		{GraceHash, nil, pinned{cost.Counters{Comps: 3567, Hashes: 3000, Moves: 2100, SeqIOs: 136, RandIOs: 136}, 3567, 0xba33da7ec3bdcab1, shape{2, 12, false}}, false},
		{HybridHash, nil, pinned{cost.Counters{Comps: 3567, Hashes: 2883, Moves: 1983, SeqIOs: 121, RandIOs: 121}, 3567, 0x34c478578afa1d55, shape{2, 6, false}}, false},
		{HybridHash, func(s *Spec) { s.M = 300 }, // degenerate all-resident path
			pinned{cost.Counters{Comps: 3567, Hashes: 1500, Moves: 600}, 3567, 0x529ea9b17826b301, shape{1, 0, false}}, true},
		{SortMerge, func(s *Spec) { s.SortChunks = 4 },
			pinned{cost.Counters{Comps: 19407, Swaps: 9858, SeqIOs: 343, RandIOs: 343}, 3567, 0xa90cdd3b09501311, shape{5, 35, false}}, false},
		{HybridHash, func(s *Spec) { s.M, s.LiveM = 300, func() int { return 300 } }, // all-resident under a stable live grant
			pinned{cost.Counters{Comps: 3567, Hashes: 1500, Moves: 600}, 3567, 0x529ea9b17826b301, shape{1, 0, false}}, true},
		{HybridHash, revokedAfter(200), // all-resident, grant revoked during the build
			pinned{cost.Counters{Comps: 3567, Hashes: 4021, Moves: 4621, SeqIOs: 506, RandIOs: 256}, 3567, 0xc778d1b78abf90d, shape{5, 0, true}}, false},
		{HybridHash, revokedAfter(900), // all-resident, grant revoked during the probe
			pinned{cost.Counters{Comps: 3567, Hashes: 3970, Moves: 4270, SeqIOs: 416, RandIOs: 217}, 3567, 0x5e154c010d987ea1, shape{5, 0, true}}, false},
	}
	for ai, tc := range algos {
		_, serialSet, _, _ := runKernelCase(t, tc.a, 1, tc.mutate)
		for _, width := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%v.%d/width=%d", tc.a, ai, width)
			t.Run(name, func(t *testing.T) {
				seq, set, res, c := runKernelCase(t, tc.a, width, tc.mutate)
				if tc.ordered {
					width = 1 // the width-1 digest binds every width
				}
				checkPinned(t, width, tc.want, seq, set, serialSet, res, c)
			})
		}
	}
}

// revokedAfter runs the join with all of R resident (M = 300) under a live
// grant that falls to 2 pages after n consultations. Each run gets a fresh
// grant, so every width revokes at the same tuple boundary.
func revokedAfter(n int64) func(*Spec) {
	return func(s *Spec) {
		grant := &revocableGrant{full: 300, shrunken: 2, after: n}
		s.M, s.LiveM = 300, grant.pages
	}
}

// TestRadixKernelDegradeIdentical revokes hybrid's memory grant mid-build
// (deterministically, by consultation count) and requires the batched-probe
// path to spill at the tuple boundary the per-tuple loop did: the GRACE
// fallback, the pinned counters and matches, and at width 1 the pinned
// emission order.
func TestRadixKernelDegradeIdentical(t *testing.T) {
	want := pinned{cost.Counters{Comps: 3567, Hashes: 5206, Moves: 4327, SeqIOs: 395, RandIOs: 373}, 3567, 0xbbacf4a8c964b851, shape{5, 6, true}}
	run := func(width int) ([]string, map[string]int, Result, cost.Counters) {
		grant := &revocableGrant{full: 12, shrunken: 2, after: 20}
		return runKernelCase(t, HybridHash, width, func(s *Spec) {
			s.LiveM = grant.pages
		})
	}
	_, serialSet, _, _ := run(1)
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			seq, set, res, c := run(width)
			if !res.GraceFallback {
				t.Fatal("expected the revocation to force a GRACE fallback")
			}
			checkPinned(t, width, want, seq, set, serialSet, res, c)
		})
	}
}

// TestRadixKernelMatchesOracle runs the full oracle check across plan
// shapes that force recursion and chunked fallbacks, so the batched probe
// path is validated against nested loops and not just against pinned
// constants.
func TestRadixKernelMatchesOracle(t *testing.T) {
	disk, _ := testEnv()
	r := makeRelation(t, disk, "R", 500, 40, 79) // heavy duplicates
	s := makeRelation(t, disk, "S", 700, 40, 80)
	for _, m := range []int{4, 12, 300} {
		checkAgainstOracle(t, Spec{R: r, S: s, M: m})
	}
}

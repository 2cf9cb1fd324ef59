package join

import (
	"errors"
	"testing"

	"mmdb/internal/fault"
	"mmdb/internal/simio"
)

// TestIOFaultsPropagateCleanly injects a permanent device failure at every
// charged IO position of each algorithm's execution and asserts the error
// surfaces (wrapped, not swallowed, no panic). The schedules come from the
// fault plane's injector — PermanentAfter(n) lets the first n IOs through
// and fails the rest.
// Algorithms doing no IO at this memory size are skipped once injection
// stops triggering.
func TestIOFaultsPropagateCleanly(t *testing.T) {
	for _, alg := range []Algorithm{SortMerge, SimpleHash, GraceHash, HybridHash} {
		t.Run(alg.String(), func(t *testing.T) {
			// Baseline: count this algorithm's charged IOs.
			disk, _ := testEnv()
			r := makeRelation(t, disk, "R", 400, 100, 41)
			s := makeRelation(t, disk, "S", 400, 100, 42)
			spec := Spec{R: r, S: s, M: 5}
			base, err := Run(alg, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			totalIO := base.Counters.SeqIOs + base.Counters.RandIOs
			if totalIO == 0 {
				t.Skipf("%v does no IO at this size", alg)
			}
			// Inject at a few positions across the run.
			for _, pos := range []int64{0, 1, totalIO / 2, totalIO - 1} {
				disk2, _ := testEnv()
				r2 := makeRelation(t, disk2, "R", 400, 100, 41)
				s2 := makeRelation(t, disk2, "S", 400, 100, 42)
				disk2.SetInjector(fault.NewInjector(1).PermanentAfter("", pos))
				_, err := Run(alg, Spec{R: r2, S: s2, M: 5}, nil)
				if err == nil {
					t.Fatalf("injected failure at IO %d of %d was swallowed", pos, totalIO)
				}
				if !errors.Is(err, simio.ErrInjected) {
					t.Fatalf("error lost its cause: %v", err)
				}
				if !errors.Is(err, fault.ErrPermanent) {
					t.Fatalf("error lost its taxonomy: %v", err)
				}
			}
		})
	}
}

// TestFaultsDoNotCorruptSubsequentRuns verifies a failed join leaves the
// disk usable: disarm the schedule and rerun to the oracle's answer.
func TestFaultsDoNotCorruptSubsequentRuns(t *testing.T) {
	disk, _ := testEnv()
	r := makeRelation(t, disk, "R", 300, 80, 43)
	s := makeRelation(t, disk, "S", 300, 80, 44)
	spec := Spec{R: r, S: s, M: 5}
	want, _ := matches(t, NestedLoops, spec)

	disk.SetInjector(fault.NewInjector(1).PermanentAfter("", 3))
	if _, err := Run(HybridHash, spec, nil); err == nil {
		t.Fatal("expected injected failure")
	}
	disk.SetInjector(nil)
	got, _ := matches(t, HybridHash, spec)
	if !sameMultiset(got, want) {
		t.Fatal("post-failure run produced a wrong result")
	}
}

// TestTransientScheduleAbsorbedByWritePath verifies a join under a
// transient-only schedule completes with the exact fault-free result: the
// heap write path's bounded retry absorbs the faults.
func TestTransientScheduleAbsorbedByWritePath(t *testing.T) {
	oracleDisk, _ := testEnv()
	r0 := makeRelation(t, oracleDisk, "R", 400, 100, 41)
	s0 := makeRelation(t, oracleDisk, "S", 400, 100, 42)
	want, _ := matches(t, NestedLoops, Spec{R: r0, S: s0, M: 5})

	for _, alg := range []Algorithm{SimpleHash, GraceHash, HybridHash} {
		disk, _ := testEnv()
		r := makeRelation(t, disk, "R", 400, 100, 41)
		s := makeRelation(t, disk, "S", 400, 100, 42)
		inj := fault.NewInjector(7).TransientEvery("tmp.", 5)
		disk.SetInjector(inj)
		got, _ := matches(t, alg, Spec{R: r, S: s, M: 5})
		if !sameMultiset(got, want) {
			t.Fatalf("%v: transient faults changed the result", alg)
		}
		if inj.Stats().Transient == 0 {
			t.Fatalf("%v: schedule never fired", alg)
		}
	}
}

package join_test

import (
	"fmt"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/join"
	"mmdb/internal/simio"
	"mmdb/internal/workload"
)

// BenchmarkGraceParallel runs the GRACE join with 16 partitions serially
// and with one worker per core. The virtual-clock results are bit-identical
// at every width; the wall-clock ratio between the two sub-benchmarks is
// the partition-phase speedup (about 1.2x on a 2-CPU host; see
// EXPERIMENTS.md "Parallel execution").
func BenchmarkGraceParallel(b *testing.B) {
	for _, tc := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"gomaxprocs", -1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			clock := cost.NewClock(cost.DefaultParams())
			disk := simio.NewDisk(clock, 4096)
			r := workload.MustGenerate(disk, workload.RelationSpec{Name: "R", Tuples: 10000, KeyDomain: 10000, Seed: 1})
			s := workload.MustGenerate(disk, workload.RelationSpec{Name: "S", Tuples: 10000, KeyDomain: 10000, Seed: 2})
			spec := join.Spec{R: r, S: s, M: 60, F: 1.2, GraceParts: 16, Parallelism: tc.parallelism}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := join.Run(join.GraceHash, spec, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHybridLiveGrant runs a two-pass hybrid join (50 000 × 100 000
// tuples at M = 64) under a live grant that never shrinks, the shape every
// SQL join takes when its build side does not fit: the resident partition
// is tracked for a possible spill and the rest is partitioned to disk.
func BenchmarkHybridLiveGrant(b *testing.B) {
	clock := cost.NewClock(cost.DefaultParams())
	disk := simio.NewDisk(clock, 4096)
	r := workload.MustGenerate(disk, workload.RelationSpec{Name: "R", Tuples: 50000, KeyDomain: 50000, Seed: 1})
	s := workload.MustGenerate(disk, workload.RelationSpec{Name: "S", Tuples: 100000, KeyDomain: 50000, Seed: 2})
	spec := join.Spec{R: r, S: s, M: 64, LiveM: func() int { return 64 }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.Run(join.HybridHash, spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridResident runs hybrid hash with all of R resident (q = 1,
// B = 0) and no live grant at widths 1, 2 and 4. The pass has no
// partitions to fan out, so every width runs the same serial pass and the
// wall-clock times should agree within noise (EXPERIMENTS.md "Parallel
// execution").
func BenchmarkHybridResident(b *testing.B) {
	for _, shape := range []struct {
		name string
		r, s int
	}{
		{"1000x100000", 1000, 100000},
		{"10000x10000", 10000, 10000},
		{"60000x180000", 60000, 180000},
	} {
		clock := cost.NewClock(cost.DefaultParams())
		disk := simio.NewDisk(clock, 4096)
		r := workload.MustGenerate(disk, workload.RelationSpec{Name: "R", Tuples: shape.r, KeyDomain: int64(shape.r), Seed: 1})
		s := workload.MustGenerate(disk, workload.RelationSpec{Name: "S", Tuples: shape.s, KeyDomain: int64(shape.r), Seed: 2})
		m := int(2*r.NumPages()) + 2
		for _, width := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/width=%d", shape.name, width), func(b *testing.B) {
				spec := join.Spec{R: r, S: s, M: m, Parallelism: width}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := join.Run(join.HybridHash, spec, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

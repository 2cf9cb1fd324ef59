package join_test

import (
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/join"
	"mmdb/internal/simio"
	"mmdb/internal/workload"
)

// BenchmarkGraceParallel runs the GRACE join with 16 partitions serially
// and with one worker per core. The virtual-clock results are bit-identical
// at every width; the wall-clock ratio between the two sub-benchmarks is
// the partition-phase speedup (≈1 on a single-core host, ≥1.5x with 4+
// cores — see EXPERIMENTS.md "Parallel execution").
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

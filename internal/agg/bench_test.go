package agg

import (
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/simio"
)

// BenchmarkHashGroup times the one-pass group kernel on the analytic
// group shape: 100 000 rows over 1 000 groups under a 64-page grant of
// 4 KB pages.
func BenchmarkHashGroup(b *testing.B) {
	disk := simio.NewDisk(cost.NewClock(cost.DefaultParams()), 4096)
	rows := make([][2]int64, 100_000)
	for i := range rows {
		rows[i] = [2]int64{int64(i % 1000), int64(i)}
	}
	f := load(b, disk, "r", rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Hash(Spec{Input: f, GroupCol: 0, ValueCol: 1, M: 64})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) != 1000 || res.Passes != 1 {
			b.Fatalf("%d groups in %d passes, want 1000 in 1", len(res.Groups), res.Passes)
		}
	}
}

package extsort

import (
	"fmt"
	"testing"

	"mmdb/internal/simio"
)

// BenchmarkSortWith drains an external sort of a 20 000-tuple input 20×
// its queue (runs written, then merged) at one chunk and at four, serial
// schedule, and at four chunks formed by two workers — the path whose
// workers share the sort's one clock; the root pulls its children inline
// at every width. The input is built once; each iteration sorts it afresh
// and Close drops the runs.
func BenchmarkSortWith(b *testing.B) {
	f := makeFile(b, 20000, 1<<40, 5)
	for _, tc := range []struct{ chunks, width int }{{1, 0}, {4, 0}, {4, 2}} {
		name := fmt.Sprintf("chunks=%d", tc.chunks)
		if tc.width > 1 {
			name += fmt.Sprintf("/width=%d", tc.width)
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{Col: 0, MemTuples: 1000, MaxFanout: 16, Prefix: "b",
				Input: simio.Uncharged, Chunks: tc.chunks, Parallelism: tc.width}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, stats, err := SortWith(f, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if stats.InMemory {
					b.Fatal("expected an external sort")
				}
				for {
					if _, ok := s.Next(); !ok {
						break
					}
				}
				if err := s.Err(); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

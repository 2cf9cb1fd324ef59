package extsort

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mmdb/internal/cost"
	"mmdb/internal/fault"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
	"mmdb/internal/workload"
)

// sortOnce builds a fresh, identical input file and sorts it under cfg,
// returning the output key order, the stats, and the disk's counters.
// consume < 0 means full drain; otherwise the stream is abandoned after
// that many tuples and Closed, exercising the drain-on-Close contract.
func sortOnce(t *testing.T, cfg Config, n int, seed int64, consume int) ([]int64, Stats, cost.Counters) {
	t.Helper()
	f := makeFile(t, n, 1<<40, seed)
	clock := f.Disk().Clock()
	clock.Reset()
	s, stats, err := SortWith(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.RelationSpec{PayloadWidth: 12}.Schema()
	var got []int64
	for consume < 0 || len(got) < consume {
		tp, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, sc.Int(tp, 0))
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return got, stats, clock.Counters()
}

// TestChunkedSortDeterminismAcrossWidths is the core invariant of the
// parallel sort: for a fixed chunk plan, Parallelism changes neither the
// virtual counters nor the output order — whether the stream is fully
// drained or abandoned partway and Closed.
func TestChunkedSortDeterminismAcrossWidths(t *testing.T) {
	const n, mem = 3000, 120
	for _, consume := range []int{-1, 137} {
		base := Config{Col: 0, MemTuples: mem, MaxFanout: 16, Prefix: "p",
			Input: simio.Uncharged, Chunks: 4, Parallelism: 1}
		wantKeys, wantStats, wantCounters := sortOnce(t, base, n, 11, consume)
		if consume < 0 && len(wantKeys) != n {
			t.Fatalf("drained %d of %d tuples", len(wantKeys), n)
		}
		if wantStats.Chunks != 4 {
			t.Fatalf("planned %d chunks, want 4", wantStats.Chunks)
		}
		for _, width := range []int{2, 8} {
			cfg := base
			cfg.Parallelism = width
			keys, stats, counters := sortOnce(t, cfg, n, 11, consume)
			if stats != wantStats {
				t.Fatalf("consume=%d width %d stats %+v != serial %+v", consume, width, stats, wantStats)
			}
			if counters != wantCounters {
				t.Fatalf("consume=%d width %d counters %+v != serial %+v", consume, width, counters, wantCounters)
			}
			if len(keys) != len(wantKeys) {
				t.Fatalf("consume=%d width %d yielded %d tuples, want %d", consume, width, len(keys), len(wantKeys))
			}
			for i := range keys {
				if keys[i] != wantKeys[i] {
					t.Fatalf("consume=%d width %d output diverges at %d: %d vs %d",
						consume, width, i, keys[i], wantKeys[i])
				}
			}
		}
	}
}

// TestChunkedSortMatchesOracle checks the chunked sort against a
// sort.SliceStable oracle across the edge cases: in-memory inputs, a
// single run, the fanout floor, and chunk counts exceeding the page count.
func TestChunkedSortMatchesOracle(t *testing.T) {
	check := func(name string, n int, domain int64, seed int64, cfg Config) {
		t.Helper()
		f := makeFile(t, n, domain, seed)
		var want []int64
		sc := f.Schema()
		f.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
			want = append(want, sc.Int(tp, 0))
			return true
		})
		sort.SliceStable(want, func(i, j int) bool { return want[i] < want[j] })
		s, _, err := SortWith(f, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := drain(t, s)
		s.Close()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d tuples, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: mismatch at %d: %d vs %d", name, i, got[i], want[i])
			}
		}
	}
	base := func() Config {
		return Config{Col: 0, MemTuples: 64, MaxFanout: 8, Prefix: "o",
			Input: simio.Uncharged, Chunks: 4, Parallelism: 4}
	}

	cfg := base()
	check("external", 2000, 1<<40, 21, cfg)

	cfg = base()
	cfg.MemTuples = 5000 // whole input fits: every chunk takes the in-memory shortcut
	check("in-memory", 800, 1<<40, 22, cfg)

	cfg = base()
	cfg.MaxFanout = 2 // fanout floor: per-chunk budget clamps up to 2
	check("fanout-floor", 1500, 1<<40, 23, cfg)

	cfg = base()
	cfg.Chunks = 1000 // clamped to pages (and memory); still correct
	check("chunks-exceed-pages", 600, 1<<40, 24, cfg)

	cfg = base()
	check("duplicate-keys", 1200, 5, 25, cfg)
}

// TestChunkedSortQuickOracle drives random (n, mem, chunks, fanout)
// combinations through the sorted-output check.
func TestChunkedSortQuickOracle(t *testing.T) {
	fn := func(seed int64, n16, mem8, chunks8, fan8 uint8, dup bool) bool {
		n := int(n16)%400 + 2
		domain := int64(1 << 40)
		if dup {
			domain = 7
		}
		cfg := Config{
			Col:         0,
			MemTuples:   int(mem8)%60 + 2,
			MaxFanout:   int(fan8) % 10, // includes 0 and 1 = unlimited
			Prefix:      "q",
			Input:       simio.Uncharged,
			Chunks:      int(chunks8) % 9,
			Parallelism: int(chunks8)%3 + 1,
		}
		file := makeFile(t, n, domain, seed)
		s, _, err := SortWith(file, cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		got := drain(t, s)
		s.Close()
		if len(got) != n {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// leftover reports the disk's spaces besides the input file.
func leftover(f *heap.File) []string {
	var extra []string
	for _, name := range f.Disk().Spaces() {
		if name != "in" {
			extra = append(extra, name)
		}
	}
	return extra
}

// TestCloseReleasesRunFiles: however much of the stream the consumer
// reads, Close leaves no temporary run files behind — for one chunk, four
// chunks, and a fully drained stream (cursors drop their files at EOF).
func TestCloseReleasesRunFiles(t *testing.T) {
	cases := []struct {
		name    string
		chunks  int
		consume int
	}{
		{"one-chunk-abandoned", 1, 3},
		{"one-chunk-drained", 1, -1},
		{"chunked-abandoned", 4, 3},
		{"chunked-drained", 4, -1},
	}
	for _, tc := range cases {
		f := makeFile(t, 1500, 1<<40, 31)
		s, stats, err := SortWith(f, Config{Col: 0, MemTuples: 60, MaxFanout: 4,
			Prefix: "c", Input: simio.Uncharged, Chunks: tc.chunks, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if stats.InMemory {
			t.Fatalf("%s: expected an external sort", tc.name)
		}
		for i := 0; tc.consume < 0 || i < tc.consume; i++ {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if extra := leftover(f); len(extra) > 0 {
			t.Fatalf("%s: run files leaked after Close: %v", tc.name, extra)
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("%s: stream still yields after Close", tc.name)
		}
	}
}

// TestErrorPathDropsRunFiles forces device failures at varying points and
// checks that every error return cleans up its temporary files — the
// historical leak was exactly here.
func TestErrorPathDropsRunFiles(t *testing.T) {
	for _, chunks := range []int{1, 4} {
		for _, failAfter := range []int64{1, 5, 20, 50} {
			f := makeFile(t, 1500, 1<<40, 41)
			f.Disk().SetInjector(fault.NewInjector(0).PermanentAfter("", failAfter))
			s, _, err := SortWith(f, Config{Col: 0, MemTuples: 60, MaxFanout: 4,
				Prefix: "e", Input: simio.Uncharged, Chunks: chunks, Parallelism: 2})
			if err == nil {
				// The failure can land mid-merge instead: consume until it
				// surfaces, then Close.
				for {
					if _, ok := s.Next(); !ok {
						break
					}
				}
				err = s.Err()
				s.Close()
			}
			if err == nil {
				t.Fatalf("chunks=%d failAfter=%d: expected an injected failure", chunks, failAfter)
			}
			if extra := leftover(f); len(extra) > 0 {
				t.Fatalf("chunks=%d failAfter=%d: leaked %v", chunks, failAfter, extra)
			}
		}
	}
}

// settleGoroutines polls runtime.NumGoroutine for up to a second until it
// is at most want, and reports the last count it read.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestSortIsForkJoin pins the operators' concurrency rule on the sort: the
// formation workers are an exec.Pool fan-out that finishes before SortWith
// returns, and the root merge pulls its chunk streams inline, so a
// parallel multi-chunk stream holds no goroutine while it is open or after
// Close.
func TestSortIsForkJoin(t *testing.T) {
	f := makeFile(t, 20000, 1<<40, 51)
	before := runtime.NumGoroutine()
	s, stats, err := SortWith(f, Config{Col: 0, MemTuples: 1000, MaxFanout: 16,
		Prefix: "g", Input: simio.Uncharged, Chunks: 4, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks != 4 || stats.InMemory {
		t.Fatalf("stats %+v, want four external chunks", stats)
	}
	for i := 0; i < 10; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("stream ended after %d tuples", i)
		}
	}
	if n := settleGoroutines(before); n > before {
		t.Fatalf("mid-stream: %d goroutines, %d before SortWith", n, before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settleGoroutines(before); n > before {
		t.Fatalf("after Close: %d goroutines, %d before SortWith", n, before)
	}
}

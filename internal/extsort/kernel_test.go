package extsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// TestSortKernelQueueMatchesPQueue drives the reference heap and the
// engine's queue through an identical randomized op sequence for both
// orderings and requires identical pop results and bit-identical counters
// once the queue has charged its tally.
func TestSortKernelQueueMatchesPQueue(t *testing.T) {
	for _, kind := range []lessKind{kindRunThenKey, kindKey} {
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			pc := cost.NewClock(cost.DefaultParams())
			kc := cost.NewClock(cost.DefaultParams())
			pq := newRefQueue(pc, kind, 64)
			kq := newKQueue(kc, kind, 64)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(3); {
				case op == 0 || pq.Len() == 0:
					it := item{run: rng.Intn(3), key: intKey(rng.Intn(2000)), tup: tuple.Tuple{byte(step)}}
					pq.Push(it)
					kq.Push(it)
				case op == 1:
					a, b := pq.Pop(), kq.Pop()
					if !bytes.Equal(a.key, b.key) || a.run != b.run || !bytes.Equal(a.tup, b.tup) {
						t.Fatalf("step %d: pop diverged: %+v vs %+v", step, a, b)
					}
				default:
					it := item{run: rng.Intn(3), key: intKey(rng.Intn(2000)), tup: tuple.Tuple{byte(step)}}
					a, b := pq.Replace(it), kq.Replace(it)
					if !bytes.Equal(a.key, b.key) || a.run != b.run {
						t.Fatalf("step %d: replace diverged: %+v vs %+v", step, a, b)
					}
				}
				pa, ka := pq.Len(), kq.Len()
				if pa != ka {
					t.Fatalf("step %d: len diverged %d vs %d", step, pa, ka)
				}
				if pa > 0 {
					if !bytes.Equal(pq.Peek().key, kq.Peek().key) {
						t.Fatalf("step %d: peek diverged", step)
					}
				}
			}
			kq.charge()
			if c1, c2 := pc.Counters(), kc.Counters(); c1 != c2 {
				t.Fatalf("counters diverge:\npqueue %+v\nkqueue %+v", c1, c2)
			}
		})
	}
}

// TestSortKernelPrefixFallback exercises keys longer than the 8-byte
// in-node prefix and keys of mixed lengths, where the queue must fall back
// to full byte compares without drifting from the reference heap (compared
// once the queue has charged its tally).
func TestSortKernelPrefixFallback(t *testing.T) {
	longKey := func(k int) []byte {
		// 12-byte keys sharing an 8-byte prefix for k in the same bucket.
		b := make([]byte, 12)
		copy(b, "prefix--")
		b[8], b[9] = byte(k>>8), byte(k)
		return b
	}
	pc := cost.NewClock(cost.DefaultParams())
	kc := cost.NewClock(cost.DefaultParams())
	pq := newRefQueue(pc, kindKey, 8)
	kq := newKQueue(kc, kindKey, 8)
	rng := rand.New(rand.NewSource(11))
	var keys [][]byte
	for i := 0; i < 4000; i++ {
		var k []byte
		if rng.Intn(2) == 0 {
			k = longKey(rng.Intn(500))
		} else {
			k = intKey(rng.Intn(500)) // 2-byte key: mixed lengths defeat `short`
		}
		keys = append(keys, k)
		pq.Push(item{key: k})
		kq.Push(item{key: k})
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	for i := range keys {
		a, b := pq.Pop(), kq.Pop()
		if !bytes.Equal(a.key, keys[i]) || !bytes.Equal(b.key, keys[i]) {
			t.Fatalf("pop %d: got %v / %v want %v", i, a.key, b.key, keys[i])
		}
	}
	kq.charge()
	if c1, c2 := pc.Counters(), kc.Counters(); c1 != c2 {
		t.Fatalf("counters diverge:\npqueue %+v\nkqueue %+v", c1, c2)
	}
}

// TestSortKernelIdenticalToClassic pins the sort's counters to the values
// the classic item-array heap and per-tuple pumps charged at the commit
// that deleted them (where kernel on and off were bit-identical): same plan
// knobs ⇒ the same charges, across chunked plans and schedule widths,
// including a SortChunks=64-style wide root. A moved charge fails here.
// take is how many tuples the consumer pulls before Close (-1 drains):
// a one-chunk stream charges only what was consumed, while a multi-chunk
// stream's Close finishes every chunk's stream (the root's own selection
// tree charges only the pops taken).
func TestSortKernelIdenticalToClassic(t *testing.T) {
	for _, tc := range []struct {
		n, chunks, par, take int
		want                 cost.Counters
		stats                Stats
	}{
		{40, 1, 1, -1, cost.Counters{Comps: 320, Swaps: 157}, Stats{Runs: 1, Chunks: 1, InMemory: true}},                                                       // in-memory
		{900, 1, 1, -1, cost.Counters{Comps: 12352, Swaps: 6624, SeqIOs: 79, RandIOs: 79}, Stats{Runs: 8, FinalRuns: 8, Chunks: 1}},                            // one chunk, external
		{900, 4, 1, -1, cost.Counters{Comps: 10491, Swaps: 5329, SeqIOs: 253, RandIOs: 253}, Stats{Runs: 32, FinalRuns: 8, MergePasses: 2, Chunks: 4}},         // chunked, serial schedule
		{900, 4, 4, -1, cost.Counters{Comps: 10491, Swaps: 5329, SeqIOs: 253, RandIOs: 253}, Stats{Runs: 32, FinalRuns: 8, MergePasses: 2, Chunks: 4}},         // chunked, parallel pumps
		{2000, 64, 4, -1, cost.Counters{Comps: 30420, Swaps: 14555, SeqIOs: 1297, RandIOs: 1297}, Stats{Runs: 531, FinalRuns: 64, MergePasses: 4, Chunks: 32}}, // very wide root (deep-merge satellite rung)
		{40, 1, 1, 10, cost.Counters{Comps: 163, Swaps: 82}, Stats{Runs: 1, Chunks: 1, InMemory: true}},                                                        // in-memory, abandoned: only the pops taken
		{900, 1, 1, 10, cost.Counters{Comps: 7266, Swaps: 4108, SeqIOs: 79, RandIOs: 8}, Stats{Runs: 8, FinalRuns: 8, Chunks: 1}},                              // external, abandoned: run reads only as consumed
		{900, 1, 4, 10, cost.Counters{Comps: 7266, Swaps: 4108, SeqIOs: 79, RandIOs: 8}, Stats{Runs: 8, FinalRuns: 8, Chunks: 1}},
		{900, 4, 1, 10, cost.Counters{Comps: 7335, Swaps: 3720, SeqIOs: 253, RandIOs: 253}, Stats{Runs: 32, FinalRuns: 8, MergePasses: 2, Chunks: 4}}, // chunked, abandoned: Close finishes every chunk
		{900, 4, 4, 10, cost.Counters{Comps: 7335, Swaps: 3720, SeqIOs: 253, RandIOs: 253}, Stats{Runs: 32, FinalRuns: 8, MergePasses: 2, Chunks: 4}},
		{40, 4, 1, -1, cost.Counters{Comps: 303, Swaps: 155}, Stats{Runs: 4, Chunks: 4, InMemory: true}}, // chunked, every chunk in memory
		{40, 4, 4, 10, cost.Counters{Comps: 211, Swaps: 105}, Stats{Runs: 4, Chunks: 4, InMemory: true}},
	} {
		name := fmt.Sprintf("n=%d/chunks=%d/par=%d", tc.n, tc.chunks, tc.par)
		if tc.take >= 0 {
			name += fmt.Sprintf("/take=%d", tc.take)
		}
		t.Run(name, func(t *testing.T) {
			f := makeFile(t, tc.n, int64(tc.n)*4, 99)
			clock := f.Disk().Clock()
			before := clock.Counters()
			s, stats, err := SortWith(f, Config{
				Col: 0, MemTuples: 64, MaxFanout: 8, Prefix: "t", Input: simio.Uncharged,
				Chunks: tc.chunks, Parallelism: tc.par,
			})
			if err != nil {
				t.Fatal(err)
			}
			var out []int64
			sc := f.Schema()
			for tc.take < 0 || len(out) < tc.take {
				tp, ok := s.Next()
				if !ok {
					break
				}
				out = append(out, sc.Int(tp, 0))
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.take < 0 {
				checkSorted(t, f, out)
			} else {
				checkSortedPrefix(t, f, out)
			}
			if got := clock.Counters().Sub(before); got != tc.want {
				t.Fatalf("counters moved:\ngot  %+v\nwant %+v", got, tc.want)
			}
			if stats != tc.stats {
				t.Fatalf("stats moved:\ngot  %+v\nwant %+v", stats, tc.stats)
			}
		})
	}
}

package hashjoin

import (
	"testing"
	"testing/quick"

	"mmdb/internal/cost"
	"mmdb/internal/tuple"
)

func kvSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.Int64},
		tuple.Field{Name: "v", Kind: tuple.Int64},
	)
}

func TestRadixFastHashMatchesSlow(t *testing.T) {
	clock := cost.NewClock(cost.DefaultParams())
	f := func(k int64, level uint32) bool {
		slow := NewHasher(clock, level)
		fast := NewFastHasher(clock, level)
		return slow.Hash(key(k)) == fast.Hash(key(k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Variable-length keys too.
	slow, fast := NewHasher(clock, 7), NewFastHasher(clock, 7)
	for n := 0; n < 40; n++ {
		k := make([]byte, n)
		for i := range k {
			k[i] = byte(i * 37)
		}
		if slow.Hash(k) != fast.Hash(k) {
			t.Fatalf("fast hash diverges at key length %d", n)
		}
	}
}

// probeRec is one fn callback: which probe produced it and the matched
// tuple's payload, for order-sensitive comparison.
type probeRec struct {
	probe int
	val   int64
}

// buildBoth inserts the same (key, seq) stream into a chained Table and a
// KernelTable on separate clocks and returns both plus the clocks.
func buildBoth(t *testing.T, n int, dupEvery int, expected int) (*Table, *KernelTable, *cost.Clock, *cost.Clock) {
	t.Helper()
	schema := kvSchema()
	ct, kt := cost.NewClock(cost.DefaultParams()), cost.NewClock(cost.DefaultParams())
	chained := NewTable(ct, schema, 0, expected)
	kernel := NewKernelTable(kt, schema, 0, expected)
	hc, hk := NewHasher(ct, 0), NewFastHasher(kt, 0)
	for i := 0; i < n; i++ {
		k := int64(i)
		if dupEvery > 0 {
			k = int64(i % dupEvery)
		}
		tup := schema.MustEncode(tuple.IntValue(k), tuple.IntValue(int64(i)))
		chained.Insert(hc.Hash(key(k)), tup)
		kernel.Insert(hk.Hash(key(k)), tup)
	}
	return chained, kernel, ct, kt
}

func TestRadixTableMatchesChained(t *testing.T) {
	for _, tc := range []struct {
		name             string
		n, dupEvery, est int
	}{
		{"small", 500, 0, 500},
		{"dups", 2000, 37, 2000},
		{"underestimated", 20000, 0, 100}, // forces mid-build growth
		{"multipart", 60000, 113, 60000},  // several radix sub-tables
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema := kvSchema()
			chained, kernel, ct, kt := buildBoth(t, tc.n, tc.dupEvery, tc.est)
			if chained.Len() != kernel.Len() {
				t.Fatalf("len: chained %d kernel %d", chained.Len(), kernel.Len())
			}
			if bc, bk := ct.Counters(), kt.Counters(); bc != bk {
				t.Fatalf("build counters diverge:\nchained %+v\nkernel  %+v", bc, bk)
			}
			hc, hk := NewHasher(ct, 0), NewFastHasher(kt, 0)
			keys := tc.n
			if tc.dupEvery > 0 {
				keys = tc.dupEvery
			}
			var got, want []probeRec
			for p := 0; p < keys+50; p++ { // +50 probes miss
				k := key(int64(p))
				chained.Probe(hc.Hash(k), k, func(tup tuple.Tuple) {
					v := schema.Int(tup, 1)
					want = append(want, probeRec{p, v})
				})
				kernel.Probe(hk.Hash(k), k, func(tup tuple.Tuple) {
					v := schema.Int(tup, 1)
					got = append(got, probeRec{p, v})
				})
			}
			if len(got) != len(want) {
				t.Fatalf("match count: kernel %d chained %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("match %d: kernel %+v chained %+v (order must be identical)", i, got[i], want[i])
				}
			}
			if cc, ck := ct.Counters(), kt.Counters(); cc != ck {
				t.Fatalf("probe counters diverge:\nchained %+v\nkernel  %+v", cc, ck)
			}
		})
	}
}

func TestRadixProbeBatchMatchesSequential(t *testing.T) {
	schema := kvSchema()
	clock := cost.NewClock(cost.DefaultParams())
	kernel := NewKernelTable(clock, schema, 0, 40000)
	h := NewFastHasher(clock, 0)
	for i := 0; i < 40000; i++ {
		k := int64(i % 9000)
		kernel.Insert(h.Hash(key(k)), schema.MustEncode(tuple.IntValue(k), tuple.IntValue(int64(i))))
	}
	if kernel.NumParts() < 2 {
		t.Fatalf("want a multi-part table to exercise grouping, got %d part(s)", kernel.NumParts())
	}

	var batch []Keyed
	for p := 0; p < 1000; p++ {
		k := int64(p * 11 % 10000) // some miss
		batch = append(batch, Keyed{Hash: h.Hash(key(k)), Tuple: schema.MustEncode(tuple.IntValue(k), tuple.IntValue(0))})
	}
	keyOf := func(tup tuple.Tuple) []byte { return schema.KeyBytes(tup, 0) }

	before := clock.Counters()
	var want []probeRec
	for i := range batch {
		kernel.Probe(batch[i].Hash, keyOf(batch[i].Tuple), func(tup tuple.Tuple) {
			v := schema.Int(tup, 1)
			want = append(want, probeRec{i, v})
		})
	}
	seq := clock.Counters().Sub(before)

	before = clock.Counters()
	var got []probeRec
	kernel.ProbeBatch(batch, keyOf, func(i int, tup tuple.Tuple) {
		v := schema.Int(tup, 1)
		got = append(got, probeRec{i, v})
	})
	batched := clock.Counters().Sub(before)

	if seq != batched {
		t.Fatalf("counters diverge: sequential %+v batched %+v", seq, batched)
	}
	if len(got) != len(want) {
		t.Fatalf("match count: batched %d sequential %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: batched %+v sequential %+v (emission order must be identical)", i, got[i], want[i])
		}
	}
}

// TestFindChargesUpToFirstMatch pins Find's charge on colliding hashes:
// one comparison per full-hash entry up to and including the first key
// match, in insertion order, and every full-hash entry on a miss.
func TestFindChargesUpToFirstMatch(t *testing.T) {
	schema := kvSchema()
	clock := cost.NewClock(cost.DefaultParams())
	kernel := NewKernelTable(clock, schema, 0, 0)
	const h = 42 // every key collides
	for i, k := range []int64{7, 3, 3, 9} {
		kernel.Insert(h, schema.MustEncode(tuple.IntValue(k), tuple.IntValue(int64(i))))
	}
	kernel.Insert(h+1, schema.MustEncode(tuple.IntValue(5), tuple.IntValue(4)))
	for _, c := range []struct {
		k     int64
		seq   int64 // -1: no match
		comps int64
	}{{7, 0, 1}, {3, 1, 2}, {9, 3, 4}, {5, -1, 4}, {8, -1, 4}} {
		before := clock.Counters()
		got := kernel.Find(h, key(c.k))
		comps := clock.Counters().Sub(before).Comps
		seq := int64(-1)
		if got != nil {
			seq = schema.Int(got, 1)
		}
		if seq != c.seq || comps != c.comps {
			t.Errorf("Find(%d): entry %d for %d comps, want entry %d for %d", c.k, seq, comps, c.seq, c.comps)
		}
	}
}

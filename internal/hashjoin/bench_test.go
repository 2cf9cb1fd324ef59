package hashjoin

import (
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/tuple"
)

func BenchmarkHash(b *testing.B) {
	clock := cost.NewClock(cost.DefaultParams())
	h := NewFastHasher(clock, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(key(int64(i)))
	}
}

func BenchmarkTableInsertProbe(b *testing.B) {
	clock := cost.NewClock(cost.DefaultParams())
	schema := tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.Int64},
		tuple.Field{Name: "v", Kind: tuple.Int64},
	)
	h := NewHasher(clock, 0)
	tab := NewTable(clock, schema, 0, 1<<16)
	for i := int64(0); i < 1<<16; i++ {
		tab.Insert(h.Hash(key(i)), schema.MustEncode(tuple.IntValue(i), tuple.IntValue(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := key(int64(i) & (1<<16 - 1))
		tab.Probe(h.Hash(k), k, func(tuple.Tuple) {})
	}
}

// benchTuples builds n pre-hashed (key, seq) tuples with ~25% duplicate
// keys, shared by the kernel benchmarks.
func benchTuples(n int) ([]Keyed, *tuple.Schema) {
	schema := tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.Int64},
		tuple.Field{Name: "v", Kind: tuple.Int64},
	)
	clock := cost.NewClock(cost.DefaultParams())
	h := NewFastHasher(clock, 0)
	out := make([]Keyed, n)
	for i := 0; i < n; i++ {
		k := int64(i % (n * 3 / 4))
		out[i] = Keyed{Hash: h.Hash(key(k)), Tuple: schema.MustEncode(tuple.IntValue(k), tuple.IntValue(int64(i)))}
	}
	return out, schema
}

// BenchmarkRadixBuild compares building the chained layout against the
// radix open-addressing kernel layout (old vs new for benchstat).
func BenchmarkRadixBuild(b *testing.B) {
	const n = 1 << 21
	tuples, schema := benchTuples(n)
	b.Run("layout=chained", func(b *testing.B) {
		clock := cost.NewClock(cost.DefaultParams())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab := NewTable(clock, schema, 0, n)
			for j := range tuples {
				tab.Insert(tuples[j].Hash, tuples[j].Tuple)
			}
		}
	})
	b.Run("layout=kernel", func(b *testing.B) {
		clock := cost.NewClock(cost.DefaultParams())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab := NewKernelTable(clock, schema, 0, n)
			for j := range tuples {
				tab.Insert(tuples[j].Hash, tuples[j].Tuple)
			}
		}
	})
}

// BenchmarkProbeBatch compares probing a built table: chained per-tuple
// (old), kernel per-tuple, and kernel batched with partition grouping
// (new).
func BenchmarkProbeBatch(b *testing.B) {
	const n = 1 << 21
	tuples, schema := benchTuples(n)
	keyOf := func(tup tuple.Tuple) []byte { return schema.KeyBytes(tup, 0) }
	sink := 0

	b.Run("layout=chained", func(b *testing.B) {
		clock := cost.NewClock(cost.DefaultParams())
		tab := NewTable(clock, schema, 0, n)
		for j := range tuples {
			tab.Insert(tuples[j].Hash, tuples[j].Tuple)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kd := tuples[i%n]
			tab.Probe(kd.Hash, keyOf(kd.Tuple), func(tuple.Tuple) { sink++ })
		}
	})
	b.Run("layout=kernel", func(b *testing.B) {
		clock := cost.NewClock(cost.DefaultParams())
		tab := NewKernelTable(clock, schema, 0, n)
		for j := range tuples {
			tab.Insert(tuples[j].Hash, tuples[j].Tuple)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kd := tuples[i%n]
			tab.Probe(kd.Hash, keyOf(kd.Tuple), func(tuple.Tuple) { sink++ })
		}
	})
	b.Run("layout=kernel-batch", func(b *testing.B) {
		clock := cost.NewClock(cost.DefaultParams())
		tab := NewKernelTable(clock, schema, 0, n)
		for j := range tuples {
			tab.Insert(tuples[j].Hash, tuples[j].Tuple)
		}
		bs := tab.BatchSize()
		b.ResetTimer()
		for done := 0; done < b.N; {
			lo := done % n
			hi := lo + bs
			if hi > n {
				hi = n
			}
			if hi-lo > b.N-done {
				hi = lo + b.N - done
			}
			tab.ProbeBatch(tuples[lo:hi], keyOf, func(int, tuple.Tuple) { sink++ })
			done += hi - lo
		}
	})
	_ = sink
}

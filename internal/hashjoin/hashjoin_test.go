package hashjoin

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

func key(k int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k)^(1<<63))
	return b[:]
}

func TestHasherChargesAndIsDeterministic(t *testing.T) {
	clock := cost.NewClock(cost.DefaultParams())
	h := NewFastHasher(clock, 0)
	a := h.Hash(key(42))
	b := h.Hash(key(42))
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if clock.Counters().Hashes != 2 {
		t.Fatalf("charged %d hashes", clock.Counters().Hashes)
	}
	h2 := NewFastHasher(clock, 1)
	if h2.Hash(key(42)) == a {
		t.Fatal("levels must decorrelate the hash")
	}
}

func TestHashHighBitsAreUniform(t *testing.T) {
	// The Splitter keys on the top 32 bits; sequential integer keys must
	// spread evenly (this was a real bug: bare FNV does not avalanche).
	clock := cost.NewClock(cost.DefaultParams())
	h := NewFastHasher(clock, 0)
	const n = 4000
	const buckets = 8
	counts := make([]int, buckets)
	sp := Uniform(buckets)
	for i := int64(0); i < n; i++ {
		counts[sp.Partition(h.Hash(key(i)))]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Fatalf("bucket %d has %d of expected %.0f: %v", i, c, want, counts)
		}
	}
}

func TestSplitterWeights(t *testing.T) {
	sp, err := NewSplitter([]float64{0.5, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	clock := cost.NewClock(cost.DefaultParams())
	h := NewFastHasher(clock, 3)
	const n = 20000
	counts := make([]int, 3)
	for i := int64(0); i < n; i++ {
		counts[sp.Partition(h.Hash(key(i)))]++
	}
	for i, want := range []float64{0.5, 0.25, 0.25} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("partition %d got %.3f of traffic, want %.2f", i, got, want)
		}
	}
}

func TestSplitterValidation(t *testing.T) {
	if _, err := NewSplitter(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewSplitter([]float64{-1, 2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewSplitter([]float64{0, 0}); err == nil {
		t.Error("zero weights accepted")
	}
	// Zero-weight partitions simply receive nothing.
	sp, err := NewSplitter([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	clock := cost.NewClock(cost.DefaultParams())
	h := NewFastHasher(clock, 0)
	for i := int64(0); i < 100; i++ {
		if sp.Partition(h.Hash(key(i))) != 1 {
			t.Fatal("zero-weight partition got traffic")
		}
	}
}

func TestQuickPartitionIsTotalAndStable(t *testing.T) {
	f := func(weights8 [5]uint8, k int64) bool {
		ws := make([]float64, 0, 5)
		sum := 0.0
		for _, w := range weights8 {
			ws = append(ws, float64(w))
			sum += float64(w)
		}
		if sum == 0 {
			ws[0] = 1
		}
		sp, err := NewSplitter(ws)
		if err != nil {
			return false
		}
		clock := cost.NewClock(cost.DefaultParams())
		h := NewFastHasher(clock, 0)
		p := sp.Partition(h.Hash(key(k)))
		return p >= 0 && p < sp.NumPartitions() && p == sp.Partition(h.Hash(key(k)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableInsertProbe(t *testing.T) {
	clock := cost.NewClock(cost.DefaultParams())
	schema := tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.Int64},
		tuple.Field{Name: "v", Kind: tuple.Int64},
	)
	tab := NewKernelTable(clock, schema, 0, 16)
	h := NewFastHasher(clock, 0)
	for i := int64(0); i < 50; i++ {
		tab.Insert(h.Hash(key(i%10)), schema.MustEncode(tuple.IntValue(i%10), tuple.IntValue(i)))
	}
	if tab.Len() != 50 {
		t.Fatalf("len = %d", tab.Len())
	}
	found := 0
	tab.Probe(h.Hash(key(3)), key(3), func(tuple.Tuple) { found++ })
	if found != 5 {
		t.Fatalf("probe found %d of 5 duplicates", found)
	}
	found = 0
	tab.Probe(h.Hash(key(99)), key(99), func(tuple.Tuple) { found++ })
	if found != 0 {
		t.Fatal("probe of missing key matched")
	}
	c := clock.Counters()
	if c.Moves != 50 {
		t.Fatalf("inserts charged %d moves", c.Moves)
	}
	if c.Comps == 0 {
		t.Fatal("probes charged no comparisons")
	}
}

func TestPartitionerFlushesAndCharges(t *testing.T) {
	clock := cost.NewClock(cost.DefaultParams())
	disk := simio.NewDisk(clock, 256)
	schema := tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.Int64},
		tuple.Field{Name: "p", Kind: tuple.String, Size: 12},
	)
	src := heap.MustCreate(disk, "src", schema)
	for i := int64(0); i < 120; i++ {
		src.Append(schema.MustEncode(tuple.IntValue(i), tuple.StringValue("x")), simio.Uncharged)
	}
	src.Flush(simio.Uncharged)

	p, err := NewPartitioner(disk, clock, schema, "part", 4, simio.Rand)
	if err != nil {
		t.Fatal(err)
	}
	h := NewFastHasher(clock, 0)
	sp := Uniform(4)
	src.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
		if err := p.Add(sp.Partition(h.Hash(schema.KeyBytes(tp, 0))), tp); err != nil {
			t.Fatal(err)
		}
		return true
	})
	parts, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, pr := range parts {
		total += pr.Tuples
		if pr.File.NumTuples() != pr.Tuples {
			t.Fatal("partition tuple count mismatch")
		}
	}
	if total != 120 {
		t.Fatalf("partitions hold %d of 120 tuples", total)
	}
	c := clock.Counters()
	if c.Moves != 120 {
		t.Fatalf("charged %d moves", c.Moves)
	}
	if c.RandIOs == 0 {
		t.Fatal("no flush IO charged")
	}
	if _, err := NewPartitioner(disk, clock, schema, "bad", 0, simio.Rand); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

// TestSameKeysColocate is the §3.3 correctness property: partitioning R and
// S with the same h and splitter puts matching keys in matching partitions.
func TestSameKeysColocate(t *testing.T) {
	f := func(keys []int64, b8 uint8) bool {
		if len(keys) == 0 {
			return true
		}
		b := int(b8)%7 + 1
		clock := cost.NewClock(cost.DefaultParams())
		h := NewFastHasher(clock, 0)
		sp := Uniform(b)
		for _, k := range keys {
			pr := sp.Partition(h.Hash(key(k)))
			ps := sp.Partition(h.Hash(key(k)))
			if pr != ps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

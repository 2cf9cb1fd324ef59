package btree

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mmdb/internal/tuple"
)

// Small geometry keeps trees deep at small scale.
func smallConfig() Config {
	return Config{PageSize: 256, KeyWidth: 8, PointerWidth: 4, TupleWidth: 16}
}

func key(k int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k)^(1<<63))
	return b[:]
}

func tup(k, v int64) tuple.Tuple {
	t := make(tuple.Tuple, 16)
	copy(t, key(k))
	binary.BigEndian.PutUint64(t[8:], uint64(v))
	return t
}

func TestGeometry(t *testing.T) {
	cfg := smallConfig()
	if cfg.Fanout() != 256/12 {
		t.Fatalf("fanout = %d", cfg.Fanout())
	}
	if cfg.LeafCapacity() != 16 {
		t.Fatalf("leaf capacity = %d", cfg.LeafCapacity())
	}
	if _, err := New(Config{PageSize: 10, KeyWidth: 8, TupleWidth: 16}); err == nil {
		t.Fatal("degenerate geometry accepted")
	}
}

func TestInsertSearch(t *testing.T) {
	tr := MustNew(smallConfig())
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	for _, k := range perm {
		tr.Insert(key(int64(k)), tup(int64(k), int64(k)*10))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.NumTuples() != n {
		t.Fatalf("tuples = %d", tr.NumTuples())
	}
	for i := 0; i < 200; i++ {
		k := int64(rng.Intn(n))
		got := tr.Search(key(k), nil)
		if len(got) != 1 || !bytes.Equal(got[0], tup(k, k*10)) {
			t.Fatalf("search(%d) = %v", k, got)
		}
	}
	if got := tr.Search(key(n+5), nil); got != nil {
		t.Fatal("found a missing key")
	}
}

func TestDuplicatesAcrossSplits(t *testing.T) {
	tr := MustNew(smallConfig())
	// Insert enough duplicates of a few keys that they straddle leaf
	// splits; searches must find every copy.
	counts := map[int64]int{3: 40, 7: 25, 9: 1}
	order := []int64{}
	for k, n := range counts {
		for i := 0; i < n; i++ {
			order = append(order, k)
		}
	}
	rand.New(rand.NewSource(2)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i, k := range order {
		tr.Insert(key(k), tup(k, int64(i)))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, n := range counts {
		if got := len(tr.Search(key(k), nil)); got != n {
			t.Fatalf("key %d: found %d of %d duplicates", k, got, n)
		}
	}
	if removed := tr.Delete(key(3)); removed != 40 {
		t.Fatalf("delete removed %d of 40", removed)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Search(key(3), nil); got != nil {
		t.Fatal("deleted duplicates still found")
	}
	if got := len(tr.Search(key(7), nil)); got != 25 {
		t.Fatalf("unrelated key disturbed: %d", got)
	}
}

func TestAscendRange(t *testing.T) {
	tr := MustNew(smallConfig())
	for i := int64(0); i < 500; i += 2 {
		tr.Insert(key(i), tup(i, i))
	}
	var got []int64
	tr.AscendRange(key(101), nil, func(k []byte, _ tuple.Tuple) bool {
		got = append(got, int64(binary.BigEndian.Uint64(k)^(1<<63)))
		return len(got) < 5
	})
	want := []int64{102, 104, 106, 108, 110}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Full walk is sorted and complete.
	count := 0
	last := int64(-1)
	tr.AscendRange(nil, nil, func(k []byte, _ tuple.Tuple) bool {
		v := int64(binary.BigEndian.Uint64(k) ^ (1 << 63))
		if v <= last {
			t.Fatalf("out of order: %d after %d", v, last)
		}
		last = v
		count++
		return true
	})
	if count != 250 {
		t.Fatalf("walked %d of 250", count)
	}
}

func TestPageAccessesMatchHeightPlusOne(t *testing.T) {
	// §2: a random B+-tree lookup touches height+1 pages (root..leaf).
	tr := MustNew(smallConfig())
	rng := rand.New(rand.NewSource(3))
	const n = 5000
	for _, k := range rng.Perm(n) {
		tr.Insert(key(int64(k)), tup(int64(k), 0))
	}
	visits := 0
	const lookups = 500
	for i := 0; i < lookups; i++ {
		tr.Search(key(int64(rng.Intn(n))), func(NodeID) { visits++ })
	}
	mean := float64(visits) / lookups
	// Unique keys: descent path length == tree height, occasionally +1 for
	// a leaf-chain peek at a separator boundary.
	if mean < float64(tr.Height()) || mean > float64(tr.Height())+1 {
		t.Fatalf("mean pages/lookup %.2f, height %d", mean, tr.Height())
	}
}

func TestComparisonsAreLogarithmic(t *testing.T) {
	tr := MustNew(Config{PageSize: 4096, KeyWidth: 8, PointerWidth: 4, TupleWidth: 100})
	rng := rand.New(rand.NewSource(4))
	const n = 50000
	for _, k := range rng.Perm(n) {
		tr.Insert(key(int64(k)), make(tuple.Tuple, 100))
	}
	tr.ResetComparisons()
	const lookups = 1000
	for i := 0; i < lookups; i++ {
		tr.Search(key(int64(rng.Intn(n))), nil)
	}
	perLookup := float64(tr.Comparisons()) / lookups
	// §2: C' ≈ log2(||R||) comparisons.
	if want := math.Log2(n); math.Abs(perLookup-want) > 6 {
		t.Fatalf("%.1f comparisons/lookup, model predicts ≈%.1f", perLookup, want)
	}
}

func TestBulkLoad(t *testing.T) {
	tr := MustNew(smallConfig())
	const n = 3000
	keys := make([][]byte, n)
	tups := make([]tuple.Tuple, n)
	for i := 0; i < n; i++ {
		keys[i] = key(int64(i))
		tups[i] = tup(int64(i), int64(i))
	}
	if err := tr.BulkLoad(keys, tups, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.NumTuples() != n {
		t.Fatalf("tuples = %d", tr.NumTuples())
	}
	// Yao fill: leaves ≈ n / (capacity * 0.69).
	wantLeaves := float64(n) / (float64(tr.Config().LeafCapacity()) * YaoFill)
	if got := float64(tr.NumLeaves()); math.Abs(got-wantLeaves) > wantLeaves*0.15 {
		t.Fatalf("leaves = %.0f, expected ≈%.0f at 69%% fill", got, wantLeaves)
	}
	for i := 0; i < 100; i++ {
		k := int64(rand.New(rand.NewSource(int64(i))).Intn(n))
		if got := tr.Search(key(k), nil); len(got) != 1 {
			t.Fatalf("bulk-loaded key %d: %d hits", k, len(got))
		}
	}
	// Unsorted input rejected.
	if err := tr.BulkLoad([][]byte{key(2), key(1)}, []tuple.Tuple{tup(2, 0), tup(1, 0)}, 0); err == nil {
		t.Fatal("unsorted bulk load accepted")
	}
}

func TestRandomInsertOccupancyNearYao(t *testing.T) {
	// [YAO78]: nodes under random insertion average ~69% occupancy. Allow
	// a generous band; the point is that the paper's fanout discount is
	// the right order.
	tr := MustNew(smallConfig())
	rng := rand.New(rand.NewSource(6))
	const n = 20000
	for _, k := range rng.Perm(n) {
		tr.Insert(key(int64(k)), tup(int64(k), 0))
	}
	occ := float64(tr.NumTuples()) / float64(tr.NumLeaves()*tr.Config().LeafCapacity())
	if occ < 0.60 || occ > 0.80 {
		t.Fatalf("leaf occupancy %.2f, expected ≈0.69", occ)
	}
}

func TestQuickMatchesSortedOracle(t *testing.T) {
	f := func(seed int64, nOps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := MustNew(smallConfig())
		oracle := map[int64]int{}
		ops := int(nOps)%500 + 30
		for i := 0; i < ops; i++ {
			k := int64(rng.Intn(50))
			if rng.Intn(4) == 0 {
				removed := tr.Delete(key(k))
				if removed != oracle[k] {
					return false
				}
				delete(oracle, k)
			} else {
				tr.Insert(key(k), tup(k, int64(i)))
				oracle[k]++
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		total := 0
		for k, n := range oracle {
			if got := len(tr.Search(key(k), nil)); got != n {
				t.Logf("key %d: got %d want %d", k, len(tr.Search(key(k), nil)), n)
				return false
			}
			total += n
		}
		if tr.NumTuples() != total {
			return false
		}
		var walked []int64
		tr.AscendRange(nil, nil, func(k []byte, _ tuple.Tuple) bool {
			walked = append(walked, int64(binary.BigEndian.Uint64(k)^(1<<63)))
			return true
		})
		return sort.SliceIsSorted(walked, func(i, j int) bool { return walked[i] < walked[j] }) && len(walked) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteEntryRemovesOneDuplicate: a non-unique key's entries straddle
// leaves; DeleteEntry removes exactly the entry with the given payload,
// wherever along the chain it sits.
func TestDeleteEntryRemovesOneDuplicate(t *testing.T) {
	tr := MustNew(smallConfig()) // 16 entries per leaf
	rng := rand.New(rand.NewSource(9))
	type entry struct{ k, v int64 }
	var all []entry
	for k := int64(0); k < 5; k++ {
		for v := int64(0); v < 40; v++ {
			all = append(all, entry{k, v})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	left := map[int64]int{}
	for _, e := range all {
		tr.Insert(key(e.k), tup(e.k, e.v))
		left[e.k]++
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for i, e := range all {
		if !tr.DeleteEntry(key(e.k), tup(e.k, e.v)) {
			t.Fatalf("delete %d: entry (%d, %d) not found", i, e.k, e.v)
		}
		if tr.DeleteEntry(key(e.k), tup(e.k, e.v)) {
			t.Fatalf("entry (%d, %d) deleted twice", e.k, e.v)
		}
		left[e.k]--
		got := tr.Search(key(e.k), nil)
		if len(got) != left[e.k] {
			t.Fatalf("key %d: %d entries left, want %d", e.k, len(got), left[e.k])
		}
		for _, g := range got {
			if bytes.Equal(g, tup(e.k, e.v)) {
				t.Fatalf("deleted entry (%d, %d) still found", e.k, e.v)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.NumTuples() != 0 || tr.DeleteEntry(key(1), tup(1, 0)) {
		t.Fatalf("%d tuples left in an emptied tree", tr.NumTuples())
	}
}

// TestConcurrentReadsCountComparisons: readers sharing a tree (sessions
// probing one index under shared intents) count every comparison, race
// free: two goroutines' searches and range walks add up to twice one
// goroutine's.
func TestConcurrentReadsCountComparisons(t *testing.T) {
	tr := MustNew(smallConfig())
	for i := int64(0); i < 1000; i++ {
		tr.Insert(key(i), tup(i, i))
	}
	read := func() {
		for i := int64(0); i < 200; i++ {
			if got := tr.Search(key(i*5), nil); len(got) != 1 {
				panic("search missed")
			}
			n := 0
			tr.AscendRange(key(i), nil, func([]byte, tuple.Tuple) bool { n++; return n < 3 })
		}
	}
	tr.ResetComparisons()
	read()
	one := tr.Comparisons()
	tr.ResetComparisons()
	done := make(chan struct{})
	go func() { read(); close(done) }()
	read()
	<-done
	if got := tr.Comparisons(); got != 2*one {
		t.Fatalf("two concurrent readers counted %d comparisons, want %d", got, 2*one)
	}
}

package avl

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

func key(k int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k)^(1<<63))
	return b[:]
}

func tup(k int64) tuple.Tuple {
	return tuple.Tuple(key(k))
}

func TestInsertSearchDelete(t *testing.T) {
	tr := &Tree{}
	for i := int64(0); i < 100; i++ {
		tr.Insert(key(i), tup(i))
	}
	if tr.Len() != 100 || tr.NumTuples() != 100 {
		t.Fatalf("len=%d tuples=%d", tr.Len(), tr.NumTuples())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Search(key(42), nil); len(got) != 1 || !bytes.Equal(got[0], tup(42)) {
		t.Fatalf("search(42) = %v", got)
	}
	if got := tr.Search(key(1000), nil); got != nil {
		t.Fatalf("search(missing) = %v", got)
	}
	if !tr.Delete(key(42)) {
		t.Fatal("delete(42) failed")
	}
	if tr.Delete(key(42)) {
		t.Fatal("double delete succeeded")
	}
	if got := tr.Search(key(42), nil); got != nil {
		t.Fatal("deleted key still found")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateKeysChain(t *testing.T) {
	tr := &Tree{}
	for i := 0; i < 5; i++ {
		tr.Insert(key(7), tup(int64(i)))
	}
	if tr.Len() != 1 || tr.NumTuples() != 5 {
		t.Fatalf("len=%d tuples=%d", tr.Len(), tr.NumTuples())
	}
	if got := tr.Search(key(7), nil); len(got) != 5 {
		t.Fatalf("found %d duplicates", len(got))
	}
	if !tr.Delete(key(7)) || tr.NumTuples() != 0 {
		t.Fatal("delete of duplicate chain broken")
	}
}

func TestHeightIsLogarithmic(t *testing.T) {
	tr := &Tree{}
	const n = 1 << 14
	for i := 0; i < n; i++ {
		tr.Insert(key(int64(i)), tup(int64(i))) // worst case: sorted inserts
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// AVL height bound: 1.44 * log2(n+2).
	max := int(1.4405*math.Log2(float64(n+2))) + 1
	if tr.Height() > max {
		t.Fatalf("height %d exceeds AVL bound %d for %d sorted inserts", tr.Height(), max, n)
	}
}

func TestSearchVisitsAboutLog2NNodes(t *testing.T) {
	// The §2 cost model: C = log2(||R||) + 0.25 expected comparisons.
	tr := &Tree{}
	rng := rand.New(rand.NewSource(5))
	const n = 50000
	perm := rng.Perm(n)
	for _, k := range perm {
		tr.Insert(key(int64(k)), tup(int64(k)))
	}
	tr.ResetComparisons()
	const lookups = 2000
	visits := 0
	for i := 0; i < lookups; i++ {
		k := int64(perm[rng.Intn(n)])
		tr.Search(key(k), func(NodeID) { visits++ })
	}
	mean := float64(visits) / lookups
	want := math.Log2(n) + 0.25
	if math.Abs(mean-want) > 2.5 {
		t.Fatalf("mean path length %.2f, model predicts %.2f", mean, want)
	}
}

func TestAscendInOrderFromStart(t *testing.T) {
	tr := &Tree{}
	keys := []int64{5, 1, 9, 3, 7, 2, 8}
	for _, k := range keys {
		tr.Insert(key(k), tup(k))
	}
	var got []int64
	tr.Ascend(key(3), nil, func(k []byte, vals []tuple.Tuple) bool {
		got = append(got, int64(binary.BigEndian.Uint64(k)^(1<<63)))
		return true
	})
	want := []int64{3, 5, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	tr.Ascend(nil, nil, func([]byte, []tuple.Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestMin(t *testing.T) {
	tr := &Tree{}
	if k, _ := tr.Min(); k != nil {
		t.Fatal("empty tree has a min")
	}
	for _, k := range []int64{5, -3, 9} {
		tr.Insert(key(k), tup(k))
	}
	if k, _ := tr.Min(); !bytes.Equal(k, key(-3)) {
		t.Fatalf("min = %x", k)
	}
}

// TestQuickRandomOpsMatchMapOracle drives random insert/delete/search
// against a map oracle and checks the AVL invariants throughout.
func TestQuickRandomOpsMatchMapOracle(t *testing.T) {
	f := func(seed int64, opsN uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Tree{}
		oracle := map[int64]int{}
		ops := int(opsN)%400 + 50
		for i := 0; i < ops; i++ {
			k := int64(rng.Intn(60))
			switch rng.Intn(3) {
			case 0, 1:
				tr.Insert(key(k), tup(k))
				oracle[k]++
			case 2:
				deleted := tr.Delete(key(k))
				if deleted != (oracle[k] > 0) {
					return false
				}
				delete(oracle, k)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		// Every oracle key present with the right multiplicity; in-order
		// traversal sorted.
		total := 0
		for k, n := range oracle {
			if got := len(tr.Search(key(k), nil)); got != n {
				return false
			}
			total += n
		}
		if tr.NumTuples() != total || tr.Len() != len(oracle) {
			return false
		}
		var keys []int64
		tr.Ascend(nil, nil, func(k []byte, _ []tuple.Tuple) bool {
			keys = append(keys, int64(binary.BigEndian.Uint64(k)^(1<<63)))
			return true
		})
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteEntryRemovesOneDuplicate: DeleteEntry drops one payload from
// a key's chain and the node with its last one, keeping the tree balanced.
func TestDeleteEntryRemovesOneDuplicate(t *testing.T) {
	tr := &Tree{}
	for k := int64(0); k < 50; k++ {
		for v := int64(0); v < 3; v++ {
			tr.Insert(key(k), tup(100*k+v))
		}
	}
	for k := int64(0); k < 50; k++ {
		for v := int64(2); v >= 0; v-- {
			if !tr.DeleteEntry(key(k), tup(100*k+v)) {
				t.Fatalf("entry (%d, %d) not found", k, v)
			}
			if tr.DeleteEntry(key(k), tup(100*k+v)) {
				t.Fatalf("entry (%d, %d) deleted twice", k, v)
			}
			if got := len(tr.Search(key(k), nil)); got != int(v) {
				t.Fatalf("key %d: %d entries left, want %d", k, got, v)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != int(49-k) || tr.NumTuples() != 3*int(49-k) {
			t.Fatalf("after key %d: %d keys, %d tuples", k, tr.Len(), tr.NumTuples())
		}
	}
}

// TestConcurrentReadsCountComparisons: readers sharing a tree (sessions
// probing one index under shared intents) count every comparison, race
// free: two goroutines' searches and walks add up to twice one
// goroutine's.
func TestConcurrentReadsCountComparisons(t *testing.T) {
	var tr Tree
	for i := int64(0); i < 1000; i++ {
		tr.Insert(key(i), tup(i))
	}
	read := func() {
		for i := int64(0); i < 200; i++ {
			if got := tr.Search(key(i*5), nil); len(got) != 1 {
				panic("search missed")
			}
			n := 0
			tr.Ascend(key(i), nil, func([]byte, []tuple.Tuple) bool { n++; return n < 3 })
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

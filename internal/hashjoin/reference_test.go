package hashjoin

import (
	"encoding/binary"
	"hash/fnv"

	"mmdb/internal/cost"
	"mmdb/internal/tuple"
)

// The seed's chained hash table and stdlib-FNV hasher, kept verbatim as the
// references the engine's KernelTable and Hasher are compared against:
// identical hash values, identical charges, identical match order.

// refHasher is the seed Hasher: hash/fnv over the salt and key, finalized
// with fmix64, charging one hash per call.
type refHasher struct {
	clock *cost.Clock
	level uint32
}

// NewHasher returns the reference hasher at the given recursion level.
func NewHasher(clock *cost.Clock, level uint32) refHasher {
	return refHasher{clock: clock, level: level}
}

func (h refHasher) Hash(key []byte) uint64 {
	h.clock.Hashes(1)
	f := fnv.New64a()
	var salt [4]byte
	binary.BigEndian.PutUint32(salt[:], h.level+0x9e3779b9)
	f.Write(salt[:])
	f.Write(key)
	return fmix64(f.Sum64())
}

type entry struct {
	hash uint64
	tup  tuple.Tuple
}

// Table is a chained hash table over tuples keyed by one column. Inserts
// charge one move; probes charge one comparison per candidate examined
// (the paper's F*comp expected probe cost).
type Table struct {
	clock   *cost.Clock
	schema  *tuple.Schema
	col     int
	buckets [][]entry
	mask    uint64
	n       int
}

// NewTable creates a table sized for the expected number of tuples.
func NewTable(clock *cost.Clock, schema *tuple.Schema, col int, expected int) *Table {
	nb := 16
	for nb < expected {
		nb <<= 1
	}
	return &Table{
		clock:   clock,
		schema:  schema,
		col:     col,
		buckets: make([][]entry, nb),
		mask:    uint64(nb - 1),
	}
}

// Len returns the number of stored tuples.
func (t *Table) Len() int { return t.n }

// Insert stores tup (whose key hashed to h), charging one move.
func (t *Table) Insert(h uint64, tup tuple.Tuple) {
	t.clock.Moves(1)
	b := h & t.mask
	t.buckets[b] = append(t.buckets[b], entry{hash: h, tup: tup})
	t.n++
}

// Probe calls fn with every stored tuple whose key equals key (which hashed
// to h). Each candidate whose full key is compared charges one comparison.
func (t *Table) Probe(h uint64, key []byte, fn func(tuple.Tuple)) {
	for _, e := range t.buckets[h&t.mask] {
		if e.hash != h {
			continue
		}
		t.clock.Comps(1)
		if keyEqual(t.schema.KeyBytes(e.tup, t.col), key) {
			fn(e.tup)
		}
	}
}

func keyEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

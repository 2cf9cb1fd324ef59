// Package hashjoin provides the shared machinery of the paper's hash-based
// algorithms (§3.3): a salted hash function, a weighted splitter that
// realizes "a partition of R compatible with h", a cost-counting hash
// table (kernel.go), and a disk partitioner with one output buffer page per
// partition.
//
// Cost discipline: hashing a key is charged exactly once per tuple per pass
// by the caller (via Hasher), inserting charges one move, probing charges
// one comparison per examined candidate. This mirrors the per-term
// accounting of the paper's cost formulas.
package hashjoin

import (
	"fmt"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// Hasher hashes key bytes, charging the clock one hash per call. The level
// salt decorrelates recursive partitioning passes (the paper's "extra pass
// for the overflow tuples" must use a fresh hash split).
type Hasher struct {
	clock *cost.Clock
	level uint32
}

// NewFastHasher returns a hasher at the given recursion level. (The name
// dates from when a slower stdlib-FNV hasher sat beside it; bench/ imports
// it, so it stays.)
func NewFastHasher(clock *cost.Clock, level uint32) Hasher {
	return Hasher{clock: clock, level: level}
}

// Hash returns a 64-bit hash of key, charging one hash operation.
func (h Hasher) Hash(key []byte) uint64 {
	h.clock.Hashes(1)
	return fastHash(h.level, key)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fastHash is FNV-1a over the 4 big-endian salt bytes followed by key,
// finalized with fmix64 — the values hash/fnv would produce, without
// allocating its state per call.
func fastHash(level uint32, key []byte) uint64 {
	salt := level + 0x9e3779b9
	h := uint64(fnvOffset64)
	h = (h ^ uint64(salt>>24&0xff)) * fnvPrime64
	h = (h ^ uint64(salt>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(salt>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(salt&0xff)) * fnvPrime64
	for _, b := range key {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return fmix64(h)
}

// fmix64 is the MurmurHash3 finalizer. FNV alone leaves the high bits
// poorly avalanched when inputs differ only in trailing bytes (as
// big-endian integer keys do), which would defeat the Splitter's use of
// the top 32 bits.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Splitter maps hash values to partitions according to a weight vector:
// the general method of §3.3 for building a partition of R compatible with
// h from a partition of the hash value space.
type Splitter struct {
	cuts []uint64 // ascending; partition i covers [cuts[i-1], cuts[i])
}

// NewSplitter builds a splitter whose partition i receives a fraction
// weights[i] of the hash space. Weights must be non-negative and sum to
// a positive value; they are normalized.
func NewSplitter(weights []float64) (*Splitter, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("hashjoin: splitter needs at least one weight")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("hashjoin: negative weight %g at %d", w, i)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("hashjoin: weights sum to zero")
	}
	const space = 1 << 32
	cuts := make([]uint64, len(weights))
	var acc float64
	for i, w := range weights {
		acc += w / sum
		cuts[i] = uint64(acc * space)
	}
	cuts[len(cuts)-1] = space
	return &Splitter{cuts: cuts}, nil
}

// Uniform returns a splitter with n equal partitions.
func Uniform(n int) *Splitter {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	s, err := NewSplitter(w)
	if err != nil {
		panic(err)
	}
	return s
}

// NumPartitions returns the number of partitions.
func (s *Splitter) NumPartitions() int { return len(s.cuts) }

// Partition maps a hash value to its partition index.
func (s *Splitter) Partition(h uint64) int {
	x := h >> 32
	lo, hi := 0, len(s.cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if x >= s.cuts[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Keyed is a pre-hashed tuple, the unit of a batched probe
// (KernelTable.ProbeBatch): the hash is computed and charged once when the
// tuple is scanned, then carried with it into the batch.
type Keyed struct {
	Hash  uint64
	Tuple tuple.Tuple
}

// PartitionResult describes one disk partition produced by Partition.
type PartitionResult struct {
	File   *heap.File
	Tuples int64
}

// Partitioner writes tuples into B disk partitions using one page-sized
// output buffer per partition (§3.6 step 1 / §3.7 step 1). Flushes are
// charged at flushAccess — random IO in the general case, sequential when
// there is a single output buffer (the paper's footnoted discontinuity at
// |M| = |R|*F/2).
type Partitioner struct {
	disk        *simio.Disk
	clock       *cost.Clock
	files       []*heap.File
	flushAccess simio.Access
}

// NewPartitioner creates B empty partition files named prefix.0 .. prefix.B-1.
func NewPartitioner(disk *simio.Disk, clock *cost.Clock, schema *tuple.Schema, prefix string, b int, flushAccess simio.Access) (*Partitioner, error) {
	if b < 1 {
		return nil, fmt.Errorf("hashjoin: need at least one partition, got %d", b)
	}
	p := &Partitioner{disk: disk, clock: clock, flushAccess: flushAccess}
	for i := 0; i < b; i++ {
		f, err := heap.Create(disk, fmt.Sprintf("%s.%d", prefix, i), schema)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	return p, nil
}

// Add copies tup into partition i's output buffer, charging one move. Page
// flushes charge the partitioner's flush access kind.
func (p *Partitioner) Add(i int, tup tuple.Tuple) error {
	p.clock.Moves(1)
	return p.files[i].Append(tup, p.flushAccess)
}

// Close flushes all output buffers (§3.6: "flush all output buffers to
// disk") and returns the partitions.
func (p *Partitioner) Close() ([]PartitionResult, error) {
	out := make([]PartitionResult, len(p.files))
	for i, f := range p.files {
		if err := f.Flush(p.flushAccess); err != nil {
			return nil, err
		}
		out[i] = PartitionResult{File: f, Tuples: f.NumTuples()}
	}
	return out, nil
}

// The hash table: §3.3's accounting over a radix-partitioned
// open-addressing layout that keeps each probed region cache-resident. It
// is the engine's one hash table: the hash joins build and probe it
// (join/pass.go), and the aggregate keeps its groups in it (agg.aggregate
// finds a tuple's group with Find and inserts a new one on a miss).
//
// The charge discipline is the paper's, and is pinned by tests against a
// chained reference table (reference_test.go):
//
//   - Insert charges exactly one move.
//   - Probe charges one comparison per stored entry whose full 64-bit hash
//     equals the probe hash; mismatched hashes are skipped without charge.
//   - Find charges the same way, but stops at the first key match: one
//     comparison per full-hash entry up to and including it.
//   - Equal-hash entries are visited in insertion order: under linear
//     probing with no deletions, a later insert with the same home slot
//     always lands strictly later on the probe path (every earlier slot it
//     scans is occupied), and rebuilds during growth re-place entries in
//     insertion order. Matched tuples therefore reach fn in the order a
//     per-bucket append chain would give.
//
// The physical layout is flat 16-byte slots scanned sequentially,
// sub-tables sized to stay inside the cache, and a batched probe path that
// groups a vector of pre-hashed keys by destination partition so each
// sub-table is swept while hot.
package hashjoin

import (
	"bytes"

	"mmdb/internal/cost"
	"mmdb/internal/tuple"
)

const (
	// kernelPartShift selects the radix bits for the sub-table index. The
	// top 32 hash bits belong to Splitter ranges, so within one disk
	// partition they are constrained; bits 20.. vary freely and the low
	// bits stay available for slot homes.
	kernelPartShift = 20
	// kernelPartTarget is the entry count a sub-table is sized to hold:
	// 8K entries × 16-byte slots ≈ 128KiB of slot array, L2-resident.
	kernelPartTarget = 8192
	kernelMaxParts   = 256
	kernelMinSlots   = 16
	// kernelLoadNum/Den is the open-addressing load-factor target (3/4):
	// a part grows before exceeding it, so probe chains stay short.
	kernelLoadNum = 3
	kernelLoadDen = 4
)

// kslot is one open-addressing slot: the full 64-bit hash for charge-free
// mismatch skips during a sequential scan, and a 1-based index into the
// part's entry arena (0 = empty).
type kslot struct {
	hash uint64
	ref  int32
	_    int32 // pad to 16 bytes so slots never straddle lines unevenly
}

// kentry holds an inserted tuple and its hash (needed to re-place the
// entry, in insertion order, when the part grows).
type kentry struct {
	hash uint64
	tup  tuple.Tuple
}

type kpart struct {
	slots   []kslot
	mask    uint64
	entries []kentry
}

// KernelTable is the engine's hash table over tuples keyed by one column:
// tuples are radix-partitioned by hash bits into open-addressing sub-tables
// small enough to stay cache-resident, with flat slot arrays instead of
// per-bucket chains. Inserts charge one move; probes charge one comparison
// per candidate examined (the paper's F*comp expected probe cost; see the
// comment at the top of this file). It is single-owner: one goroutine at a
// time per table.
type KernelTable struct {
	clock  *cost.Clock
	schema *tuple.Schema
	col    int
	parts  []kpart
	pmask  uint64
	n      int

	// ProbeBatch scratch, reused across batches (single-owner, like
	// Insert).
	pbOrder  []int32
	pbCounts []int32
	pbOff    []int32
	pbLen    []int32
	pbCand   []pbCand
	pbTups   []tuple.Tuple
	warmSink uint64
}

// NewKernelTable creates a kernel table sized for the expected number of
// tuples: enough sub-tables to keep each near kernelPartTarget entries, and
// enough slots per sub-table to stay under the load-factor target without
// growing.
func NewKernelTable(clock *cost.Clock, schema *tuple.Schema, col int, expected int) *KernelTable {
	np := 1
	for np < kernelMaxParts && expected > np*kernelPartTarget {
		np <<= 1
	}
	t := &KernelTable{
		clock:  clock,
		schema: schema,
		col:    col,
		parts:  make([]kpart, np),
		pmask:  uint64(np - 1),
	}
	per := ceilDiv(expected, np)
	for i := range t.parts {
		t.parts[i].init(slotsForLoad(per))
	}
	return t
}

// slotsForLoad returns the smallest power-of-two slot count whose
// load-factor target covers expected entries.
func slotsForLoad(expected int) int {
	ns := kernelMinSlots
	for ns*kernelLoadNum/kernelLoadDen < expected {
		ns <<= 1
	}
	return ns
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func (p *kpart) init(nslots int) {
	p.slots = make([]kslot, nslots)
	p.mask = uint64(nslots - 1)
}

func (t *KernelTable) partIndex(h uint64) int {
	return int((h >> kernelPartShift) & t.pmask)
}

// Len returns the number of stored tuples.
func (t *KernelTable) Len() int { return t.n }

// NumParts returns the number of radix sub-tables.
func (t *KernelTable) NumParts() int { return len(t.parts) }

// Insert stores tup (whose key hashed to h), charging one move.
func (t *KernelTable) Insert(h uint64, tup tuple.Tuple) {
	t.clock.Moves(1)
	p := &t.parts[t.partIndex(h)]
	if (len(p.entries)+1)*kernelLoadDen > len(p.slots)*kernelLoadNum {
		t.grow(p)
	}
	p.entries = append(p.entries, kentry{hash: h, tup: tup})
	ref := int32(len(p.entries))
	i := h & p.mask
	for p.slots[i].ref != 0 {
		i = (i + 1) & p.mask
	}
	p.slots[i] = kslot{hash: h, ref: ref}
	t.n++
}

// grow doubles a part's slot array and re-places every entry in insertion
// order, preserving equal-hash probe order. Growth is physical
// housekeeping, not a §3 operation: it charges nothing.
func (t *KernelTable) grow(p *kpart) {
	nslots := len(p.slots) * 2
	p.init(nslots)
	for ref, e := range p.entries {
		i := e.hash & p.mask
		for p.slots[i].ref != 0 {
			i = (i + 1) & p.mask
		}
		p.slots[i] = kslot{hash: e.hash, ref: int32(ref + 1)}
	}
}

// Probe calls fn with every stored tuple whose key equals key (which hashed
// to h), charging one comparison per full-hash match, in insertion order.
func (t *KernelTable) Probe(h uint64, key []byte, fn func(tuple.Tuple)) {
	p := &t.parts[t.partIndex(h)]
	for i, tup := t.match(p, h&p.mask, h, key); tup != nil; i, tup = t.match(p, i, h, key) {
		fn(tup)
	}
}

// Find returns the first stored tuple whose key equals key (which hashed to
// h), or nil, charging one comparison per full-hash match examined, up to
// and including the one it returns.
func (t *KernelTable) Find(h uint64, key []byte) tuple.Tuple {
	p := &t.parts[t.partIndex(h)]
	_, tup := t.match(p, h&p.mask, h, key)
	return tup
}

// match walks p's probe path from slot i to the first stored tuple whose
// key equals key and returns it with the slot after it, or nil at the
// first empty slot, charging one comparison per full-hash match.
func (t *KernelTable) match(p *kpart, i, h uint64, key []byte) (uint64, tuple.Tuple) {
	for ; ; i = (i + 1) & p.mask {
		s := p.slots[i]
		if s.ref == 0 {
			return i, nil
		}
		if s.hash != h {
			continue
		}
		t.clock.Comps(1)
		if e := &p.entries[s.ref-1]; bytes.Equal(t.schema.KeyBytes(e.tup, t.col), key) {
			return (i + 1) & p.mask, e.tup
		}
	}
}

// BatchSize is the probe-vector length that keeps a batch's per-part groups
// long enough to amortize bringing each sub-table into cache.
func (t *KernelTable) BatchSize() int {
	return min(max(4*len(t.parts), 256), 4096)
}

// ProbeBatch probes a vector of pre-hashed keys: it groups the batch by
// destination sub-table, sweeps each sub-table with its group while the
// part is cache-hot, then emits matches via fn(i, match) in ascending batch
// index with each index's matches in stored order — exactly the sequence
// len(batch) sequential Probe calls would produce, with identical charges.
// keyOf extracts the probe key from a batch tuple. Single-owner, like
// Insert.
func (t *KernelTable) ProbeBatch(batch []Keyed, keyOf func(tuple.Tuple) []byte, fn func(i int, match tuple.Tuple)) {
	n := len(batch)
	if n == 0 {
		return
	}
	if t.pbCand == nil {
		// Size the candidate and match scratch once per table, to the
		// first batch, rather than growing them by doubling.
		t.pbCand = make([]pbCand, 0, n)
		t.pbTups = make([]tuple.Tuple, 0, n)
	}
	np := len(t.parts)
	order := grow32(&t.pbOrder, n)
	if np == 1 {
		for i := range order {
			order[i] = int32(i)
		}
	} else {
		// Counting sort of batch indices by destination part. Stable, so
		// groups preserve batch order (irrelevant for output — spans are
		// emitted by index below — but it keeps memory access monotone).
		counts := grow32(&t.pbCounts, np+1)
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			counts[t.partIndex(batch[i].Hash)+1]++
		}
		for pi := 1; pi <= np; pi++ {
			counts[pi] += counts[pi-1]
		}
		for i := 0; i < n; i++ {
			pi := t.partIndex(batch[i].Hash)
			order[counts[pi]] = int32(i)
			counts[pi]++
		}
	}

	// Multi-pass sweep over the grouped order. Each pass issues a train of
	// independent loads, so cache misses from different probes overlap
	// instead of serializing down one probe's pointer chain. Charges
	// commute (the clock only sums), so neither the grouped order nor the
	// batched Comps charge below changes any counter.

	// Pass 1: walk each probe's cluster collecting full-hash matches,
	// warming the cluster lines of the probe pdist ahead (home line plus
	// the next line — slots are 16 bytes, four per line) so the walk's
	// loads are L1 hits by the time we reach them. The lookahead window
	// stays a few KiB, so it survives even a small L2. The xor-accumulate
	// keeps the warming loads from being eliminated as dead code.
	// Candidates of one probe stay adjacent and in stored order.
	const pdist = 24
	var warm uint64
	cands := t.pbCand[:0]
	for k, oi := range order {
		if k+pdist < n {
			oj := order[k+pdist]
			hj := batch[oj].Hash
			pj := &t.parts[t.partIndex(hj)]
			ij := hj & pj.mask
			warm ^= pj.slots[ij].hash ^ pj.slots[(ij+4)&pj.mask].hash
		}
		h := batch[oi].Hash
		pi := t.partIndex(h)
		p := &t.parts[pi]
		idx := h & p.mask
		s := p.slots[idx]
		for s.ref != 0 {
			if s.hash == h {
				cands = append(cands, pbCand{k: oi, part: int32(pi), ref: s.ref})
			}
			idx = (idx + 1) & p.mask
			s = p.slots[idx]
		}
	}

	// The §3 probe cost: one comparison per full-hash candidate, exactly
	// what per-tuple probing charges one by one.
	t.clock.Comps(int64(len(cands)))

	// Pass 3: warm the candidate entry lines; pass 4: warm the stored
	// tuples' data lines.
	for _, c := range cands {
		warm ^= t.parts[c.part].entries[c.ref-1].hash
	}
	for _, c := range cands {
		tup := t.parts[c.part].entries[c.ref-1].tup
		warm ^= uint64(tup[0])
	}
	t.warmSink = warm

	// Pass 5: compare keys and record each probe's match span.
	off := grow32(&t.pbOff, n)
	cnt := grow32(&t.pbLen, n)
	for i := range cnt {
		cnt[i] = 0
	}
	tups := t.pbTups[:0]
	for ci := 0; ci < len(cands); {
		i := cands[ci].k
		key := keyOf(batch[i].Tuple)
		start := len(tups)
		for ; ci < len(cands) && cands[ci].k == i; ci++ {
			c := cands[ci]
			e := &t.parts[c.part].entries[c.ref-1]
			if bytes.Equal(t.schema.KeyBytes(e.tup, t.col), key) {
				tups = append(tups, e.tup)
			}
		}
		off[i] = int32(start)
		cnt[i] = int32(len(tups) - start)
	}
	t.pbCand = cands[:0]

	// Emit in batch order.
	for i := 0; i < n; i++ {
		for j := off[i]; j < off[i]+cnt[i]; j++ {
			fn(i, tups[j])
		}
	}
	// Drop the matched build tuples so the scratch does not keep them
	// reachable until the next batch.
	clear(tups)
	t.pbTups = tups[:0]
}

// pbCand is one full-hash probe candidate: which batch index produced it
// and where its entry lives.
type pbCand struct {
	k    int32
	part int32
	ref  int32
}

func grow32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

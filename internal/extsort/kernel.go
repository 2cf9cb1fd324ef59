// The sort's counting selection tree: a binary min-heap that counts one
// comparison per key compare and one swap per element movement. The paper's
// priority-queue terms — (comp+swap) per level per insertion — fall out of
// counting the actual sift operations. The sift paths, the short-circuit
// order in siftDown and the counts are pinned by tests against the seed's
// item-array heap (pqueue_test.go).
//
// The charge discipline is tally, then charge(): the queue counts in two
// plain fields and charge() adds them to its clock, which the sort's
// workers share. Each queue has one owner at a time, and the owner
// flushes at its stream boundaries — once per replacement-selection call
// (also on error), once after a merge primes its queue, and once per
// memStream/mergeStream Next — so an abandoned stream is billed exactly
// what it consumed, at one atomic add per counter per pull instead of one
// per comparison.
//
// The physical layout is cache-conscious:
//
//   - Heap nodes are flat 16-byte {prefix, run, ref} records instead of
//     56-byte items carrying two slice headers. A sift swap moves one
//     pointer-free word pair (no GC write barriers) and a heap level fits
//     four nodes per cache line.
//   - Each node carries the first 8 key bytes, big-endian, so most
//     comparisons resolve on an in-node uint64 compare without touching
//     the key bytes at all. For same-length keys the prefix is
//     sign-equivalent to bytes.Compare (differing prefixes decide the
//     sign; equal prefixes on keys <= 8 bytes mean equal keys), so every
//     less() result — and therefore every sift path — is identical.
//   - Items live in a side arena indexed by ref, recycled through a free
//     list, so pushing and popping never moves tuple or key headers
//     through the heap.
//
// A tournament (loser) tree was evaluated for this role and rejected: it
// performs exactly ceil(log2 k) comparisons per replacement, while the
// paper's binary heap charges a data-dependent number (the actual sift
// path), so a charged loser tree cannot reproduce the §3 accounting
// bit-for-bit at plan-identical knobs.
package extsort

import (
	"bytes"
	"encoding/binary"

	"mmdb/internal/cost"
	"mmdb/internal/tuple"
)

// item is a priority queue element: a tuple, its sort key, and the run it
// belongs to (run formation) or comes from (merge).
type item struct {
	run int
	key []byte
	tup tuple.Tuple
}

// lessKind names the two charged orderings.
type lessKind int

const (
	kindRunThenKey lessKind = iota // replacement selection
	kindKey                        // merge (run breaks ties)
)

// knode is one heap slot: the key prefix, the run, and the arena index of
// the full item.
type knode struct {
	prefix uint64
	run    int32
	ref    int32
}

// kqueue is the selection tree. See the file comment for the charge
// discipline and the layout.
type kqueue struct {
	clock *cost.Clock
	byRun bool
	nodes []knode
	arena []item
	free  []int32
	// comps and swaps are counted but not yet charged to clock.
	comps, swaps int64
	// keyLen/short track whether every key seen so far has the same length
	// <= 8 bytes; then equal prefixes imply equal keys and the fallback
	// byte compare is skipped entirely (Int64 sort keys always qualify).
	keyLen int
	short  bool
}

func newKQueue(clock *cost.Clock, kind lessKind, capacity int) *kqueue {
	return &kqueue{
		clock:  clock,
		byRun:  kind == kindRunThenKey,
		nodes:  make([]knode, 0, capacity),
		arena:  make([]item, 0, capacity),
		keyLen: -1,
		short:  true,
	}
}

// prefixOf returns the first 8 key bytes, big-endian, zero-extended. For
// same-length keys, unequal prefixes decide bytes.Compare's sign.
func prefixOf(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, b := range key {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

func (q *kqueue) track(key []byte) {
	if q.keyLen == -1 {
		q.keyLen = len(key)
		q.short = len(key) <= 8
	} else if len(key) != q.keyLen {
		q.short = false
	}
}

// cmp is sign-equivalent to bytes.Compare on the underlying keys.
func (q *kqueue) cmp(a, b *knode) int {
	if a.prefix != b.prefix {
		if a.prefix < b.prefix {
			return -1
		}
		return 1
	}
	if q.short {
		return 0
	}
	return bytes.Compare(q.arena[a.ref].key, q.arena[b.ref].key)
}

// less orders nodes: for replacement selection, current-run elements
// first, by key within a run (a run mismatch charges nothing); for merges,
// by key with the run breaking ties for determinism.
func (q *kqueue) less(a, b *knode) bool {
	if q.byRun {
		if a.run != b.run {
			return a.run < b.run
		}
		q.comps++
		return q.cmp(a, b) < 0
	}
	q.comps++
	if c := q.cmp(a, b); c != 0 {
		return c < 0
	}
	return a.run < b.run
}

// charge adds the tallied comparisons and swaps to the clock and zeroes
// the tally.
func (q *kqueue) charge() {
	q.clock.Comps(q.comps)
	q.clock.Swaps(q.swaps)
	q.comps, q.swaps = 0, 0
}

func (q *kqueue) alloc(it item) int32 {
	if n := len(q.free); n > 0 {
		ref := q.free[n-1]
		q.free = q.free[:n-1]
		q.arena[ref] = it
		return ref
	}
	q.arena = append(q.arena, it)
	return int32(len(q.arena) - 1)
}

func (q *kqueue) release(ref int32) {
	q.arena[ref] = item{} // drop tuple/key references for the GC
	q.free = append(q.free, ref)
}

func (q *kqueue) Len() int { return len(q.nodes) }

func (q *kqueue) Peek() *item { return &q.arena[q.nodes[0].ref] }

func (q *kqueue) Push(it item) {
	q.track(it.key)
	n := knode{prefix: prefixOf(it.key), run: int32(it.run), ref: q.alloc(it)}
	q.nodes = append(q.nodes, n)
	i := len(q.nodes) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(&q.nodes[i], &q.nodes[parent]) {
			break
		}
		q.swaps++
		q.nodes[i], q.nodes[parent] = q.nodes[parent], q.nodes[i]
		i = parent
	}
}

func (q *kqueue) Pop() item {
	top := q.nodes[0]
	out := q.arena[top.ref]
	q.release(top.ref)
	last := len(q.nodes) - 1
	q.nodes[0] = q.nodes[last]
	q.nodes = q.nodes[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return out
}

// Replace pops the minimum and pushes it in one sift, reusing the arena
// slot — the classic replacement-selection step.
func (q *kqueue) Replace(it item) item {
	q.track(it.key)
	top := q.nodes[0]
	out := q.arena[top.ref]
	q.arena[top.ref] = it
	q.nodes[0] = knode{prefix: prefixOf(it.key), run: int32(it.run), ref: top.ref}
	q.siftDown(0)
	return out
}

// siftDown's evaluation order is part of the accounting: the right-vs-left
// probe short-circuits on right < n first, then the child-vs-parent test.
func (q *kqueue) siftDown(i int) {
	n := len(q.nodes)
	for {
		left, right := 2*i+1, 2*i+2
		if left >= n {
			return
		}
		child := left
		if right < n && q.less(&q.nodes[right], &q.nodes[left]) {
			child = right
		}
		if !q.less(&q.nodes[child], &q.nodes[i]) {
			return
		}
		q.swaps++
		q.nodes[i], q.nodes[child] = q.nodes[child], q.nodes[i]
		i = child
	}
}

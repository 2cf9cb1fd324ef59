package extsort

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/tuple"
)

func intKey(k int) []byte {
	return []byte{byte(k >> 8), byte(k)}
}

func TestPQueuePopsInOrder(t *testing.T) {
	clock := cost.NewClock(cost.DefaultParams())
	q := newPQueue(clock, byKey(clock), 16)
	rng := rand.New(rand.NewSource(1))
	var want []int
	for i := 0; i < 500; i++ {
		k := rng.Intn(1000)
		want = append(want, k)
		q.Push(item{key: intKey(k), tup: tuple.Tuple{}})
	}
	sort.Ints(want)
	for i, w := range want {
		got := q.Pop()
		if int(got.key[0])<<8|int(got.key[1]) != w {
			t.Fatalf("pop %d: got %v want %d", i, got.key, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d", q.Len())
	}
	if c := clock.Counters(); c.Comps == 0 || c.Swaps == 0 {
		t.Fatalf("heap work not charged: %+v", c)
	}
}

func TestPQueueRunOrdering(t *testing.T) {
	// Replacement selection orders by (run, key): run-1 elements never
	// surface before run-0 elements regardless of key.
	clock := cost.NewClock(cost.DefaultParams())
	q := newPQueue(clock, byRunThenKey(clock), 8)
	q.Push(item{run: 1, key: intKey(0), tup: tuple.Tuple{}})
	q.Push(item{run: 0, key: intKey(900), tup: tuple.Tuple{}})
	q.Push(item{run: 0, key: intKey(100), tup: tuple.Tuple{}})
	if got := q.Pop(); got.run != 0 || got.key[1] != intKey(100)[1] {
		t.Fatalf("first pop = run %d key %v", got.run, got.key)
	}
	if got := q.Pop(); got.run != 0 {
		t.Fatalf("second pop from run %d", got.run)
	}
	if got := q.Pop(); got.run != 1 {
		t.Fatalf("third pop from run %d", got.run)
	}
}

func TestPQueueReplace(t *testing.T) {
	clock := cost.NewClock(cost.DefaultParams())
	q := newPQueue(clock, byKey(clock), 8)
	for _, k := range []int{5, 2, 9} {
		q.Push(item{key: intKey(k), tup: tuple.Tuple{}})
	}
	// Replace pops the min (2) while pushing 7 in one sift.
	got := q.Replace(item{key: intKey(7), tup: tuple.Tuple{}})
	if got.key[1] != 2 {
		t.Fatalf("replace returned key %v", got.key)
	}
	order := []int{}
	for q.Len() > 0 {
		it := q.Pop()
		order = append(order, int(it.key[0])<<8|int(it.key[1]))
	}
	if len(order) != 3 || order[0] != 5 || order[1] != 7 || order[2] != 9 {
		t.Fatalf("after replace: %v", order)
	}
}

// The seed's item-array binary heap, kept verbatim as the reference the
// engine's kqueue is compared against (TestSortKernelQueueMatchesPQueue):
// identical pops, identical charges.

// lessFunc orders queue items, charging comparisons on the clock as it
// goes.
type lessFunc func(a, b *item) bool

// byRunThenKey orders for replacement selection: current-run elements
// first, by key within a run.
func byRunThenKey(clock *cost.Clock) lessFunc {
	return func(a, b *item) bool {
		if a.run != b.run {
			return a.run < b.run
		}
		clock.Comps(1)
		return bytes.Compare(a.key, b.key) < 0
	}
}

// byKey orders for the final merge (run field breaks ties for determinism).
func byKey(clock *cost.Clock) lessFunc {
	return func(a, b *item) bool {
		clock.Comps(1)
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c < 0
		}
		return a.run < b.run
	}
}

// pqueue is a binary min-heap that charges one swap per element movement.
// The paper's priority-queue terms — (comp+swap) per level per insertion —
// fall out of counting the actual sift operations.
type pqueue struct {
	clock *cost.Clock
	less  lessFunc
	items []item
}

func newPQueue(clock *cost.Clock, less lessFunc, capacity int) *pqueue {
	return &pqueue{clock: clock, less: less, items: make([]item, 0, capacity)}
}

func (q *pqueue) Len() int { return len(q.items) }

func (q *pqueue) Peek() *item { return &q.items[0] }

func (q *pqueue) Push(it item) {
	q.items = append(q.items, it)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(&q.items[i], &q.items[parent]) {
			break
		}
		q.clock.Swaps(1)
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *pqueue) Pop() item {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return top
}

// Replace pops the minimum and pushes it in one sift, the classic
// replacement-selection step.
func (q *pqueue) Replace(it item) item {
	top := q.items[0]
	q.items[0] = it
	q.siftDown(0)
	return top
}

func (q *pqueue) siftDown(i int) {
	n := len(q.items)
	for {
		left, right := 2*i+1, 2*i+2
		if left >= n {
			return
		}
		child := left
		if right < n && q.less(&q.items[right], &q.items[left]) {
			child = right
		}
		if !q.less(&q.items[child], &q.items[i]) {
			return
		}
		q.clock.Swaps(1)
		q.items[i], q.items[child] = q.items[child], q.items[i]
		i = child
	}
}

// newRefQueue returns the reference heap for the given ordering.
func newRefQueue(clock *cost.Clock, kind lessKind, capacity int) *pqueue {
	if kind == kindRunThenKey {
		return newPQueue(clock, byRunThenKey(clock), capacity)
	}
	return newPQueue(clock, byKey(clock), capacity)
}

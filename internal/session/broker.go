package session

import (
	"context"
	"fmt"
	"sync"
)

// MinGrant is the smallest memory grant the broker will hand out: the
// engine needs at least two pages (one input, one output) for any §3
// operator to make progress.
const MinGrant = 2

// Broker partitions a fixed budget of memory pages into per-query
// grants. The budget splits into a general pool plus an optional
// reserved pool per class: a class's grants draw its own reserved pool
// first, then the general pool, and can never touch another class's
// reservation — so batch grants cannot starve interactive |M|, the
// multiclass analogue of the paper's "memory is the resource" stance.
//
// A default grant is the class's static share,
// (general + reserved[class])/slots, independent of instantaneous load:
// that keeps planner choices and virtual-clock accounting bit-identical
// whether queries run serially or concurrently, and guarantees that any
// mix of at most `slots` admitted queries always fits — admitted queries
// never block on memory, only on admission. Reservations queue FIFO per
// class when the pools are exhausted (explicit-size grants can exceed the
// share); the invariant granted <= total holds at all times (checked,
// with a high-water mark for audits). It is safe for concurrent use.
type Broker struct {
	total    int
	general  int // total minus all reservations
	reserved [NumClasses]int
	share    [NumClasses]int // default grant size per class

	mu      sync.Mutex
	freeGen int
	freeRes [NumClasses]int
	peak    int // high-water mark of granted pages
	grants  uint64
	queues  [NumClasses][]*memWaiter
}

type memWaiter struct {
	pages int // the grant size, fixed at request time
	ready chan int
}

// NewBroker returns a broker over total pages serving at most slots
// concurrent queries, with reserved[c] pages set aside for exclusive use
// by class c. Reservations are clamped so the general pool keeps at least
// MinGrant pages; each class's static share is
// (general + reserved[class])/slots, clamped up to MinGrant and down to
// the class's maximum drawable pool.
func NewBroker(total, slots int, reserved [NumClasses]int) *Broker {
	if total < MinGrant {
		total = MinGrant
	}
	if slots < 1 {
		slots = 1
	}
	b := &Broker{total: total}
	// Clamp reservations: never reserve past total-MinGrant overall.
	budget := total - MinGrant
	for c := 0; c < int(NumClasses); c++ {
		r := reserved[c]
		if r < 0 {
			r = 0
		}
		if r > budget {
			r = budget
		}
		budget -= r
		b.reserved[c] = r
	}
	sum := 0
	for _, r := range b.reserved {
		sum += r
	}
	b.general = total - sum
	b.freeGen = b.general
	for c := 0; c < int(NumClasses); c++ {
		b.freeRes[c] = b.reserved[c]
		share := (b.general + b.reserved[c]) / slots
		if share < MinGrant {
			share = MinGrant
		}
		if max := b.general + b.reserved[c]; share > max {
			share = max
		}
		b.share[c] = share
	}
	return b
}

// NewUnreservedBroker is NewBroker with no per-class reservations: every
// class shares one pool and one share size, the pre-multiclass behavior.
func NewUnreservedBroker(total, slots int) *Broker {
	return NewBroker(total, slots, [NumClasses]int{})
}

// Total returns the brokered budget |M|.
func (b *Broker) Total() int { return b.total }

// Reserved returns the pages set aside for class c.
func (b *Broker) Reserved(c Class) int { return b.reserved[c] }

// Share returns the default grant size for class c.
func (b *Broker) Share(c Class) int { return b.share[c] }

// classMax returns the largest pool class c may ever draw from.
func (b *Broker) classMax(c Class) int { return b.general + b.reserved[c] }

// Reserve blocks until a grant is available for class and returns its
// size in pages. want == 0 requests the class's share; want > 0
// requests an explicit size (clamped to [MinGrant, the class's drawable
// pool]) — the path for a query that must execute with the |M| it was
// costed against (a session's WithMinPages). Waiters are served strictly
// FIFO within a class, higher-priority classes first across classes; a
// waiter whose context ends while queued is removed without a grant.
func (b *Broker) Reserve(ctx context.Context, class Class, want int) (int, error) {
	if !class.Valid() {
		class = Batch
	}
	if max := b.classMax(class); want > max {
		want = max
	}
	if want == 0 {
		want = b.share[class]
	} else if want < MinGrant {
		want = MinGrant
	}
	b.mu.Lock()
	if err := ctx.Err(); err != nil {
		b.mu.Unlock()
		return 0, err
	}
	if len(b.queues[class]) == 0 && b.drawableLocked(class) >= want {
		grant := b.grantLocked(class, want)
		b.mu.Unlock()
		return grant, nil
	}
	w := &memWaiter{pages: want, ready: make(chan int, 1)}
	b.queues[class] = append(b.queues[class], w)
	b.mu.Unlock()

	select {
	case grant := <-w.ready:
		return grant, nil
	case <-ctx.Done():
		b.mu.Lock()
		select {
		case grant := <-w.ready:
			// Granted concurrently with cancellation: keep the grant so
			// the pages are returned exactly once, via the caller's
			// Release.
			b.mu.Unlock()
			return grant, nil
		default:
		}
		for i, q := range b.queues[class] {
			if q == w {
				b.queues[class] = append(b.queues[class][:i], b.queues[class][i+1:]...)
				break
			}
		}
		b.mu.Unlock()
		return 0, ctx.Err()
	}
}

// drawableLocked returns the pages class c could take right now.
func (b *Broker) drawableLocked(c Class) int { return b.freeGen + b.freeRes[c] }

// grantLocked carves a grant of the given size out of the class's
// reserved pool first, then the general pool.
func (b *Broker) grantLocked(class Class, grant int) int {
	if grant > b.drawableLocked(class) {
		// Unreachable by construction (callers check the class can draw
		// the grant first); guard the invariant anyway.
		panic(fmt.Sprintf("session: broker over-grant: %s wants %d, drawable %d",
			class, grant, b.drawableLocked(class)))
	}
	fromRes := grant
	if fromRes > b.freeRes[class] {
		fromRes = b.freeRes[class]
	}
	b.freeRes[class] -= fromRes
	b.freeGen -= grant - fromRes
	b.grants++
	if used := b.total - b.freeLocked(); used > b.peak {
		b.peak = used
	}
	return grant
}

// freeLocked sums every pool's free pages.
func (b *Broker) freeLocked() int {
	free := b.freeGen
	for _, r := range b.freeRes {
		free += r
	}
	return free
}

// Release returns a class's grant to its pools — the reserved pool is
// refilled first, the remainder goes to the general pool — and serves
// eligible queued waiters: higher-priority classes first, strictly FIFO
// within a class (a class's head blocks its later arrivals even if they
// would fit — no intra-class starvation).
func (b *Broker) Release(class Class, pages int) {
	if pages == 0 {
		return
	}
	if !class.Valid() {
		class = Batch
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	toRes := b.reserved[class] - b.freeRes[class]
	if toRes > pages {
		toRes = pages
	}
	b.freeRes[class] += toRes
	b.freeGen += pages - toRes
	if free := b.freeLocked(); free > b.total {
		panic(fmt.Sprintf("session: broker released more than granted: free %d > total %d", free, b.total))
	}
	for c := 0; c < int(NumClasses); c++ {
		for len(b.queues[c]) > 0 {
			w := b.queues[c][0]
			if b.drawableLocked(Class(c)) < w.pages {
				break
			}
			b.queues[c] = b.queues[c][1:]
			w.ready <- b.grantLocked(Class(c), w.pages)
		}
	}
}

// Granted returns the pages currently out on grant.
func (b *Broker) Granted() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total - b.freeLocked()
}

// Peak returns the high-water mark of pages simultaneously granted; it can
// never exceed Total.
func (b *Broker) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// Grants returns the count of grants issued.
func (b *Broker) Grants() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.grants
}

// Package buffer implements a page-residency buffer pool with pluggable
// replacement (random, as assumed by the paper's fault model in §2, or LRU)
// and fault accounting.
//
// The pool tracks which pages of which spaces are memory resident and
// counts faults; the access-method experiments (Table 1 validation) drive
// AVL and B+-tree traversals through it to measure empirical fault rates
// against the paper's closed-form approximation
// faults ≈ accesses * (1 - |M|/S).
package buffer

import (
	"container/list"
	"fmt"
	"math/rand"

	"mmdb/internal/cost"
	"mmdb/internal/fault"
	"mmdb/internal/simio"
)

// Policy selects the replacement algorithm. Random is the paper's §2
// assumption; LRU and Clock address its §6 future-work question of
// managing very large buffer pools (the ablation experiments compare all
// three).
type Policy int

// Replacement policies.
const (
	Random Policy = iota // paper's assumption in §2
	LRU
	Clock // second-chance: LRU-like quality at O(1) metadata cost
)

func (p Policy) String() string {
	switch p {
	case Random:
		return "random"
	case LRU:
		return "lru"
	case Clock:
		return "clock"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PageKey identifies a page within a named space.
type PageKey struct {
	Space string
	Page  int
}

// Stats reports pool activity.
type Stats struct {
	Accesses int64
	Hits     int64
	Faults   int64
}

// HitRate returns the fraction of accesses served from memory.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Pool is a fixed-capacity set of resident pages.
// It is not safe for concurrent use.
type Pool struct {
	capacity int
	policy   Policy
	rng      *rand.Rand
	clock    *cost.Clock // optional; charged one random IO per fault

	resident map[PageKey]*list.Element // element value is PageKey
	order    *list.List                // MRU at front (LRU policy); insertion order otherwise
	slots    []PageKey                 // dense slot table for O(1) random eviction / clock ring
	slotOf   map[PageKey]int
	ref      map[PageKey]bool // clock reference bits
	hand     int              // clock hand over slots

	stats Stats
}

// New creates a pool with the given number of page frames. A nil clock
// disables fault charging. The seed makes random replacement deterministic.
func New(capacity int, policy Policy, clock *cost.Clock, seed int64) *Pool {
	if capacity < 1 {
		panic("buffer: capacity must be at least 1")
	}
	return &Pool{
		capacity: capacity,
		policy:   policy,
		rng:      rand.New(rand.NewSource(seed)),
		clock:    clock,
		resident: make(map[PageKey]*list.Element, capacity),
		order:    list.New(),
		slotOf:   make(map[PageKey]int, capacity),
		ref:      make(map[PageKey]bool, capacity),
	}
}

// Capacity returns the number of frames (the paper's |M|).
func (p *Pool) Capacity() int { return p.capacity }

// Len returns the number of currently resident pages.
func (p *Pool) Len() int { return len(p.resident) }

// Stats returns a snapshot of access statistics.
func (p *Pool) Stats() Stats { return p.stats }

// ResetStats zeroes the counters without evicting pages.
func (p *Pool) ResetStats() { p.stats = Stats{} }

// Resident reports whether key is currently in the pool.
func (p *Pool) Resident(key PageKey) bool {
	_, ok := p.resident[key]
	return ok
}

// Touch records an access to key. It returns true when the access faulted
// (the page was not resident); the page is then brought in, evicting a
// victim if the pool is full.
func (p *Pool) Touch(key PageKey) bool {
	p.stats.Accesses++
	if el, ok := p.resident[key]; ok {
		p.stats.Hits++
		switch p.policy {
		case LRU:
			p.order.MoveToFront(el)
		case Clock:
			p.ref[key] = true
		}
		return false
	}
	p.stats.Faults++
	if p.clock != nil {
		p.clock.RandIOs(1)
	}
	if len(p.resident) >= p.capacity {
		p.evict()
	}
	p.insert(key)
	return true
}

// ReadThrough is the fault-plane-aware page access: it records an access
// to page n of space and, on a buffer fault, performs the actual disk read
// with bounded virtual-time retry for injected transient faults
// (fault.Retry). A hit reads the page uncharged — the page is memory
// resident, the disk is not touched. It returns the page data (the stored
// image, simio.Space.Read's, not a copy), whether the access faulted, and
// the (retry-exhausted or permanent) error if the device could not serve
// the read.
func (p *Pool) ReadThrough(space *simio.Space, n int, a simio.Access) ([]byte, bool, error) {
	key := PageKey{Space: space.Name(), Page: n}
	p.stats.Accesses++
	if el, ok := p.resident[key]; ok {
		p.stats.Hits++
		switch p.policy {
		case LRU:
			p.order.MoveToFront(el)
		case Clock:
			p.ref[key] = true
		}
		data, err := space.Read(n, simio.Uncharged)
		return data, false, err
	}
	p.stats.Faults++
	var data []byte
	err := fault.Retry(p.clock, 0, func() error {
		d, e := space.Read(n, a)
		data = d
		return e
	})
	if err != nil {
		return nil, true, err
	}
	if len(p.resident) >= p.capacity {
		p.evict()
	}
	p.insert(key)
	return data, true, nil
}

// Warm loads key without counting an access or charging a fault; used to
// pre-populate the pool to a target residency fraction.
func (p *Pool) Warm(key PageKey) {
	if _, ok := p.resident[key]; ok {
		return
	}
	if len(p.resident) >= p.capacity {
		p.evict()
	}
	p.insert(key)
}

func (p *Pool) insert(key PageKey) {
	el := p.order.PushFront(key)
	p.resident[key] = el
	p.slotOf[key] = len(p.slots)
	p.slots = append(p.slots, key)
	if p.policy == Clock {
		p.ref[key] = true
	}
}

func (p *Pool) evict() {
	var victim PageKey
	switch p.policy {
	case Random:
		victim = p.slots[p.rng.Intn(len(p.slots))]
	case LRU:
		victim = p.order.Back().Value.(PageKey)
	case Clock:
		for {
			if p.hand >= len(p.slots) {
				p.hand = 0
			}
			k := p.slots[p.hand]
			if !p.ref[k] {
				victim = k
				break // the swap-delete below refills this slot; keep the hand here
			}
			p.ref[k] = false
			p.hand++
		}
	default:
		panic(fmt.Sprintf("buffer: invalid policy %d", int(p.policy)))
	}
	el := p.resident[victim]
	p.order.Remove(el)
	delete(p.resident, victim)
	delete(p.ref, victim)

	// Swap-delete from the dense slot table.
	i := p.slotOf[victim]
	last := len(p.slots) - 1
	p.slots[i] = p.slots[last]
	p.slotOf[p.slots[i]] = i
	p.slots = p.slots[:last]
	delete(p.slotOf, victim)
}

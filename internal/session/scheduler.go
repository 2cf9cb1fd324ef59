// Package session implements the concurrent query-serving layer: an
// admission scheduler that bounds how many queries execute at once, a
// memory broker that partitions the engine's |M| pages into per-query
// grants, and a concurrency façade over the §5.2 lock table.
//
// The paper's cost model (§3, §4) prices every operator against the pages
// of main memory it may use. Serving many queries at once therefore means
// |M| must be *brokered*: each admitted query receives a grant, plans and
// executes against that grant, and returns it on completion. The scheduler
// bounds concurrency (slots) and per-class queue depth so that overload
// degrades into FIFO queueing and then explicit rejection (ErrOverloaded)
// instead of memory thrash. Admission is multiclass: each Class has its
// own FIFO queue, and a freed slot is granted under StrictPriority
// (interactive ahead of batch) or WeightedFair (slot grants proportional
// to class weights) — so short interactive work is never stuck behind a
// backlog of bulk scans.
package session

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrOverloaded is returned when a query cannot even be queued: all
// execution slots are busy and its class's wait queue is at its
// configured depth. Concrete rejections are *OverloadError values that
// wrap this sentinel and carry the shedding class and depth.
var ErrOverloaded = errors.New("session: overloaded: admission queue full")

// ErrClosed is returned when admitting against a closed scheduler.
var ErrClosed = errors.New("session: scheduler closed")

// ClassMetrics counts one class's scheduler activity. Queued durations
// are wall-clock observations for operators; they never touch the
// virtual clock.
type ClassMetrics struct {
	Admitted    uint64        // queries granted a slot
	Rejected    uint64        // queries turned away with ErrOverloaded
	Canceled    uint64        // queries whose context ended while queued
	Completed   uint64        // slots released
	QueuedTotal time.Duration // total wall time spent waiting for a slot
	QueuedMax   time.Duration // longest single wait
	QueuePeak   int           // high-water mark of this class's wait queue
	Queued      Histogram     // queued-time distribution (log₂-µs buckets)
}

// Metrics is a snapshot of scheduler activity, per class plus the
// cross-class peaks.
type Metrics struct {
	PerClass    [NumClasses]ClassMetrics
	QueuePeak   int // high-water mark of total queued waiters, all classes
	RunningPeak int // high-water mark of concurrently running queries
}

// Total folds the per-class counters into one aggregate (histograms
// merged, maxima taken across classes).
func (m Metrics) Total() ClassMetrics {
	var t ClassMetrics
	for _, c := range m.PerClass {
		t.Admitted += c.Admitted
		t.Rejected += c.Rejected
		t.Canceled += c.Canceled
		t.Completed += c.Completed
		t.QueuedTotal += c.QueuedTotal
		if c.QueuedMax > t.QueuedMax {
			t.QueuedMax = c.QueuedMax
		}
		if c.QueuePeak > t.QueuePeak {
			t.QueuePeak = c.QueuePeak
		}
		t.Queued.Merge(c.Queued)
	}
	return t
}

// Scheduler is a multiclass admission controller: bounded execution
// slots shared by all classes, one bounded FIFO queue per class, and a
// configurable policy for which class a freed slot goes to. It is safe
// for concurrent use.
type Scheduler struct {
	slots  int
	policy PickPolicy
	depth  [NumClasses]int
	weight [NumClasses]int

	mu      sync.Mutex
	closed  bool
	running int
	queues  [NumClasses][]*admitWaiter
	served  [NumClasses]uint64 // slot grants, drives the WeightedFair pick
	m       Metrics
}

type admitWaiter struct {
	ready   chan struct{}
	granted bool // set under Scheduler.mu before ready is closed
}

// NewScheduler returns a scheduler with the given concurrency slots,
// pick policy and per-class limits. slots < 1 is treated as 1; negative
// queue depths mean no queue (reject as soon as the slots are busy);
// weights < 1 are clamped to 1.
func NewScheduler(slots int, policy PickPolicy, limits [NumClasses]ClassLimits) *Scheduler {
	if slots < 1 {
		slots = 1
	}
	s := &Scheduler{slots: slots, policy: policy}
	for c := 0; c < int(NumClasses); c++ {
		d := limits[c].QueueDepth
		if d < 0 {
			d = 0
		}
		s.depth[c] = d
		w := limits[c].Weight
		if w < 1 {
			w = 1
		}
		s.weight[c] = w
	}
	return s
}

// NewFIFOScheduler returns a single-class scheduler: every class shares
// the Batch queue semantics of the pre-multiclass engine (same depth and
// weight for all classes, strict policy — which degenerates to plain
// FIFO when only one class is used).
func NewFIFOScheduler(slots, depth int) *Scheduler {
	var limits [NumClasses]ClassLimits
	for c := range limits {
		limits[c] = ClassLimits{QueueDepth: depth, Weight: 1}
	}
	return NewScheduler(slots, StrictPriority, limits)
}

// Slots returns the configured concurrency bound.
func (s *Scheduler) Slots() int { return s.slots }

// Policy returns the slot-grant pick policy.
func (s *Scheduler) Policy() PickPolicy { return s.policy }

// Admit blocks until a slot is free, the context is done, or the class's
// queue is full (rejecting with an *OverloadError wrapping
// ErrOverloaded). Waiters are FIFO within a class; across classes the
// pick policy decides who gets a freed slot. It returns the wall time
// spent queued. Every successful Admit must be paired with exactly one
// Done for the same class.
func (s *Scheduler) Admit(ctx context.Context, class Class) (time.Duration, error) {
	if !class.Valid() {
		class = Batch
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	cm := &s.m.PerClass[class]
	if err := ctx.Err(); err != nil {
		cm.Canceled++
		s.mu.Unlock()
		return 0, err
	}
	if s.running < s.slots && s.totalQueuedLocked() == 0 {
		s.grantLocked(class)
		s.mu.Unlock()
		return 0, nil
	}
	if len(s.queues[class]) >= s.depth[class] {
		cm.Rejected++
		s.mu.Unlock()
		return 0, &OverloadError{Class: class, Depth: s.depth[class]}
	}
	w := &admitWaiter{ready: make(chan struct{})}
	s.queues[class] = append(s.queues[class], w)
	if n := len(s.queues[class]); n > cm.QueuePeak {
		cm.QueuePeak = n
	}
	if n := s.totalQueuedLocked(); n > s.m.QueuePeak {
		s.m.QueuePeak = n
	}
	s.mu.Unlock()

	start := time.Now()
	select {
	case <-w.ready:
		queued := time.Since(start)
		s.mu.Lock()
		s.observeQueuedLocked(class, queued)
		s.mu.Unlock()
		return queued, nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// The slot was handed to us concurrently with cancellation:
			// keep it — the caller still gets a usable admission, and the
			// context error surfaces on the next cancellation point.
			queued := time.Since(start)
			s.observeQueuedLocked(class, queued)
			s.mu.Unlock()
			return queued, nil
		}
		for i, q := range s.queues[class] {
			if q == w {
				s.queues[class] = append(s.queues[class][:i], s.queues[class][i+1:]...)
				break
			}
		}
		cm.Canceled++
		s.mu.Unlock()
		return time.Since(start), ctx.Err()
	}
}

// observeQueuedLocked records a completed wait in the class's counters
// and histogram.
func (s *Scheduler) observeQueuedLocked(class Class, queued time.Duration) {
	cm := &s.m.PerClass[class]
	cm.QueuedTotal += queued
	if queued > cm.QueuedMax {
		cm.QueuedMax = queued
	}
	cm.Queued.Observe(queued)
}

// grantLocked consumes a slot for class and updates the grant counters.
func (s *Scheduler) grantLocked(class Class) {
	s.running++
	s.served[class]++
	s.m.PerClass[class].Admitted++
	if s.running > s.m.RunningPeak {
		s.m.RunningPeak = s.running
	}
}

// totalQueuedLocked sums waiters across all class queues.
func (s *Scheduler) totalQueuedLocked() int {
	n := 0
	for c := range s.queues {
		n += len(s.queues[c])
	}
	return n
}

// pickLocked chooses which non-empty class queue the next freed slot
// goes to, or -1 when every queue is empty. StrictPriority takes the
// highest-priority (lowest-numbered) non-empty class; WeightedFair takes
// the non-empty class with the smallest served/weight ratio, which makes
// slot grants converge to the configured weight proportions whenever the
// losing classes stay backlogged.
func (s *Scheduler) pickLocked() Class {
	switch s.policy {
	case WeightedFair:
		best := Class(-1)
		for c := 0; c < int(NumClasses); c++ {
			if len(s.queues[c]) == 0 {
				continue
			}
			if best < 0 {
				best = Class(c)
				continue
			}
			// served[c]/weight[c] < served[best]/weight[best], compared by
			// cross-multiplication to stay in integers. Ties keep the
			// higher-priority (lower-numbered) class.
			if s.served[c]*uint64(s.weight[best]) < s.served[best]*uint64(s.weight[c]) {
				best = Class(c)
			}
		}
		return best
	default: // StrictPriority
		for c := 0; c < int(NumClasses); c++ {
			if len(s.queues[c]) > 0 {
				return Class(c)
			}
		}
		return -1
	}
}

// Done releases a slot held by class and grants freed capacity per the
// pick policy.
func (s *Scheduler) Done(class Class) {
	if !class.Valid() {
		class = Batch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	s.m.PerClass[class].Completed++
	s.wakeLocked()
}

// wakeLocked grants slots to picked queue heads while capacity remains.
func (s *Scheduler) wakeLocked() {
	for s.running < s.slots {
		c := s.pickLocked()
		if c < 0 {
			return
		}
		w := s.queues[c][0]
		s.queues[c] = s.queues[c][1:]
		s.grantLocked(c)
		w.granted = true
		close(w.ready)
	}
}

// Close rejects all future admissions. Queued waiters are left to drain
// normally as running queries complete.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Metrics returns a snapshot of scheduler activity.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m
}

// Queued returns the number of queries waiting for a slot, all classes.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalQueuedLocked()
}

// QueuedClass returns the number of class-c queries waiting for a slot.
func (s *Scheduler) QueuedClass(c Class) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !c.Valid() {
		return 0
	}
	return len(s.queues[c])
}

package session

import (
	"context"
	"errors"
	"testing"
	"time"
)

func limits(depth, iw, bw int) [NumClasses]ClassLimits {
	var l [NumClasses]ClassLimits
	l[Interactive] = ClassLimits{QueueDepth: depth, Weight: iw}
	l[Batch] = ClassLimits{QueueDepth: depth, Weight: bw}
	return l
}

// TestSchedulerStrictPriorityPick saturates the slot with batch work,
// queues batch and interactive waiters, and asserts every freed slot
// goes to the interactive queue first — grant-time preemption.
func TestSchedulerStrictPriorityPick(t *testing.T) {
	s := NewScheduler(1, StrictPriority, limits(16, 1, 1))
	if _, err := s.Admit(context.Background(), Batch); err != nil {
		t.Fatal(err)
	}
	// Queue two batch waiters first, then one interactive.
	got := make(chan Class, 3)
	for i := 0; i < 2; i++ {
		go func() {
			if _, err := s.Admit(context.Background(), Batch); err != nil {
				t.Error(err)
				return
			}
			got <- Batch
		}()
		waitFor(t, func() bool { return s.QueuedClass(Batch) == i+1 })
	}
	go func() {
		if _, err := s.Admit(context.Background(), Interactive); err != nil {
			t.Error(err)
			return
		}
		got <- Interactive
	}()
	waitFor(t, func() bool { return s.QueuedClass(Interactive) == 1 })

	order := make([]Class, 0, 3)
	for i := 0; i < 3; i++ {
		s.Done(Batch) // class of the releaser doesn't affect the pick
		order = append(order, <-got)
	}
	want := []Class{Interactive, Batch, Batch}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
	m := s.Metrics()
	if m.PerClass[Interactive].Admitted != 1 || m.PerClass[Batch].Admitted != 3 {
		t.Fatalf("per-class admitted = %+v", m)
	}
	if m.PerClass[Interactive].Queued.Total() != 1 {
		t.Fatalf("interactive histogram count = %d, want 1", m.PerClass[Interactive].Queued.Total())
	}
}

// TestSchedulerWeightedFairShares keeps both classes backlogged through
// many grant cycles and asserts the grant split converges to the
// configured 3:1 weights within tolerance. Granted waiters hold their
// slot until the driver releases it, so exactly one grant happens per
// cycle and both queues stay non-empty at every pick.
func TestSchedulerWeightedFairShares(t *testing.T) {
	s := NewScheduler(1, WeightedFair, limits(8, 3, 1))
	if _, err := s.Admit(context.Background(), Batch); err != nil {
		t.Fatal(err)
	}
	got := make(chan Class, 1)
	enqueue := func(c Class) {
		go func() {
			if _, err := s.Admit(context.Background(), c); err != nil {
				t.Error(err)
				return
			}
			got <- c // hold the slot until the driver calls Done(c)
		}()
	}
	enqueue(Interactive)
	enqueue(Batch)
	waitFor(t, func() bool { return s.QueuedClass(Interactive) == 1 && s.QueuedClass(Batch) == 1 })

	const rounds = 200
	counts := make(map[Class]int)
	held := Batch // class of the slot currently in flight
	for i := 0; i < rounds; i++ {
		s.Done(held)
		held = <-got
		counts[held]++
		// Re-arm the drained class so both queues stay backlogged.
		enqueue(held)
		waitFor(t, func() bool {
			return s.QueuedClass(Interactive) >= 1 && s.QueuedClass(Batch) >= 1
		})
	}
	frac := float64(counts[Interactive]) / float64(rounds)
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("interactive share = %.3f (i=%d b=%d), want ~0.75",
			frac, counts[Interactive], counts[Batch])
	}
}

// TestSchedulerOverloadErrorClass asserts rejections carry the shedding
// class and depth while still matching ErrOverloaded.
func TestSchedulerOverloadErrorClass(t *testing.T) {
	var l [NumClasses]ClassLimits
	l[Interactive] = ClassLimits{QueueDepth: 0, Weight: 1}
	l[Batch] = ClassLimits{QueueDepth: 1, Weight: 1}
	s := NewScheduler(1, StrictPriority, l)
	if _, err := s.Admit(context.Background(), Batch); err != nil {
		t.Fatal(err)
	}
	_, err := s.Admit(context.Background(), Interactive)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("interactive rejection: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Class != Interactive || oe.Depth != 0 {
		t.Fatalf("interactive rejection detail = %+v", oe)
	}
	// Batch has one queue seat: first queues, second is rejected as batch.
	go func() {
		if _, err := s.Admit(context.Background(), Batch); err != nil {
			t.Error(err)
			return
		}
		s.Done(Batch)
	}()
	waitFor(t, func() bool { return s.QueuedClass(Batch) == 1 })
	_, err = s.Admit(context.Background(), Batch)
	if !errors.As(err, &oe) || oe.Class != Batch || oe.Depth != 1 {
		t.Fatalf("batch rejection = %v (detail %+v)", err, oe)
	}
	m := s.Metrics()
	if m.PerClass[Interactive].Rejected != 1 || m.PerClass[Batch].Rejected != 1 {
		t.Fatalf("per-class rejected = %+v", m)
	}
	s.Done(Batch)
}

// TestBrokerClassReservation asserts batch grants can never draw the
// interactive reservation, and that an interactive grant is available
// immediately even when batch holds everything it can.
func TestBrokerClassReservation(t *testing.T) {
	var reserved [NumClasses]int
	reserved[Interactive] = 40
	b := NewBroker(100, 2, reserved)
	if b.Reserved(Interactive) != 40 || b.Reserved(Batch) != 0 {
		t.Fatalf("reservations = %d/%d", b.Reserved(Interactive), b.Reserved(Batch))
	}
	// Shares: general 60 → batch (60+0)/2 = 30, interactive (60+40)/2 = 50.
	if b.Share(Batch) != 30 || b.Share(Interactive) != 50 {
		t.Fatalf("shares = %d/%d", b.Share(Batch), b.Share(Interactive))
	}
	// Batch asks for everything it may draw: 60 pages, not 100.
	g, err := b.Reserve(context.Background(), Batch, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g != 60 {
		t.Fatalf("batch max grant = %d, want 60 (general only)", g)
	}
	// The interactive reservation is untouched: a share-sized interactive
	// grant still fits without waiting.
	gi, err := b.Reserve(context.Background(), Interactive, 40)
	if err != nil {
		t.Fatal(err)
	}
	if gi != 40 {
		t.Fatalf("interactive grant = %d, want 40", gi)
	}
	if b.Granted() != 100 {
		t.Fatalf("granted = %d", b.Granted())
	}
	b.Release(Batch, g)
	b.Release(Interactive, gi)
	if b.Granted() != 0 {
		t.Fatalf("granted after release = %d", b.Granted())
	}
}

// TestBrokerStaticSharesAlwaysFit asserts the multiclass share sizing
// invariant: any admitted mix of ≤ slots static-share grants fits
// without a memory wait.
func TestBrokerStaticSharesAlwaysFit(t *testing.T) {
	var reserved [NumClasses]int
	reserved[Interactive] = 64
	reserved[Batch] = 16
	const slots = 4
	b := NewBroker(256, slots, reserved)
	for k := 0; k <= slots; k++ { // k interactive, slots-k batch
		var grants []int
		var classes []Class
		for i := 0; i < k; i++ {
			g, err := b.Reserve(context.Background(), Interactive, 0)
			if err != nil {
				t.Fatal(err)
			}
			if g != b.Share(Interactive) {
				t.Fatalf("interactive grant = %d, want share %d", g, b.Share(Interactive))
			}
			grants, classes = append(grants, g), append(classes, Interactive)
		}
		for i := 0; i < slots-k; i++ {
			g, err := b.Reserve(context.Background(), Batch, 0)
			if err != nil {
				t.Fatal(err)
			}
			if g != b.Share(Batch) {
				t.Fatalf("batch grant = %d, want share %d", g, b.Share(Batch))
			}
			grants, classes = append(grants, g), append(classes, Batch)
		}
		if b.Peak() > b.Total() {
			t.Fatalf("mix %d/%d over-granted: peak %d", k, slots-k, b.Peak())
		}
		for i, g := range grants {
			b.Release(classes[i], g)
		}
		if b.Granted() != 0 {
			t.Fatalf("mix %d leaked %d pages", k, b.Granted())
		}
	}
}

// TestHistogramQuantiles sanity-checks the log-scale histogram's
// bucketing and quantile bounds.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile = %v", h.Quantile(0.5))
	}
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond) // bucket [2,4)µs → upper edge 4µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * time.Microsecond) // bucket [512,1024)µs → 1024µs
	}
	if h.Total() != 100 {
		t.Fatalf("total = %d", h.Total())
	}
	if q := h.Quantile(0.50); q != 4*time.Microsecond {
		t.Fatalf("p50 = %v, want 4µs", q)
	}
	if q := h.Quantile(0.95); q != 1024*time.Microsecond {
		t.Fatalf("p95 = %v, want 1.024ms", q)
	}
	// Sub-microsecond and huge observations land in the end buckets.
	h.Observe(0)
	h.Observe(500 * time.Hour)
	if h.Total() != 102 {
		t.Fatalf("total = %d", h.Total())
	}
}

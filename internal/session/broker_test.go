package session

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestSessionBrokerStaticShareDeterministic(t *testing.T) {
	b := NewUnreservedBroker(1000, 8)
	if b.Share(Batch) != 125 {
		t.Fatalf("share = %d, want 125", b.Share(Batch))
	}
	// Every default grant is the same size regardless of load.
	var grants []int
	for i := 0; i < 8; i++ {
		g, err := b.Reserve(context.Background(), Batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, g)
	}
	for _, g := range grants {
		if g != 125 {
			t.Fatalf("grants = %v, want all 125", grants)
		}
	}
	if b.Granted() != 1000 {
		t.Fatalf("granted = %d", b.Granted())
	}
	for range grants {
		b.Release(Batch, 125)
	}
	if b.Granted() != 0 {
		t.Fatalf("granted after release = %d", b.Granted())
	}
}

func TestSessionBrokerExplicitWantAndFIFO(t *testing.T) {
	b := NewUnreservedBroker(100, 4)
	g, err := b.Reserve(context.Background(), Batch, 60)
	if err != nil {
		t.Fatal(err)
	}
	if g != 60 {
		t.Fatalf("explicit grant = %d, want 60", g)
	}
	// A head waiter needing 60 blocks a later small request even though 40
	// pages are free — strict FIFO, no starvation.
	first := make(chan int, 1)
	go func() {
		g, err := b.Reserve(context.Background(), Batch, 60)
		if err != nil {
			t.Error(err)
		}
		first <- g
	}()
	waitForQueue(t, b, 1)
	second := make(chan int, 1)
	go func() {
		g, err := b.Reserve(context.Background(), Batch, 10)
		if err != nil {
			t.Error(err)
		}
		second <- g
	}()
	waitForQueue(t, b, 2)
	select {
	case g := <-second:
		t.Fatalf("small request jumped the queue with grant %d", g)
	default:
	}
	b.Release(Batch, 60)
	if g := <-first; g != 60 {
		t.Fatalf("head grant = %d", g)
	}
	if g := <-second; g != 10 {
		t.Fatalf("second grant = %d", g)
	}
	b.Release(Batch, 60)
	b.Release(Batch, 10)
}

func TestSessionBrokerCancelWhileQueued(t *testing.T) {
	b := NewUnreservedBroker(10, 1)
	g, err := b.Reserve(context.Background(), Batch, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Reserve(ctx, Batch, 5)
		done <- err
	}()
	waitForQueue(t, b, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("expected Canceled, got %v", err)
	}
	b.Release(Batch, g)
	if b.Granted() != 0 {
		t.Fatalf("granted = %d after full release", b.Granted())
	}
}

// TestBrokerNeverOverGrants hammers the broker from many goroutines with
// random explicit and default-share requests and asserts the high-water
// mark of simultaneously granted pages never exceeds the budget.
func TestSessionBrokerNeverOverGrants(t *testing.T) {
	b := NewUnreservedBroker(64, 6)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				want := 0
				if rng.Intn(2) == 0 {
					want = 2 + rng.Intn(40)
				}
				g, err := b.Reserve(context.Background(), Batch, want)
				if err != nil {
					t.Error(err)
					return
				}
				b.Release(Batch, g)
			}
		}()
	}
	wg.Wait()
	if b.Peak() > b.Total() {
		t.Fatalf("over-granted: peak %d > total %d", b.Peak(), b.Total())
	}
	if b.Granted() != 0 {
		t.Fatalf("leaked %d pages", b.Granted())
	}
}

func waitForQueue(t *testing.T, b *Broker, n int) {
	t.Helper()
	waitFor(t, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.queues[Batch]) == n
	})
}

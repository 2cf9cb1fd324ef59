package session

import (
	"context"
	"sync/atomic"
)

// Grant is a live, revocable memory grant. Where Reserve hands back a
// plain page count fixed for the query's lifetime, a Grant can shrink
// mid-query: Revoke takes pages back (never below MinGrant) and returns
// them to the broker's pools immediately, waking eligible waiters. The
// running query observes the shrinkage through Pages — the hook the
// hybrid hash join's live-|M| consultation (join.Spec.LiveM) reads, so a
// revocation mid-build triggers the GRACE spill fallback instead of
// overcommitting memory.
//
// Pages is safe to call from operator hot loops (one atomic load);
// Revoke and Release are safe for concurrent use with each other and
// with Pages.
type Grant struct {
	b     *Broker
	class Class
	pages atomic.Int64 // current size; 0 once released
}

// ReserveGrant is Reserve returning a revocable Grant instead of a bare
// page count. The same admission rules apply: want == 0 requests the
// class's share, waiters queue FIFO within the class.
func (b *Broker) ReserveGrant(ctx context.Context, class Class, want int) (*Grant, error) {
	if !class.Valid() {
		class = Batch
	}
	n, err := b.Reserve(ctx, class, want)
	if err != nil {
		return nil, err
	}
	g := &Grant{b: b, class: class}
	g.pages.Store(int64(n))
	return g, nil
}

// Pages returns the grant's current size. Operators sizing buffers off a
// live grant must re-read it; the value can shrink between calls.
func (g *Grant) Pages() int { return int(g.pages.Load()) }

// Class returns the class the grant was drawn for.
func (g *Grant) Class() Class { return g.class }

// Revoke takes up to n pages back from the grant and returns them to the
// broker, reporting how many were actually reclaimed. The grant is never
// shrunk below MinGrant — a query holding a grant must always be able to
// finish — so the reclaimed count can be less than n, including zero.
func (g *Grant) Revoke(n int) int {
	if n <= 0 {
		return 0
	}
	for {
		cur := g.pages.Load()
		if cur <= MinGrant {
			return 0
		}
		take := int64(n)
		if cur-take < MinGrant {
			take = cur - MinGrant
		}
		if g.pages.CompareAndSwap(cur, cur-take) {
			g.b.Release(g.class, int(take))
			return int(take)
		}
	}
}

// Release returns the grant's remaining pages to the broker. Idempotent;
// Pages reports 0 afterwards.
func (g *Grant) Release() {
	if n := g.pages.Swap(0); n > 0 {
		g.b.Release(g.class, int(n))
	}
}

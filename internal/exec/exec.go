// Package exec provides the shared worker-pool execution layer used by the
// parallel operators: a bounded pool, fan-out/fan-in over an index space,
// context cancellation, and first-error propagation.
//
// The pool is deliberately small. The operators hand it embarrassingly
// parallel per-partition work — the GRACE and hybrid hash buckets of §3.6
// and §3.7 are independent by construction — and every piece of shared
// state (the virtual clock, the simulated disk, result counters) is either
// already safe for concurrent use or merged by the caller after the
// fan-in. A pool with one worker executes inline, in index order, with no
// goroutines at all, which is what makes Parallelism=1 runs behave exactly
// like the original serial engine.
//
// Its fan-outs are the operators' only concurrency: every call waits for
// the tasks it started, so an operator is fork-join and holds no goroutine
// once the call that started its workers returns — not while a stream it
// handed out is open, nor after. No operator package has a go statement
// of its own (docs/ARCHITECTURE.md, "Operators are fork-join").
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a Parallelism knob to a worker count: n > 0 means n
// workers, 0 means serial (one worker), and n < 0 means one worker per
// available CPU (GOMAXPROCS).
func Workers(n int) int {
	switch {
	case n > 0:
		return n
	case n < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// Pool is a bounded fan-out/fan-in executor. The zero Pool (and a nil
// Pool) is serial; use NewPool to set a width. Pools hold no state between
// calls and may be reused and shared.
type Pool struct {
	workers int
}

// NewPool returns a pool running at most Workers(n) tasks concurrently.
func NewPool(n int) *Pool { return &Pool{workers: Workers(n)} }

// Workers returns the pool's concurrency bound, always at least 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// ForEach runs fn(ctx, i) for every i in [0, n), using up to Workers()
// goroutines. The first error cancels the context passed to tasks that
// have not started yet, and ForEach returns that error after every started
// task has finished (fan-in: no task outlives the call). With one worker,
// or n <= 1, the tasks run inline in index order — no goroutines — so a
// serial pool reproduces the pre-pool code path exactly.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Gather runs heterogeneous tasks concurrently under the pool's bound and
// waits for all of them, returning the first error. The operators use it
// to overlap independent phases, e.g. partitioning R and S at the same
// time.
func (p *Pool) Gather(ctx context.Context, tasks ...func(ctx context.Context) error) error {
	return p.ForEach(ctx, len(tasks), func(ctx context.Context, i int) error {
		return tasks[i](ctx)
	})
}

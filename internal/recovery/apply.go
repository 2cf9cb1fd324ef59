// Incremental apply: the replica-side half of log shipping. An Applier
// consumes a primary's committed log stream batch by batch and folds it
// into a store with the same page-partitioned parallel redo machinery as
// Recover (replayByPage) — so the applied counters are bit-identical at
// every width.
package recovery

import (
	"fmt"
	"time"

	"mmdb/internal/cost"
	"mmdb/internal/exec"
	"mmdb/internal/store"
	"mmdb/internal/wal"
)

// Applier folds an LSN-ordered record stream into a store incrementally.
//
// The apply frontier is strict: an Update is applied only when every
// earlier Update has been applied AND its own transaction's outcome
// (Commit, or rollback End) has been received. The second condition makes
// the first achievable — a committed transaction's updates may precede
// its commit record by many LSNs, so the frontier stalls at the first
// Update whose transaction is still unresolved in the received stream and
// buffers everything behind it. Applying strictly in LSN order is what
// makes the replica byte-identical to the primary's committed prefix:
// interleaved transactions touching the same record are replayed in
// exactly the order the primary serialized them, and an aborting
// transaction's compensating updates cancel its forward updates the same
// way they did on the primary.
//
// Applier is not safe for concurrent use; drive it from one goroutine
// (in the simulated world, the event loop).
type Applier struct {
	st    *store.Store
	pool  *exec.Pool
	clock *cost.Clock

	// resolved holds transactions whose outcome record has been received.
	resolved map[wal.TxnID]bool
	// pending buffers Update records past the frontier, LSN-ascending.
	pending []wal.Record

	received wal.LSN // highest LSN ingested
	applied  wal.LSN // every Update at or below it is applied
	redone   int
}

// NewApplier starts an incremental applier over st (normally a zeroed
// store with the primary's geometry, or a loaded checkpoint image).
// parallelism is the exec pool width for page-partitioned apply
// (0 = serial, <0 = GOMAXPROCS); params the cost model (zero value =
// cost.DefaultParams).
func NewApplier(st *store.Store, parallelism int, params cost.Params) *Applier {
	if params == (cost.Params{}) {
		params = cost.DefaultParams()
	}
	return &Applier{
		st:       st,
		pool:     exec.NewPool(parallelism),
		clock:    cost.NewClock(params),
		resolved: make(map[wal.TxnID]bool),
	}
}

// Ingest consumes the next batch of the stream. recs must be
// LSN-ascending; records at or below the received horizon are tolerated
// and skipped (stream redelivery), records out of order within the batch
// are an error. After buffering, the frontier advances as far as
// resolution allows and the newly applicable prefix is applied.
func (a *Applier) Ingest(recs []wal.Record) error {
	floor := a.received
	for _, r := range recs {
		if r.LSN <= floor {
			continue // redelivered
		}
		if r.LSN <= a.received {
			return fmt.Errorf("apply: batch not LSN-ordered at LSN %d", r.LSN)
		}
		a.received = r.LSN
		switch r.Type {
		case wal.Update:
			a.pending = append(a.pending, r)
		case wal.Commit, wal.End:
			a.resolved[r.Txn] = true
		}
	}
	return a.advance()
}

// advance applies the contiguous prefix of pending updates whose
// transactions are resolved, in strict LSN order, page-partitioned over
// the pool exactly like Recover's replay step.
func (a *Applier) advance() error {
	cut := 0
	for cut < len(a.pending) && a.resolved[a.pending[cut].Txn] {
		cut++
	}
	if cut > 0 {
		_, _, err := replayByPage(a.pool, a.st, a.clock, a.pending[:cut], func(recs []wal.Record) (int, int, error) {
			for _, r := range recs {
				if err := a.st.Apply(r.Rec, r.New); err != nil {
					return 0, 0, fmt.Errorf("apply LSN %d: %w", r.LSN, err)
				}
			}
			return len(recs), 0, nil
		})
		if err != nil {
			return err
		}
		a.redone += cut
		a.pending = append(a.pending[:0], a.pending[cut:]...)
	}
	// The frontier: everything up to the next blocked update is settled;
	// with nothing blocked, the whole received stream is.
	if len(a.pending) > 0 {
		a.applied = a.pending[0].LSN - 1
	} else {
		a.applied = a.received
	}
	return nil
}

// Store returns the store being built.
func (a *Applier) Store() *store.Store { return a.st }

// AppliedLSN returns the apply frontier: the largest n such that every
// Update with LSN <= n is applied. The store equals the primary's
// committed prefix at n.
func (a *Applier) AppliedLSN() wal.LSN { return a.applied }

// ReceivedLSN returns the highest LSN ingested from the stream.
func (a *Applier) ReceivedLSN() wal.LSN { return a.received }

// Buffered returns how many updates are held behind the frontier waiting
// for their transactions to resolve.
func (a *Applier) Buffered() int { return len(a.pending) }

// Redone returns the total updates applied.
func (a *Applier) Redone() int { return a.redone }

// Counters returns the applier's accumulated virtual-cost counters.
func (a *Applier) Counters() cost.Counters { return a.clock.Counters() }

// Virtual returns the applier's accumulated virtual time.
func (a *Applier) Virtual() time.Duration { return a.clock.Now() }

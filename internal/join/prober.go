package join

import (
	"mmdb/internal/hashjoin"
	"mmdb/internal/tuple"
)

// prober accumulates a probe loop's tuples into a batch and sweeps them
// with KernelTable.ProbeBatch, which groups probes by destination
// sub-table and warms slot, entry and tuple lines ahead of the compares.
//
// Batching is invisible to the plan: ProbeBatch charges the same
// comparison total as a tuple-at-a-time loop and reports matches in
// ascending probe order with per-probe matches in insertion order, so a
// serial join's emission sequence does not depend on the batch size.
// Batching only defers when within the scan the matches surface, which is
// why callers that can release or spill the table mid-scan must flush
// first.
type prober struct {
	table *hashjoin.KernelTable
	keyOf func(tuple.Tuple) []byte
	emit  func(probe, match tuple.Tuple)
	batch []hashjoin.Keyed
}

// newProber returns a prober over table. A nil table (hybrid's resident
// partition already spilled) yields a prober that must never be added to.
func newProber(table *hashjoin.KernelTable, keyOf func(tuple.Tuple) []byte, emit func(probe, match tuple.Tuple)) *prober {
	p := &prober{table: table, keyOf: keyOf, emit: emit}
	if table != nil {
		p.batch = make([]hashjoin.Keyed, 0, table.BatchSize())
	}
	return p
}

// add queues one probe tuple, sweeping the batch when it fills. Scan
// callbacks hand out transient views, so the tuple is cloned.
func (p *prober) add(h uint64, t tuple.Tuple) {
	p.batch = append(p.batch, hashjoin.Keyed{Hash: h, Tuple: t.Clone()})
	if len(p.batch) == cap(p.batch) {
		p.flush()
	}
}

// flush drains pending probes. Callers must flush after the probe scan
// completes, and before the table is released or spilled mid-scan.
func (p *prober) flush() {
	if len(p.batch) == 0 {
		return
	}
	p.table.ProbeBatch(p.batch, p.keyOf, func(i int, m tuple.Tuple) {
		p.emit(p.batch[i].Tuple, m)
	})
	p.batch = p.batch[:0]
}

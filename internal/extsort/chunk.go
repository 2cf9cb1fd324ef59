package extsort

import (
	"fmt"

	"mmdb/internal/heap"
	"mmdb/internal/simio"
)

// chunk is what one formation worker hands back: the selection tree itself
// when the chunk's page range fit it, or else the chunk's run files on the
// input's disk; plus the chunk's stats.
type chunk struct {
	q     *kqueue
	runs  []*heap.File
	stats Stats
}

// form runs replacement selection over pages [start, end) of f with slots
// queue slots, then merge passes of up to fanout runs (0 means unlimited)
// until at most fanout runs remain. Everything it does charges f's clock.
func (c *chunk) form(f *heap.File, start, end, col, slots, fanout int, prefix string, input simio.Access) error {
	runs, q, err := replacementSelect(f, start, end, col, slots, prefix, input)
	if err != nil {
		return err
	}
	if q != nil {
		c.q = q
		c.stats = Stats{Runs: 1, InMemory: true}
		return nil
	}
	c.stats = Stats{Runs: len(runs)}
	for fanout > 1 && len(runs) > fanout {
		runs, err = mergePass(runs, col, fanout, fmt.Sprintf("%s.m%d", prefix, c.stats.MergePasses))
		if err != nil {
			return err
		}
		c.stats.MergePasses++
	}
	c.stats.FinalRuns = len(runs)
	c.runs = runs
	return nil
}

// stream serves the formed chunk: an in-memory chunk pops its selection
// tree as the consumer pulls, an external one merges its runs. The stream
// owns the chunk's run files, also when it fails to start.
func (c *chunk) stream(col int) (Stream, error) {
	if c.q != nil {
		return &memStream{q: c.q}, nil
	}
	runs := c.runs
	c.runs = nil
	ms, err := mergeRuns(runs, col)
	if err != nil {
		return nil, err
	}
	return ms, nil
}

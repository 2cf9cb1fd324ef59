package extsort

import (
	"fmt"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
)

// chunk is what one formation worker hands back: the selection tree itself
// when the chunk's page range fit it, or else the chunk's run files on the
// worker's disk view; plus the chunk's stats and the worker clock whose
// counters fold into the base clock at the fan-in.
type chunk struct {
	q     *kqueue
	runs  []*heap.File
	stats Stats
	clock *cost.Clock
}

// form runs replacement selection over pages [start, end) of f with slots
// queue slots on a private clock, then merge passes of up to fanout runs
// (0 means unlimited) until at most fanout runs remain.
func (c *chunk) form(f *heap.File, start, end, col, slots, fanout int, prefix string, input simio.Access) error {
	disk := f.Disk()
	c.clock = cost.NewClock(disk.Clock().Params())
	wf, err := f.OnDisk(disk.View(c.clock))
	if err != nil {
		return err
	}
	runs, q, err := replacementSelect(wf, start, end, col, slots, prefix, input)
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

// stream serves the formed chunk on disk, charging the disk's (the base)
// clock from here on: an in-memory chunk pops its selection tree as the
// consumer pulls, an external one merges its runs re-homed onto disk. The
// stream owns the chunk's run files, also when it fails to start.
func (c *chunk) stream(disk *simio.Disk, col int) (Stream, error) {
	if c.q != nil {
		c.q.clock = disk.Clock()
		return &memStream{q: c.q}, nil
	}
	runs := c.runs
	c.runs = nil
	for k, rf := range runs {
		h, err := rf.OnDisk(disk)
		if err != nil {
			dropAll(runs)
			return nil, err
		}
		runs[k] = h
	}
	ms, err := mergeRuns(runs, col)
	if err != nil {
		return nil, err
	}
	return ms, nil
}

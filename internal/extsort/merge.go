package extsort

import (
	"fmt"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/page"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// memStream serves an in-memory chunk: it pops the chunk's selection tree
// as the consumer pulls, charging each pop's sift then.
type memStream struct {
	q *kqueue
}

func (s *memStream) Next() (tuple.Tuple, bool) {
	if s.q == nil || s.q.Len() == 0 {
		return nil, false
	}
	t := s.q.Pop().tup
	s.q.charge()
	return t, true
}

func (s *memStream) Err() error { return nil }

// Close releases the queue without popping the rest: a stream's own
// charges are consumption-driven.
func (s *memStream) Close() error {
	s.q = nil
	return nil
}

// runCursor reads one run a page at a time (one buffer page per run, as in
// §3.4 step 2). Page reads are charged as random IO. Served tuples are
// views into the run's stored page (heap.File.ReadPage), which stays valid
// after the cursor advances: a run is flushed before it is merged and
// never written after, and dropping it only unlinks its pages. The run
// file is dropped as soon as the cursor exhausts it, or on Close.
type runCursor struct {
	file *heap.File
	page int
	slot int
	cur  page.TuplePage
	n    int // tuples in cur
	done bool
	err  error
}

func (c *runCursor) Next() (tuple.Tuple, bool) {
	for {
		if c.err != nil || c.done {
			return nil, false
		}
		if c.slot < c.n {
			t := c.cur.At(c.slot)
			c.slot++
			return t, true
		}
		if c.page >= c.file.NumPages() {
			c.done = true
			c.file.Drop()
			return nil, false
		}
		p, err := c.file.ReadPage(c.page, simio.Rand)
		if err != nil {
			c.err = err
			return nil, false
		}
		c.cur, c.n = p, p.Count()
		c.page++
		c.slot = 0
	}
}

func (c *runCursor) Err() error { return c.err }

// Close drops the run without reading the rest of it.
func (c *runCursor) Close() error {
	c.done = true
	c.file.Drop()
	return c.err
}

// mergeStream is the n-way merge of §3.4 driven by a counting selection
// tree over child streams: a chunk's runs, a merge pass's group, or the
// root's one stream per chunk. Comparisons and sifts charge the clock it
// was built with, once when the queue is primed and once per Next. Ties
// break toward the lower child index, which makes the output order of
// equal keys deterministic.
type mergeStream struct {
	col      int
	schema   *tuple.Schema
	children []Stream
	q        *kqueue
	err      error
	closed   bool
}

// mergeRuns merges run files, reading each through its own cursor.
func mergeRuns(runs []*heap.File, col int) (*mergeStream, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("extsort: no runs to merge")
	}
	cursors := make([]Stream, len(runs))
	for i, rf := range runs {
		cursors[i] = &runCursor{file: rf}
	}
	return newMergeStream(cursors, runs[0].Schema(), col, runs[0].Disk().Clock())
}

// newMergeStream primes the selection tree with each child's first tuple.
// It owns the children: on error it closes them all.
func newMergeStream(children []Stream, schema *tuple.Schema, col int, clock *cost.Clock) (*mergeStream, error) {
	m := &mergeStream{col: col, schema: schema, children: children, q: newKQueue(clock, kindKey, len(children))}
	defer m.q.charge()
	for i, c := range children {
		if t, ok := c.Next(); ok {
			m.q.Push(item{run: i, key: schema.KeyBytes(t, col), tup: t})
		} else if err := c.Err(); err != nil {
			m.err = err
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

func (m *mergeStream) Next() (tuple.Tuple, bool) {
	if m.closed || m.err != nil || m.q.Len() == 0 {
		return nil, false
	}
	it := m.q.Pop()
	c := m.children[it.run]
	if t, ok := c.Next(); ok {
		m.q.Push(item{run: it.run, key: m.schema.KeyBytes(t, m.col), tup: t})
	} else if err := c.Err(); err != nil {
		m.err = err
	}
	m.q.charge()
	return it.tup, true
}

func (m *mergeStream) Err() error { return m.err }

// Close closes every child. Run cursors drop their runs unread, so a
// merge over runs charges only what was consumed; the root's children are
// wrapped to finish themselves first (drainOnClose).
func (m *mergeStream) Close() error {
	if m.closed {
		return m.err
	}
	m.closed = true
	for _, c := range m.children {
		if err := c.Close(); err != nil && m.err == nil {
			m.err = err
		}
	}
	return m.err
}

// drainOnClose is a root child pulled inline: Close finishes it first,
// charging whatever the consumer did not get to.
type drainOnClose struct{ Stream }

func (d drainOnClose) Close() error {
	for {
		if _, ok := d.Next(); !ok {
			break
		}
	}
	if err := d.Err(); err != nil {
		d.Stream.Close()
		return err
	}
	return d.Stream.Close()
}

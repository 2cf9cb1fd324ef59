package extsort

import (
	"fmt"
	"sync"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/page"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// pumpBuffer is the per-interior-node channel depth of the eager merge
// tree, in tuples. Deep enough to decouple the root from chunk-stream
// latency, shallow enough to keep read-ahead (and thus retained pages)
// small.
const pumpBuffer = 128

// memStream drains an in-memory priority queue, charging the heap pops as
// the consumer pulls — the classic (Chunks=1) in-memory sort.
type memStream struct {
	q *kqueue
}

func (s *memStream) Next() (tuple.Tuple, bool) {
	if s.q == nil || s.q.Len() == 0 {
		return nil, false
	}
	it := s.q.Pop()
	return it.tup, true
}

func (s *memStream) Err() error { return nil }

// Close releases the queue. Like the classic external stream, no charges
// are made for unconsumed tuples: the serial plan's accounting is
// consumption-driven.
func (s *memStream) Close() error {
	s.q = nil
	return nil
}

// sliceStream serves an already-sorted in-memory chunk. The sort charges
// happened on the formation worker's clock; serving is free, like reading
// the ordered slice the classic memStream would have produced.
type sliceStream struct {
	items []tuple.Tuple
	pos   int
}

func (s *sliceStream) Next() (tuple.Tuple, bool) {
	if s.pos >= len(s.items) {
		return nil, false
	}
	t := s.items[s.pos]
	s.pos++
	return t, true
}

func (s *sliceStream) Err() error { return nil }

func (s *sliceStream) Close() error {
	s.items = nil
	return nil
}

// runCursor reads one run a page at a time (one buffer page per run, as in
// §3.4 step 2). Page reads are charged as random IO. Served tuples are
// views into the run's stored page (heap.File.ReadPage), which stays valid
// after the cursor advances: a run is never written after its flush, and
// dropping it only unlinks its pages. Only the file's live append buffer
// (never hit in practice — runs are flushed before merging) needs a
// defensive clone. The run file is dropped as soon as the cursor exhausts
// it.
type runCursor struct {
	file *heap.File
	page int
	slot int
	cur  page.TuplePage
	n    int  // tuples in cur
	live bool // cur aliases the append buffer; clone before serving
	done bool
	err  error
}

func (c *runCursor) next() (tuple.Tuple, bool) {
	for {
		if c.err != nil || c.done {
			return nil, false
		}
		if c.slot < c.n {
			t := c.cur.Tuple(c.slot)
			c.slot++
			if c.live {
				t = t.Clone()
			}
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
		c.cur = p
		c.n = p.Count()
		c.live = c.page == c.file.NumPages()-1 && c.file.Buffered() > 0
		c.page++
		c.slot = 0
	}
}

// mergeStream is the flat n-way merge over run files driven by a counting
// selection tree. It is both the classic (Chunks=1) final merge and the
// per-chunk leaf merge of the chunked tree.
type mergeStream struct {
	col     int
	schema  *tuple.Schema
	cursors []*runCursor
	q       *kqueue
	err     error
	closed  bool
}

func mergeRuns(runs []*heap.File, col int) (*mergeStream, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("extsort: no runs to merge")
	}
	clock := runs[0].Disk().Clock()
	schema := runs[0].Schema()
	ms := &mergeStream{col: col, schema: schema, q: newKQueue(clock, kindKey, len(runs))}
	for i, rf := range runs {
		c := &runCursor{file: rf}
		ms.cursors = append(ms.cursors, c)
		if t, ok := c.next(); ok {
			ms.q.Push(item{run: i, key: schema.KeyBytes(t, col), tup: t})
		} else if c.err != nil {
			return nil, c.err
		}
	}
	return ms, nil
}

func (m *mergeStream) Next() (tuple.Tuple, bool) {
	if m.closed || m.err != nil || m.q.Len() == 0 {
		return nil, false
	}
	it := m.q.Pop()
	c := m.cursors[it.run]
	if t, ok := c.next(); ok {
		m.q.Push(item{run: it.run, key: m.schema.KeyBytes(t, m.col), tup: t})
	} else if c.err != nil {
		m.err = c.err
	}
	return it.tup, true
}

func (m *mergeStream) Err() error { return m.err }

// Close drops the remaining run files without reading them: the classic
// plan's merge IO is consumption-driven, so abandoning the stream early
// keeps the serial engine's original accounting.
func (m *mergeStream) Close() error {
	if m.closed {
		return m.err
	}
	m.closed = true
	for _, c := range m.cursors {
		c.file.Drop()
	}
	return m.err
}

// pumpBatch is how many tuples a batched pump moves per channel operation.
const pumpBatch = 32

// batchPumpStream runs an interior merge node eagerly: a goroutine pulls
// the inner stream and sends through a bounded channel, so leaf merges make
// progress while the root is busy elsewhere. Tuples cross the channel in
// pumpBatch-sized slices, amortizing the per-tuple channel synchronization
// that would dominate a wide merge root's interior nodes. On Close (or when
// the inner stream is exhausted) the pump finishes reading the inner stream
// before closing it, keeping charges independent of where the consumer
// stopped and of scheduling.
type batchPumpStream struct {
	ch   chan []tuple.Tuple
	cur  []tuple.Tuple
	pos  int
	stop chan struct{}
	done chan struct{}
	once sync.Once
	err  error
}

func newBatchPumpStream(inner Stream, buf int) *batchPumpStream {
	depth := buf / pumpBatch
	if depth < 1 {
		depth = 1
	}
	p := &batchPumpStream{
		ch:   make(chan []tuple.Tuple, depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		batch := make([]tuple.Tuple, 0, pumpBatch)
		stopped := false
		send := func() bool {
			select {
			case p.ch <- batch:
				batch = make([]tuple.Tuple, 0, pumpBatch)
				return true
			case <-p.stop:
				return false
			}
		}
		for !stopped {
			t, ok := inner.Next()
			if !ok {
				break
			}
			batch = append(batch, t)
			if len(batch) == pumpBatch {
				stopped = !send()
			}
		}
		if stopped {
			// Consumer abandoned the stream: finish the inner reads so the
			// charged counters stay schedule-independent.
			for {
				if _, ok := inner.Next(); !ok {
					break
				}
			}
		} else if len(batch) > 0 {
			send()
		}
		p.err = inner.Err()
		inner.Close()
		close(p.done)
		close(p.ch)
	}()
	return p
}

func (p *batchPumpStream) Next() (tuple.Tuple, bool) {
	if p.pos < len(p.cur) {
		t := p.cur[p.pos]
		p.pos++
		return t, true
	}
	b, ok := <-p.ch
	if !ok {
		return nil, false
	}
	p.cur, p.pos = b, 1
	return b[0], true
}

// Err reports the inner stream's error once the pump has finished; while
// the pump is still running there is no error to report yet.
func (p *batchPumpStream) Err() error {
	select {
	case <-p.done:
		return p.err
	default:
		return nil
	}
}

func (p *batchPumpStream) Close() error {
	p.once.Do(func() { close(p.stop) })
	<-p.done
	return p.err
}

// treeStream is the root of the chunked merge tree: a selection tree over
// one stream per chunk, charging its comparisons and sifts on the base
// clock. Ties between chunks break toward the lower chunk index, which
// also makes the output order of equal keys deterministic.
type treeStream struct {
	col      int
	schema   *tuple.Schema
	children []Stream
	q        *kqueue
	err      error
	closed   bool
}

// newTreeStream builds the root selection tree. The charged structure is
// always the flat fan-in over all chunk streams (changing it would change
// plan counters); the root's nodes are 16-byte prefix records — a 64-chunk
// root is one KiB of heap, cache-resident even at very high SortChunks —
// and the interior pumps feeding it are batched (see newBatchPumpStream),
// which is what keeps a wide root from becoming a per-tuple channel
// bottleneck.
func newTreeStream(children []Stream, schema *tuple.Schema, col int, clock *cost.Clock) (*treeStream, error) {
	t := &treeStream{
		col:      col,
		schema:   schema,
		children: children,
		q:        newKQueue(clock, kindKey, len(children)),
	}
	for i, c := range children {
		tup, ok := c.Next()
		if !ok {
			if err := c.Err(); err != nil {
				return nil, err
			}
			continue
		}
		t.q.Push(item{run: i, key: schema.KeyBytes(tup, col), tup: tup})
	}
	return t, nil
}

func (t *treeStream) Next() (tuple.Tuple, bool) {
	if t.closed || t.err != nil || t.q.Len() == 0 {
		return nil, false
	}
	it := t.q.Pop()
	c := t.children[it.run]
	if tup, ok := c.Next(); ok {
		t.q.Push(item{run: it.run, key: t.schema.KeyBytes(tup, t.col), tup: tup})
	} else if err := c.Err(); err != nil {
		t.err = err
	}
	return it.tup, true
}

func (t *treeStream) Err() error { return t.err }

// Close finishes every chunk stream — reading whatever run pages the
// consumer did not get to, charging them — and releases the run files.
// This is what makes a chunked sort's counters a function of the plan
// alone: however far the consumer pulled, and whatever the pumps had
// read ahead, the total charged IO is the full merge.
func (t *treeStream) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	for _, c := range t.children {
		if err := drainClose(c); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// drainClose pulls s to exhaustion, then closes it.
func drainClose(s Stream) error {
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if err := s.Err(); err != nil {
		s.Close()
		return err
	}
	return s.Close()
}

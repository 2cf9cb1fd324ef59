package mmdb

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"mmdb/internal/catalog"
	"mmdb/internal/cost"
	"mmdb/internal/expr"
	"mmdb/internal/heap"
	"mmdb/internal/page"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// selectivity predicts the fraction of rel's rows p keeps, using column
// histograms where BuildHistogram has run and System R's defaults
// elsewhere (§4's [SELI79] statistics). An "impossible" estimate still
// costs a scan, so it is floored above zero.
func selectivity(rel *catalog.Relation, p expr.Predicate) float64 {
	sel := expr.Selectivity(p, func(c *expr.Comparison) float64 {
		if c.Value.Kind == Int64 {
			if h, ok := rel.Histogram(c.Col); ok {
				return h.Selectivity(c.Op, c.Value.I)
			}
		}
		return expr.DefaultLeafSelectivity(c)
	})
	if sel <= 0 {
		sel = 1e-6
	}
	return sel
}

// BuildHistogram collects an equi-width histogram on an int64 column for
// selectivity estimation.
func (db *Database) BuildHistogram(relation, column string, buckets int) error {
	rel, err := db.cat.Get(relation)
	if err != nil {
		return err
	}
	col := rel.Schema().FieldIndex(column)
	if col < 0 {
		return fmt.Errorf("mmdb: relation %q has no column %q", relation, column)
	}
	_, err = db.cat.BuildHistogram(relation, col, buckets)
	return err
}

// filter is a predicate with its evaluation charge: one comparison per
// leaf (min 1), counted once. Every charged predicate evaluation in the
// engine (a SQL WHERE) goes through pass.
type filter struct {
	pred   expr.Predicate
	leaves int64
}

func newFilter(p expr.Predicate) filter {
	if p == nil {
		return filter{}
	}
	n := int64(0)
	p.Walk(func(*expr.Comparison) { n++ })
	if n == 0 {
		n = 1
	}
	return filter{pred: p, leaves: n}
}

// pass charges the evaluation to clock (unless it is nil) and reports
// whether t satisfies the predicate; the nil predicate passes everything
// for free.
func (f filter) pass(clock *cost.Clock, t Tuple) bool {
	if f.pred == nil {
		return true
	}
	if clock != nil {
		clock.Comps(f.leaves)
	}
	return f.pred.Eval(t)
}

// readWhere is the access path of every single-table read: it calls fn,
// in storage order, with each live row of rel that passes f, reading
// through file (rel.File or a session's view of it) until fn returns
// false. When an index bounds f's predicate (expr.Ranges), §2's probe —
// walk the index, then fetch the rows by RID — replaces the sequential
// scan if it is cheaper under params (probe). Either way the rows, and
// their order, are the scan's. A nil clock charges nothing, DELETE's
// convention; otherwise the scan reads sequentially, the probe reads each
// distinct page once at random, and the walk charges its comparisons.
func readWhere(rel *catalog.Relation, file *heap.File, f filter, params cost.Params, clock *cost.Clock, fn func(heap.RID, Tuple) bool) error {
	scan, fetch := simio.Seq, simio.Rand
	if clock == nil {
		scan, fetch = simio.Uncharged, simio.Uncharged
	}
	rids, probed, walked := probe(rel, file, f, params)
	if clock != nil {
		clock.Comps(walked)
	}
	if !probed {
		return file.ScanRIDs(scan, func(rid heap.RID, t Tuple) bool {
			return !f.pass(clock, t) || fn(rid, t)
		})
	}
	slices.SortFunc(rids, heap.RID.Compare)
	var pg page.TuplePage
	at := int32(-1)
	for _, rid := range rids {
		if rid.Page != at {
			var err error
			if pg, err = file.ReadPage(int(rid.Page), fetch); err != nil {
				return err
			}
			at = rid.Page
		}
		if t := pg.Tuple(int(rid.Slot)); f.pass(clock, t) && !fn(rid, t) {
			return nil
		}
	}
	return nil
}

// probe prices §2's index probe against the sequential scan for a read
// of file under f, with params — the prices the clock charges:
//
//	scan:  |R|·IOSeq + ||R||·leaves·Comp
//	probe: (⌈log2 n⌉ per range + 1 per entry walked + leaves per RID)·Comp
//	       + IORand per distinct page
//
// It walks each index whose column f bounds (ascending by column) over
// the predicate's ranges and abandons a walk the moment its price passes
// the cheapest plan so far, so the choice depends only on the index
// contents and params. It returns the cheapest finished walk's RIDs
// (probed false: scan) and the comparisons every walk made. A table
// whose scan costs less than one random read (a page or two) is never
// walked: only a probe that found nothing could beat its scan.
func probe(rel *catalog.Relation, file *heap.File, f filter, params cost.Params) (rids []heap.RID, probed bool, walked int64) {
	if f.pred == nil {
		return nil, false, 0
	}
	best := time.Duration(file.NumPages())*params.IOSeq + time.Duration(file.NumTuples()*f.leaves)*params.Comp
	if best < params.IORand {
		return nil, false, 0
	}
	var seen []uint64
	for _, col := range rel.IndexedColumns() {
		ranges, bounded := expr.Ranges(f.pred, col)
		if !bounded {
			continue
		}
		if seen == nil {
			seen = make([]uint64, (file.NumPages()+63)/64)
		} else {
			clear(seen)
		}
		ix, _ := rel.Index(col)
		w := &indexWalk{leaves: f.leaves, params: params, budget: best, seen: seen}
		finished := w.run(ix, ranges)
		walked += w.comps
		if finished {
			rids, probed, best = w.rids, true, w.price()
		}
	}
	return rids, probed, walked
}

// indexWalk is one index's walk over a predicate's ranges, priced as it
// goes.
type indexWalk struct {
	leaves int64 // the filter's, charged per fetched row
	params cost.Params
	budget time.Duration // the price past which the walk is abandoned
	seen   []uint64      // the distinct pages of rids, a bitmap

	rids         []heap.RID
	comps, pages int64
}

func (w *indexWalk) price() time.Duration {
	return time.Duration(w.comps+int64(len(w.rids))*w.leaves)*w.params.Comp + time.Duration(w.pages)*w.params.IORand
}

// run walks ix over ranges, reporting false if it abandoned the walk.
func (w *indexWalk) run(ix catalog.Index, ranges []expr.Range) bool {
	descent := ceilLog2(ix.Len())
	for _, r := range ranges {
		if w.comps += descent; w.price() > w.budget {
			return false
		}
		hi, over := tuple.IntKey(r.Hi), false
		ix.Ascend(tuple.IntKey(r.Lo), func(key []byte, rid heap.RID) bool {
			if w.comps++; bytes.Compare(key, hi) > 0 {
				return false
			}
			w.rids = append(w.rids, rid)
			if i, bit := rid.Page/64, uint64(1)<<(rid.Page%64); w.seen[i]&bit == 0 {
				w.seen[i] |= bit
				w.pages++
			}
			over = w.price() > w.budget
			return !over
		})
		if over {
			return false
		}
	}
	return true
}

// ceilLog2 is ⌈log2 n⌉, §2's comparisons per descent of an n-entry index.
func ceilLog2(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(bits.Len64(uint64(n - 1)))
}

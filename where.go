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

// filter is a table's WHERE, compiled once per statement, with its
// evaluation charge: one comparison per leaf (min 1) for every row it
// examines. A read adds the charge up and bills it once per page
// (readWhere, the one place a single-table WHERE is evaluated), so the
// clock sees the same totals as a per-row charge at every exit — a LIMIT
// stop, a consumer that stops, a read error mid-scan.
type filter struct {
	pred   expr.Predicate
	test   func(Tuple) bool // pred compiled; nil passes every row for free
	leaves int64
	// fold is what the consumer of the passing rows charges per row, in
	// comparisons (a global aggregate's accumulators), billed with the
	// filter's own charge.
	fold int64
}

func newFilter(p expr.Predicate, schema *Schema) filter {
	if p == nil {
		return filter{}
	}
	return filter{pred: p, test: expr.Compile(p, schema), leaves: max(p.Leaves(), 1)}
}

// pass reports whether t satisfies the predicate.
func (f filter) pass(t Tuple) bool { return f.test == nil || f.test(t) }

// charge bills examined rows, of which passed went to the consumer, to
// clock (unless it is nil).
func (f filter) charge(clock *cost.Clock, examined, passed int64) {
	if n := f.leaves*examined + f.fold*passed; clock != nil && n > 0 {
		clock.Comps(n)
	}
}

// readWhere is the access path of every single-table read: it calls fn,
// in storage order, with each live row of rel that passes f, reading
// through file (rel.File or a session's view of it) until fn returns
// false. When an index bounds f's predicate (expr.Ranges), §2's probe —
// walk the index, then fetch the rows by RID — replaces the sequential
// scan if it is cheaper under params (probe). Either way the rows, and
// their order, are the scan's. A nil clock charges nothing, DELETE's
// convention; otherwise the scan reads sequentially, the probe reads each
// distinct page once at random, the walk charges its comparisons, and f
// charges each page's rows when the read leaves the page. The rows fn
// sees are views into the stored pages (heap.File.ReadPage), valid while
// the caller holds its intent on rel.
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
		return file.ScanPages(0, file.NumPages(), scan, func(p heap.Page) bool {
			var examined, passed int64
			more := true
			for j, n := 0, p.Count(); j < n && more; j++ {
				if !p.Live(j) {
					continue
				}
				t := p.At(j)
				if examined++; f.pass(t) {
					passed++
					more = fn(heap.RID{Page: p.N, Slot: int32(j)}, t)
				}
			}
			f.charge(clock, examined, passed)
			return more
		})
	}
	slices.SortFunc(rids, heap.RID.Compare)
	for len(rids) > 0 {
		n := 1 // rids[:n] are on one page
		for n < len(rids) && rids[n].Page == rids[0].Page {
			n++
		}
		p, err := file.ReadPage(int(rids[0].Page), fetch)
		if err != nil {
			return err
		}
		var examined, passed int64
		more := true
		for _, rid := range rids[:n] {
			t := p.Tuple(int(rid.Slot))
			if examined++; f.pass(t) {
				passed++
				if more = fn(rid, t); !more {
					break
				}
			}
		}
		f.charge(clock, examined, passed)
		if !more {
			return nil
		}
		rids = rids[n:]
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

	lo, hi [8]byte // the range being walked, as index keys
	over   bool    // the walk passed budget
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
		copy(w.lo[:], tuple.IntKey(r.Lo))
		copy(w.hi[:], tuple.IntKey(r.Hi))
		ix.Ascend(w.lo[:], w.visit)
		if w.over {
			return false
		}
	}
	return true
}

// visit takes one index entry of the range being walked: false ends the
// range, or the walk once it passes budget.
func (w *indexWalk) visit(key []byte, rid heap.RID) bool {
	if w.comps++; bytes.Compare(key, w.hi[:]) > 0 {
		return false
	}
	w.rids = append(w.rids, rid)
	if i, bit := rid.Page/64, uint64(1)<<(rid.Page%64); w.seen[i]&bit == 0 {
		w.seen[i] |= bit
		w.pages++
	}
	w.over = w.price() > w.budget
	return !w.over
}

// ceilLog2 is ⌈log2 n⌉, §2's comparisons per descent of an n-entry index.
func ceilLog2(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(bits.Len64(uint64(n - 1)))
}

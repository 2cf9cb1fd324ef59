package mmdb

import (
	"fmt"

	"mmdb/internal/catalog"
	"mmdb/internal/cost"
	"mmdb/internal/expr"
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

// pass charges the evaluation to clock and reports whether t satisfies
// the predicate; the nil predicate passes everything for free.
func (f filter) pass(clock *cost.Clock, t Tuple) bool {
	if f.pred == nil {
		return true
	}
	clock.Comps(f.leaves)
	return f.pred.Eval(t)
}

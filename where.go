package mmdb

import (
	"fmt"

	"mmdb/internal/catalog"
	"mmdb/internal/cost"
	"mmdb/internal/expr"
)

// CompareOp is a predicate comparison operator.
type CompareOp = expr.Op

// Comparison operators.
const (
	Eq = expr.Eq
	Ne = expr.Ne
	Lt = expr.Lt
	Le = expr.Le
	Gt = expr.Gt
	Ge = expr.Ge
)

// Pred is a selection predicate bound to one relation. Build leaves with
// Database.Where and combine with And/Or/Not; attach to QueryTable.Where
// for planned queries or pass to Relation.DeleteWhere.
type Pred struct {
	rel   *catalog.Relation
	inner expr.Predicate
	err   error
}

// Where builds a column-vs-constant comparison on the named relation.
func (db *Database) Where(relation, column string, op CompareOp, v Value) (*Pred, error) {
	rel, err := db.cat.Get(relation)
	if err != nil {
		return nil, err
	}
	col := rel.Schema().FieldIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("mmdb: relation %q has no column %q", relation, column)
	}
	c, err := expr.NewComparison(rel.Schema(), col, op, v)
	if err != nil {
		return nil, err
	}
	return &Pred{rel: rel, inner: c}, nil
}

// MustWhere is Where that panics on error.
func (db *Database) MustWhere(relation, column string, op CompareOp, v Value) *Pred {
	p, err := db.Where(relation, column, op, v)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Pred) combine(q *Pred, f func(a, b expr.Predicate) expr.Predicate) *Pred {
	out := &Pred{rel: p.rel}
	switch {
	case p.err != nil:
		out.err = p.err
	case q.err != nil:
		out.err = q.err
	case p.rel != q.rel:
		out.err = fmt.Errorf("mmdb: combining predicates over %q and %q", p.rel.Name, q.rel.Name)
	default:
		out.inner = f(p.inner, q.inner)
	}
	return out
}

// And conjoins two predicates over the same relation.
func (p *Pred) And(q *Pred) *Pred {
	return p.combine(q, func(a, b expr.Predicate) expr.Predicate { return expr.And(a, b) })
}

// Or disjoins two predicates over the same relation.
func (p *Pred) Or(q *Pred) *Pred {
	return p.combine(q, func(a, b expr.Predicate) expr.Predicate { return expr.Or(a, b) })
}

// Not negates the predicate.
func (p *Pred) Not() *Pred {
	if p.err != nil {
		return p
	}
	return &Pred{rel: p.rel, inner: expr.Not(p.inner)}
}

// Err surfaces construction errors from And/Or over mismatched relations.
func (p *Pred) Err() error { return p.err }

// Match reports whether t satisfies the predicate.
func (p *Pred) Match(t Tuple) bool {
	if p.err != nil || p.inner == nil {
		return false
	}
	return p.inner.Eval(t)
}

// String renders the predicate.
func (p *Pred) String() string {
	if p.err != nil {
		return "<invalid: " + p.err.Error() + ">"
	}
	return p.inner.String()
}

// EstimatedSelectivity predicts the fraction of rows the predicate keeps,
// using column histograms where BuildHistogram has run and System R's
// defaults elsewhere (§4's [SELI79] statistics).
func (p *Pred) EstimatedSelectivity() float64 {
	if p.err != nil {
		return 1
	}
	return expr.Selectivity(p.inner, func(c *expr.Comparison) float64 {
		if c.Value.Kind == Int64 {
			if h, ok := p.rel.Histogram(c.Col); ok {
				return h.Selectivity(c.Op, c.Value.I)
			}
		}
		return expr.DefaultLeafSelectivity(c)
	})
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

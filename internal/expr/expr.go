// Package expr implements typed selection predicates over tuples:
// column-versus-constant comparisons composed with AND/OR/NOT. A
// predicate is evaluated by compiling it (Compile) into a test over
// encoded tuples, and carries enough structure for the §4 planner to
// estimate its selectivity (via catalog histograms or System R's
// textbook defaults) and bound an index walk (Ranges).
package expr

import (
	"fmt"
	"strings"

	"mmdb/internal/tuple"
)

// Op is a comparison operator.
type Op int

// Comparison operators.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is a boolean expression over one relation's tuples; Compile
// evaluates it.
type Predicate interface {
	// String renders the predicate.
	String() string
	// Leaves counts the comparison leaves: what one evaluation costs on
	// §2's clock, in comparisons.
	Leaves() int64
}

// Comparison is a leaf: column <op> constant.
type Comparison struct {
	schema *tuple.Schema
	Col    int
	Op     Op
	Value  tuple.Value
}

// NewComparison builds a validated comparison.
func NewComparison(schema *tuple.Schema, col int, op Op, v tuple.Value) (*Comparison, error) {
	if col < 0 || col >= schema.NumFields() {
		return nil, fmt.Errorf("expr: column %d out of range", col)
	}
	if schema.Field(col).Kind != v.Kind {
		return nil, fmt.Errorf("expr: column %q is %v, constant is %v",
			schema.Field(col).Name, schema.Field(col).Kind, v.Kind)
	}
	switch op {
	case Eq, Ne, Lt, Le, Gt, Ge:
	default:
		return nil, fmt.Errorf("expr: invalid operator %d", int(op))
	}
	return &Comparison{schema: schema, Col: col, Op: op, Value: v}, nil
}

// String implements Predicate.
func (c *Comparison) String() string {
	return fmt.Sprintf("%s %v %v", c.schema.Field(c.Col).Name, c.Op, c.Value)
}

// Leaves implements Predicate.
func (c *Comparison) Leaves() int64 { return 1 }

type and struct{ kids []Predicate }

func (a *and) String() string { return joinKids(a.kids, " AND ") }
func (a *and) Leaves() int64  { return leaves(a.kids) }

type or struct{ kids []Predicate }

func (o *or) String() string { return joinKids(o.kids, " OR ") }
func (o *or) Leaves() int64  { return leaves(o.kids) }

type not struct{ kid Predicate }

func (n *not) String() string { return "NOT (" + n.kid.String() + ")" }
func (n *not) Leaves() int64  { return n.kid.Leaves() }

func leaves(ps []Predicate) int64 {
	n := int64(0)
	for _, p := range ps {
		n += p.Leaves()
	}
	return n
}

// And conjoins predicates (true for none).
func And(ps ...Predicate) Predicate {
	if len(ps) == 1 {
		return ps[0]
	}
	return &and{kids: ps}
}

// Or disjoins predicates (false for none).
func Or(ps ...Predicate) Predicate {
	if len(ps) == 1 {
		return ps[0]
	}
	return &or{kids: ps}
}

// Not negates a predicate.
func Not(p Predicate) Predicate { return &not{kid: p} }

// TrueP is the always-true predicate.
var TrueP Predicate = &truePred{}

type truePred struct{}

func (*truePred) String() string { return "TRUE" }
func (*truePred) Leaves() int64  { return 0 }

func joinKids(ps []Predicate, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Selectivity estimates the fraction of tuples satisfying p. leafSel
// estimates one comparison (a histogram-backed estimator, or
// DefaultLeafSelectivity); composites combine under the standard
// independence assumptions (System R, as §4's [SELI79]).
func Selectivity(p Predicate, leafSel func(*Comparison) float64) float64 {
	switch p := p.(type) {
	case *Comparison:
		return clamp01(leafSel(p))
	case *and:
		s := 1.0
		for _, k := range p.kids {
			s *= Selectivity(k, leafSel)
		}
		return s
	case *or:
		s := 1.0
		for _, k := range p.kids {
			s *= 1 - Selectivity(k, leafSel)
		}
		return 1 - s
	case *not:
		return 1 - Selectivity(p.kid, leafSel)
	case *truePred:
		return 1
	default:
		return 0.5
	}
}

// DefaultLeafSelectivity is the System R fallback: 1/10 for equality,
// 1/3 for ranges, with Ne as the complement of Eq.
func DefaultLeafSelectivity(c *Comparison) float64 {
	switch c.Op {
	case Eq:
		return 0.1
	case Ne:
		return 0.9
	default:
		return 1.0 / 3.0
	}
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

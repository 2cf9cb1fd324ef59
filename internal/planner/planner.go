// Package planner implements §4 access planning: Selinger-style dynamic
// programming over join orders with cost = W*|CPU| + |I/O|, using the §3
// analytic cost formulas to price each candidate join algorithm.
//
// It demonstrates the paper's observation quantitatively: when memory is
// large, hash-based algorithms win everywhere and their output order never
// matters, so the optimizer can drop "interesting order" bookkeeping and
// shrink its search space — Optimize (full Selinger with sort-order
// states) and OptimizeHashOnly (the §4 reduction) return plans of the same
// cost while exploring far fewer states.
package planner

import (
	"fmt"
	"math"
	"sort"

	"mmdb/internal/core"
	"mmdb/internal/cost"
	"mmdb/internal/join"
)

// NoOrder marks a plan output with no useful sort order.
const NoOrder = -1

// Table describes one base relation after selections are pushed down to
// its scan: Selectivity scales its cardinality before any join touches it
// (the paper's "most selective operations ... pushed towards the bottom").
// The selection itself is the caller's: Execute joins whatever file Rel
// binds, so a caller that filters binds the filtered copy.
type Table struct {
	Name          string
	Tuples        int64
	TuplesPerPage int
	Width         int           // tuple width in bytes
	Selectivity   float64       // fraction surviving the pushed-down selections (1 = none)
	Distinct      map[int]int64 // join-class -> distinct values of the table's column in that class
	Rel           ExecSource    // optional storage binding (Execute only)
}

// Edge is one equi-join predicate between two tables; all columns joined
// transitively share a class.
type Edge struct {
	A, B  int // table indexes
	Class int // join attribute equivalence class
}

// Query is the optimizer input.
type Query struct {
	Tables   []Table
	Edges    []Edge
	PageSize int         // for intermediate-result page estimates; 0 means 4096
	M        int         // memory pages available per join
	Params   cost.Params // Table 2/3 hardware characterization
	W        float64     // CPU weight in W*CPU + IO (Selinger); 0 means 1
}

func (q Query) withDefaults() Query {
	if q.PageSize == 0 {
		q.PageSize = 4096
	}
	if q.W == 0 {
		q.W = 1
	}
	if q.Params == (cost.Params{}) {
		q.Params = cost.DefaultParams()
	}
	return q
}

func (q Query) validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("planner: query with no tables")
	}
	if len(q.Tables) > 14 {
		return fmt.Errorf("planner: %d tables exceeds the DP limit", len(q.Tables))
	}
	if q.M < 2 {
		return fmt.Errorf("planner: need at least 2 pages of memory")
	}
	for i, t := range q.Tables {
		if t.Tuples < 0 || t.TuplesPerPage < 1 || t.Width < 1 {
			return fmt.Errorf("planner: table %d (%s) has invalid stats", i, t.Name)
		}
		if t.Selectivity < 0 || t.Selectivity > 1 {
			return fmt.Errorf("planner: table %d (%s) selectivity %g out of [0,1]", i, t.Name, t.Selectivity)
		}
	}
	for _, e := range q.Edges {
		if e.A < 0 || e.A >= len(q.Tables) || e.B < 0 || e.B >= len(q.Tables) || e.A == e.B {
			return fmt.Errorf("planner: invalid edge %+v", e)
		}
	}
	return nil
}

// Node is a plan tree node: a base table leaf or a join of a sub-plan with
// a base table (left-deep).
type Node struct {
	Table     int   // leaf table index, or -1
	Left      *Node // inner sub-plan
	Right     int   // right (probe-side) table index for joins
	Algorithm join.Algorithm

	EstTuples int64
	EstPages  int
	Width     int
	OrderedBy int // join class the output is sorted on, or NoOrder

	StepCost core.JoinCost // this join only
}

// leaf reports whether the node is a base-table scan.
func (n *Node) leaf() bool { return n.Table >= 0 }

// Plan is an optimized query plan.
type Plan struct {
	Root            *Node
	CPU, IO         float64 // cumulative seconds
	Weighted        float64 // W*CPU + IO
	StatesExplored  int     // DP states materialized
	PlansConsidered int     // (state, table, algorithm) candidates priced
}

// Order renders the join order as table names, build-first.
func (p *Plan) Order(q Query) []string {
	var out []string
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.leaf() {
			out = append(out, q.Tables[n.Table].Name)
			return
		}
		walk(n.Left)
		out = append(out, q.Tables[n.Right].Name)
	}
	walk(p.Root)
	return out
}

// Optimize runs the full Selinger enumeration: left-deep DP over table
// subsets, keeping the best sub-plan per (subset, output order) and
// pricing all four §3 join algorithms at each step.
func Optimize(q Query) (*Plan, error) {
	return optimize(q, []join.Algorithm{join.SortMerge, join.SimpleHash, join.GraceHash, join.HybridHash}, true)
}

// OptimizeHashOnly runs the §4 reduction: hybrid hash everywhere, no
// order states.
func OptimizeHashOnly(q Query) (*Plan, error) {
	return optimize(q, []join.Algorithm{join.HybridHash}, false)
}

type dpKey struct {
	mask  int
	order int
}

type dpVal struct {
	node     *Node
	cpu, io  float64
	weighted float64
}

func optimize(q Query, algos []join.Algorithm, trackOrders bool) (*Plan, error) {
	q = q.withDefaults()
	if err := q.validate(); err != nil {
		return nil, err
	}
	n := len(q.Tables)
	best := make(map[dpKey]dpVal)
	plan := &Plan{}

	put := func(key dpKey, val dpVal) {
		if cur, ok := best[key]; !ok || val.weighted < cur.weighted {
			if !ok {
				plan.StatesExplored++
			}
			best[key] = val
		}
	}

	for i := range q.Tables {
		put(dpKey{mask: 1 << i, order: NoOrder}, dpVal{node: leafNode(q, i)})
	}

	for mask := 1; mask < 1<<n; mask++ {
		for _, order := range ordersOf(q, trackOrders) {
			cur, ok := best[dpKey{mask: mask, order: order}]
			if !ok {
				continue
			}
			for t := 0; t < n; t++ {
				if mask&(1<<t) != 0 {
					continue
				}
				classes := connecting(q, mask, t)
				if len(classes) == 0 && mask != 0 && popcount(mask) < n {
					// Avoid Cartesian products unless forced; Selinger
					// does the same.
					if hasAnyEdge(q, mask) || hasAnyEdgeTo(q, t) {
						continue
					}
				}
				right := leafNode(q, t)
				for _, algo := range algos {
					plan.PlansConsidered++
					node, cpu, io := joinNodes(q, cur.node, right, classes, algo, order)
					val := dpVal{
						node: node,
						cpu:  cur.cpu + cpu,
						io:   cur.io + io,
					}
					val.weighted = q.W*val.cpu + val.io
					key := dpKey{mask: mask | 1<<t, order: node.OrderedBy}
					if !trackOrders {
						key.order = NoOrder
						node.OrderedBy = NoOrder
					}
					put(key, val)
				}
			}
		}
	}

	full := 1<<n - 1
	var win *dpVal
	for _, order := range ordersOf(q, trackOrders) {
		if v, ok := best[dpKey{mask: full, order: order}]; ok {
			if win == nil || v.weighted < win.weighted {
				vv := v
				win = &vv
			}
		}
	}
	if win == nil {
		return nil, fmt.Errorf("planner: no plan covers all tables")
	}
	plan.Root = win.node
	plan.CPU, plan.IO, plan.Weighted = win.cpu, win.io, win.weighted
	return plan, nil
}

func leafNode(q Query, i int) *Node {
	t := q.Tables[i]
	sel := t.Selectivity
	if sel == 0 {
		sel = 1
	}
	tuples := int64(float64(t.Tuples) * sel)
	if tuples < 1 && t.Tuples > 0 {
		tuples = 1
	}
	pages := int(math.Ceil(float64(tuples) / float64(t.TuplesPerPage)))
	if pages < 1 {
		pages = 1
	}
	return &Node{
		Table:     i,
		Right:     -1,
		EstTuples: tuples,
		EstPages:  pages,
		Width:     t.Width,
		OrderedBy: NoOrder,
	}
}

// ordersOf enumerates the order states the DP tracks.
func ordersOf(q Query, trackOrders bool) []int {
	if !trackOrders {
		return []int{NoOrder}
	}
	seen := map[int]bool{NoOrder: true}
	out := []int{NoOrder}
	for _, e := range q.Edges {
		if !seen[e.Class] {
			seen[e.Class] = true
			out = append(out, e.Class)
		}
	}
	sort.Ints(out)
	return out
}

// connecting returns the join classes linking table t to the subset mask.
func connecting(q Query, mask, t int) []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range q.Edges {
		var other int
		switch {
		case e.A == t:
			other = e.B
		case e.B == t:
			other = e.A
		default:
			continue
		}
		if mask&(1<<other) != 0 && !seen[e.Class] {
			seen[e.Class] = true
			out = append(out, e.Class)
		}
	}
	sort.Ints(out)
	return out
}

func hasAnyEdge(q Query, mask int) bool {
	for _, e := range q.Edges {
		if mask&(1<<e.A) != 0 || mask&(1<<e.B) != 0 {
			return true
		}
	}
	return false
}

func hasAnyEdgeTo(q Query, t int) bool {
	for _, e := range q.Edges {
		if e.A == t || e.B == t {
			return true
		}
	}
	return false
}

// joinNodes prices joining left (the accumulated plan, sorted on
// leftOrder) with base table t via the given classes and algorithm, and
// estimates the output.
func joinNodes(q Query, left *Node, right *Node, classes []int, algo join.Algorithm, leftOrder int) (*Node, float64, float64) {
	t := q.Tables[right.Table]

	// Cardinality: |L ⋈ R| = |L|*|R| / max(d_L, d_R) per connecting class.
	out := float64(left.EstTuples) * float64(right.EstTuples)
	for _, cl := range classes {
		dl := classDistinct(q, left, cl)
		dr := t.Distinct[cl]
		if dr < 1 {
			dr = right.EstTuples
		}
		d := dl
		if dr > d {
			d = dr
		}
		if d > 1 {
			out /= float64(d)
		}
	}
	outTuples := int64(out)
	if outTuples < 1 {
		outTuples = 1
	}
	width := left.Width + t.Width
	tpp := (q.PageSize - 4) / width
	if tpp < 1 {
		tpp = 1
	}
	outPages := int(math.Ceil(float64(outTuples) / float64(tpp)))

	// Price the join with the smaller side as the build relation R.
	build, probe := left, right
	if probe.EstPages < build.EstPages {
		build, probe = probe, build
	}
	w := core.JoinWorkload{
		RPages:         maxInt(build.EstPages, 1),
		SPages:         maxInt(probe.EstPages, build.EstPages),
		RTuplesPerPage: maxInt(int(build.EstTuples/int64(maxInt(build.EstPages, 1))), 1),
		STuplesPerPage: maxInt(int(probe.EstTuples/int64(maxInt(probe.EstPages, 1))), 1),
	}
	var c core.JoinCost
	orderedOut := NoOrder
	switch algo {
	case join.SortMerge:
		c = core.SortMergeCost(q.Params, w, q.M)
		if len(classes) > 0 {
			cl := classes[0]
			if leftOrder == cl {
				// The accumulated side arrives sorted: skip its share of
				// run formation and run IO (the interesting-order payoff).
				frac := float64(left.EstPages) / float64(left.EstPages+right.EstPages)
				c.CPU *= 1 - frac/2
				c.IO *= 1 - frac
			}
			orderedOut = cl
		}
	case join.SimpleHash:
		c = core.SimpleHashCost(q.Params, w, q.M)
	case join.GraceHash:
		c = core.GraceHashCost(q.Params, w, q.M)
	case join.HybridHash:
		c = core.HybridHashCost(q.Params, w, q.M)
	default:
		panic(fmt.Sprintf("planner: unknown algorithm %v", algo))
	}

	node := &Node{
		Table:     -1,
		Left:      left,
		Right:     right.Table,
		Algorithm: algo,
		EstTuples: outTuples,
		EstPages:  maxInt(outPages, 1),
		Width:     width,
		OrderedBy: orderedOut,
		StepCost:  c,
	}
	return node, c.CPU, c.IO
}

// classDistinct estimates the distinct join-class values in a sub-plan:
// the minimum across its base tables participating in the class, capped by
// the sub-plan cardinality.
func classDistinct(q Query, n *Node, class int) int64 {
	var min int64 = math.MaxInt64
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.leaf() {
			if d, ok := q.Tables[n.Table].Distinct[class]; ok && d > 0 && d < min {
				min = d
			}
			return
		}
		walk(n.Left)
		if d, ok := q.Tables[n.Right].Distinct[class]; ok && d > 0 && d < min {
			min = d
		}
	}
	walk(n)
	if min == math.MaxInt64 || min > n.EstTuples {
		min = n.EstTuples
	}
	if min < 1 {
		min = 1
	}
	return min
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

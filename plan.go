package mmdb

import (
	"fmt"

	"mmdb/internal/planner"
	"mmdb/internal/simio"
)

// QueryTable names a relation participating in a planned query, with an
// optional pushed-down selection whose selectivity is estimated from
// histograms (Pred.EstimatedSelectivity).
type QueryTable struct {
	Relation string
	Where    *Pred // optional
}

// QueryJoin is one equi-join predicate between two query tables, by
// column name.
type QueryJoin struct {
	LeftTable  int // index into Query.Tables
	LeftCol    string
	RightTable int
	RightCol   string
}

// Query is a multi-way equijoin with pushed-down selections.
type Query struct {
	Tables []QueryTable
	Joins  []QueryJoin
}

// PlanMode selects the §4 planning regime.
type PlanMode int

// Planning modes.
const (
	// FullSelinger enumerates all four join algorithms and tracks
	// interesting orders, as a disk-era optimizer must.
	FullSelinger PlanMode = iota
	// HashOnly is the paper's large-memory reduction: hybrid hash
	// everywhere, no order bookkeeping, selectivity ordering only.
	HashOnly
)

// QueryPlan is an optimized plan (Session.Plan). Every SQL join of two or
// more tables is lowered onto one in HashOnly mode and executed: each
// table's predicate is one charged scan at its leaf, and the root join
// streams its pairs into the result.
type QueryPlan struct {
	query planner.Query
	plan  *planner.Plan

	// Order is the chosen join order (build side first).
	Order []string
	// EstimatedCPU and EstimatedIO are analytic seconds.
	EstimatedCPU, EstimatedIO float64
	// Weighted is W*CPU + IO, the Selinger objective.
	Weighted float64
	// StatesExplored and PlansConsidered measure optimizer effort; the §4
	// claim is that HashOnly shrinks both without losing plan quality
	// when memory is large.
	StatesExplored, PlansConsidered int
}

// finishPlan runs the optimizer over a resolved planner query.
func finishPlan(pq planner.Query, mode PlanMode) (*QueryPlan, error) {
	var p *planner.Plan
	var err error
	switch mode {
	case FullSelinger:
		p, err = planner.Optimize(pq)
	case HashOnly:
		p, err = planner.OptimizeHashOnly(pq)
	default:
		return nil, fmt.Errorf("mmdb: unknown plan mode %d", int(mode))
	}
	if err != nil {
		return nil, err
	}
	qp := &QueryPlan{
		query:           pq,
		plan:            p,
		EstimatedCPU:    p.CPU,
		EstimatedIO:     p.IO,
		Weighted:        p.Weighted,
		StatesExplored:  p.StatesExplored,
		PlansConsidered: p.PlansConsidered,
	}
	qp.Order = p.Order(pq)
	return qp, nil
}

// buildPlannerQuery resolves names against the catalog and computes the
// statistics the optimizer needs (distinct join-key counts). The planner
// sees m, the session's grant, as its |M|, and heap-file views on the
// session's disk view, so execution IO charges the session clock. A
// Where only estimates its table's selectivity: executing it is the
// caller's, which binds the filtered file in its place.
func (db *Database) buildPlannerQuery(q Query, m int, view *simio.Disk) (planner.Query, error) {
	if len(q.Tables) == 0 {
		return planner.Query{}, fmt.Errorf("mmdb: query with no tables")
	}
	// Assign join classes: columns joined transitively share one class.
	type colRef struct {
		table int
		col   string
	}
	classOf := make(map[colRef]int)
	nextClass := 0
	classFor := func(a, b colRef) int {
		ca, okA := classOf[a]
		cb, okB := classOf[b]
		switch {
		case okA && okB:
			if ca != cb { // merge classes
				for k, v := range classOf {
					if v == cb {
						classOf[k] = ca
					}
				}
			}
			return ca
		case okA:
			classOf[b] = ca
			return ca
		case okB:
			classOf[a] = cb
			return cb
		default:
			classOf[a] = nextClass
			classOf[b] = nextClass
			nextClass++
			return classOf[a]
		}
	}

	var edges []planner.Edge
	for _, j := range q.Joins {
		if j.LeftTable < 0 || j.LeftTable >= len(q.Tables) || j.RightTable < 0 || j.RightTable >= len(q.Tables) {
			return planner.Query{}, fmt.Errorf("mmdb: join references table out of range")
		}
		cl := classFor(colRef{j.LeftTable, j.LeftCol}, colRef{j.RightTable, j.RightCol})
		edges = append(edges, planner.Edge{A: j.LeftTable, B: j.RightTable, Class: cl})
	}

	tables := make([]planner.Table, len(q.Tables))
	for i, qt := range q.Tables {
		rel, err := db.cat.Get(qt.Relation)
		if err != nil {
			return planner.Query{}, err
		}
		schema := rel.Schema()
		classCols := make(map[int]int)
		var distinctCols []int
		for ref, cl := range classOf {
			if ref.table != i {
				continue
			}
			col := schema.FieldIndex(ref.col)
			if col < 0 {
				return planner.Query{}, fmt.Errorf("mmdb: %s has no column %q", qt.Relation, ref.col)
			}
			classCols[cl] = col
			distinctCols = append(distinctCols, col)
		}
		// Distinct counts size an intermediate that a later join step
		// reads. A two-table plan has no such step, so it skips their scans.
		if len(q.Tables) < 3 {
			distinctCols = nil
		}
		stats, err := db.cat.Stats(qt.Relation, distinctCols...)
		if err != nil {
			return planner.Query{}, err
		}
		distinct := make(map[int]int64)
		for cl, col := range classCols {
			distinct[cl] = stats.Distinct[col]
		}
		sel := 1.0
		if w := qt.Where; w != nil {
			if err := w.Err(); err != nil {
				return planner.Query{}, err
			}
			if w.rel != rel {
				return planner.Query{}, fmt.Errorf("mmdb: table %d predicate is over %q, not %q",
					i, w.rel.Name, qt.Relation)
			}
			if sel = w.EstimatedSelectivity(); sel <= 0 {
				sel = 1e-6 // "impossible" estimates still cost a scan
			}
		}
		file, err := rel.File.OnDisk(view)
		if err != nil {
			return planner.Query{}, err
		}
		tables[i] = planner.Table{
			Name:          qt.Relation,
			Tuples:        stats.Tuples,
			TuplesPerPage: stats.TuplesPerPage,
			Width:         schema.Width(),
			Selectivity:   sel,
			Distinct:      distinct,
			Rel:           planner.ExecSource{File: file, ClassCols: classCols},
		}
	}
	return planner.Query{
		Tables:   tables,
		Edges:    edges,
		PageSize: db.opts.PageSize,
		M:        m,
		Params:   db.opts.Params,
		W:        1,
	}, nil
}

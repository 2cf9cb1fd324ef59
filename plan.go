package mmdb

import (
	"context"
	"fmt"

	"mmdb/internal/lock"
	"mmdb/internal/planner"
	"mmdb/internal/session"
	"mmdb/internal/simio"
)

// QueryTable names a relation participating in a planned query, with an
// optional pushed-down selection: either a structured Where predicate
// (selectivity estimated from histograms) or a raw Filter with an
// explicit Selectivity.
type QueryTable struct {
	Relation    string
	Where       *Pred            // optional structured predicate
	Filter      func(Tuple) bool // optional raw predicate (ignored when Where is set)
	Selectivity float64          // estimate for Filter; 0 means 1 (or Where's estimate)
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

// QueryPlan is an optimized plan ready to execute.
type QueryPlan struct {
	db    *Database
	sess  *Session // non-nil when planned within a session
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

// Plan optimizes the query under the given mode with W=1, costing against
// the database's full MemoryPages (the serial path). For contention-aware
// planning use Session.Plan, which costs against the session's grant.
func (db *Database) Plan(q Query, mode PlanMode) (*QueryPlan, error) {
	pq, err := db.buildPlannerQuery(q, db.opts.MemoryPages, nil)
	if err != nil {
		return nil, err
	}
	return db.finishPlan(pq, mode, nil)
}

// finishPlan runs the optimizer over a resolved planner query.
func (db *Database) finishPlan(pq planner.Query, mode PlanMode, sess *Session) (*QueryPlan, error) {
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
		db:              db,
		sess:            sess,
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

// Execute runs the plan and materializes the joined result as a new
// relation named like "plan.join.N"; it returns the handle.
//
// A plan produced by Session.Plan executes within its session: it is
// already admitted, holds its relation intents, and runs against its
// memory grant on its private clock. A plan produced by Database.Plan
// admits a one-shot execution slot, takes shared intents on its tables,
// and reserves the full |M| it was costed against before running.
func (qp *QueryPlan) Execute() (*Relation, error) {
	if qp.sess != nil {
		out, err := planner.Execute(qp.query, qp.plan)
		if err != nil {
			return nil, err
		}
		// Re-home the materialized result onto the base disk so later
		// queries over it charge the global clock, then register it.
		based, err := out.OnDisk(qp.db.disk)
		if err != nil {
			return nil, err
		}
		return qp.db.adoptFile(based)
	}
	ctx := context.Background()
	if _, err := qp.db.sched.Admit(ctx, session.Batch); err != nil {
		return nil, err
	}
	defer qp.db.sched.Done(session.Batch)
	granted, err := qp.db.broker.Reserve(ctx, session.Batch, qp.query.M)
	if err != nil {
		return nil, err
	}
	defer qp.db.broker.Release(session.Batch, granted)
	names := make([]string, len(qp.query.Tables))
	for i, t := range qp.query.Tables {
		names[i] = t.Name
	}
	unlock, err := qp.db.lockRelations(ctx, lock.Shared, names...)
	if err != nil {
		return nil, err
	}
	defer unlock()
	out, err := planner.Execute(qp.query, qp.plan)
	if err != nil {
		return nil, err
	}
	return qp.db.adoptFile(out)
}

// buildPlannerQuery resolves names against the catalog and computes the
// statistics the optimizer needs (distinct join-key counts). The planner
// sees m as its |M| — the session's grant, or the global MemoryPages on
// the serial path — and, when view is non-nil, per-session heap-file
// views whose IO charges the session clock.
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
		stats, err := db.cat.Stats(qt.Relation, distinctCols...)
		if err != nil {
			return planner.Query{}, err
		}
		distinct := make(map[int]int64)
		for cl, col := range classCols {
			distinct[cl] = stats.Distinct[col]
		}
		filter := qt.Filter
		sel := qt.Selectivity
		if qt.Where != nil {
			if err := qt.Where.Err(); err != nil {
				return planner.Query{}, err
			}
			if qt.Where.rel != rel {
				return planner.Query{}, fmt.Errorf("mmdb: table %d predicate is over %q, not %q",
					i, qt.Where.rel.Name, qt.Relation)
			}
			w := qt.Where
			filter = w.Match
			if sel == 0 {
				sel = w.EstimatedSelectivity()
				if sel <= 0 {
					sel = 1e-6 // "impossible" estimates still cost a scan
				}
			}
		}
		if sel == 0 {
			sel = 1
		}
		file := rel.File
		if view != nil {
			file, err = rel.File.OnDisk(view)
			if err != nil {
				return planner.Query{}, err
			}
		}
		tables[i] = planner.Table{
			Name:          qt.Relation,
			Tuples:        stats.Tuples,
			TuplesPerPage: stats.TuplesPerPage,
			Width:         schema.Width(),
			Selectivity:   sel,
			Distinct:      distinct,
			Filter:        filter,
			Rel:           planner.ExecSource{File: file, ClassCols: classCols},
		}
	}
	return planner.Query{
		Tables:      tables,
		Edges:       edges,
		PageSize:    db.opts.PageSize,
		M:           m,
		Params:      db.opts.Params,
		W:           1,
		Parallelism: db.opts.Parallelism,
		SortChunks:  db.opts.SortChunks,
	}, nil
}

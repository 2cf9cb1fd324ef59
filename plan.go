package mmdb

import (
	"mmdb/internal/planner"
	sqlfront "mmdb/internal/sql"
)

// colRef is one join column: FROM table, column index.
type colRef struct{ table, col int }

// joinClasses groups the statement's join columns into equivalence
// classes — columns joined transitively share one — numbered in order of
// first appearance among the ON clauses, which may name their tables in
// any FROM order. It returns one planner edge per ON clause and, per FROM
// table, the column each of its classes joins on.
func joinClasses(b *sqlfront.BoundSelect) ([]planner.Edge, []map[int]int) {
	parent := make(map[colRef]colRef)
	var find func(c colRef) colRef
	find = func(c colRef) colRef {
		p, ok := parent[c]
		if !ok || p == c {
			return c
		}
		root := find(p)
		parent[c] = root
		return root
	}
	for _, j := range b.Joins {
		parent[find(colRef{j.LeftTable, j.LeftCol})] = find(colRef{j.RightTable, j.RightCol})
	}

	number := make(map[colRef]int)
	edges := make([]planner.Edge, len(b.Joins))
	classCols := make([]map[int]int, len(b.Tables))
	for i := range classCols {
		classCols[i] = make(map[int]int)
	}
	for i, j := range b.Joins {
		root := find(colRef{j.LeftTable, j.LeftCol})
		cl, ok := number[root]
		if !ok {
			cl = len(number)
			number[root] = cl
		}
		edges[i] = planner.Edge{A: j.LeftTable, B: j.RightTable, Class: cl}
		classCols[j.LeftTable][cl] = j.LeftCol
		classCols[j.RightTable][cl] = j.RightCol
	}
	return edges, classCols
}

// plannerQuery builds the §4 planner's input for a bound join: per FROM
// table its statistics (distinct join-key counts when a later join step
// reads an intermediate) and its WHERE's estimated selectivity, under the
// session's grant as |M|. The FROM tables are share-locked first, in one
// canonical-order acquisition. A predicate only estimates here: executing
// it, and binding each table's file, is the caller's.
func (s *Session) plannerQuery(b *sqlfront.BoundSelect) (planner.Query, error) {
	names := make([]string, len(b.Tables))
	for i, t := range b.Tables {
		names[i] = t.Name
	}
	rels, _, err := s.lockAndView(names...)
	if err != nil {
		return planner.Query{}, err
	}
	edges, classCols := joinClasses(b)
	tables := make([]planner.Table, len(b.Tables))
	for i, t := range b.Tables {
		// Distinct counts size an intermediate that a later join step
		// reads. A two-table plan has no such step, so it skips their scans.
		var distinctCols []int
		if len(b.Tables) >= 3 {
			for _, col := range classCols[i] {
				distinctCols = append(distinctCols, col)
			}
		}
		stats, err := s.db.cat.Stats(t.Name, distinctCols...)
		if err != nil {
			return planner.Query{}, err
		}
		distinct := make(map[int]int64)
		for cl, col := range classCols[i] {
			distinct[cl] = stats.Distinct[col]
		}
		sel := 1.0
		if p := b.Preds[i]; p != nil {
			sel = selectivity(rels[i], p)
		}
		tables[i] = planner.Table{
			Name:          t.Name,
			Tuples:        stats.Tuples,
			TuplesPerPage: stats.TuplesPerPage,
			Width:         t.Schema.Width(),
			Selectivity:   sel,
			Distinct:      distinct,
			Rel:           planner.ExecSource{ClassCols: classCols[i]},
		}
	}
	return planner.Query{
		Tables:   tables,
		Edges:    edges,
		PageSize: s.db.opts.PageSize,
		M:        s.grant.Pages(),
		Params:   s.db.opts.Params,
		W:        1,
	}, nil
}

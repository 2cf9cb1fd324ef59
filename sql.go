package mmdb

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"mmdb/internal/agg"
	"mmdb/internal/catalog"
	"mmdb/internal/expr"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	sqlfront "mmdb/internal/sql"
	"mmdb/internal/tuple"
)

// SQLResult is the outcome of one SQL statement. For SELECTs, Schema
// describes the result columns and Rows holds the result tuples encoded
// in that schema (the engine's fixed-width encoding — decode with
// Schema.Get, or take Values for the unpacked form). For INSERT/DELETE,
// Schema is nil and Affected reports the row count.
//
// Counters and Elapsed are the statement's virtual-clock charges —
// bit-identical across runs, schedulers and transports for the same
// statement, database state and memory grant (docs/SQL.md §5).
type SQLResult struct {
	Schema   *Schema
	Rows     []Tuple
	Affected int64
	Counters Counters
	Elapsed  time.Duration
}

// Values unpacks the result rows into dynamically typed values.
func (r *SQLResult) Values() [][]Value {
	if r.Schema == nil {
		return nil
	}
	out := make([][]Value, len(r.Rows))
	for i, t := range r.Rows {
		out[i] = r.Schema.Decode(t)
	}
	return out
}

// sqlCatalog adapts the engine catalog to the front door's resolver.
type sqlCatalog struct{ cat *catalog.Catalog }

func (c sqlCatalog) Table(name string) (*tuple.Schema, bool) {
	rel, err := c.cat.Get(name)
	if err != nil {
		return nil, false
	}
	return rel.Schema(), true
}

// sqlTmpSeq names the per-statement temporaries (filtered aggregation
// inputs) uniquely across concurrent sessions.
var sqlTmpSeq atomic.Uint64

// Query parses, binds and executes one SQL statement (docs/SQL.md) in
// this session: under its admission class, against its memory grant, on
// its private virtual clock. The returned counters are the statement's
// clock delta.
//
// Reads take the session's shared relation intents, which are held until
// Close; INSERT and DELETE take their own one-shot exclusive intents.
// Consequently a statement that mutates a table this same session has
// already read would deadlock — run DML in its own session (the wire
// server and Database.Query do exactly that).
func (s *Session) Query(text string) (*SQLResult, error) {
	stmt, err := sqlfront.Parse(text)
	if err != nil {
		return nil, err
	}
	bound, err := sqlfront.Bind(stmt, sqlCatalog{s.db.cat})
	if err != nil {
		return nil, err
	}
	before := s.clock.Counters()
	beforeVT := s.clock.Now()
	var res *SQLResult
	switch b := bound.(type) {
	case *sqlfront.BoundSelect:
		res, err = s.execSelect(b)
	case *sqlfront.BoundInsert:
		res, err = s.execInsert(b)
	case *sqlfront.BoundDelete:
		res, err = s.execDelete(b)
	default:
		return nil, fmt.Errorf("mmdb: unknown bound statement %T", bound)
	}
	if err != nil {
		return nil, err
	}
	res.Counters = s.clock.Counters().Sub(before)
	res.Elapsed = s.clock.Now() - beforeVT
	return res, nil
}

// Query runs one SQL statement in a fresh one-shot session (Batch class
// and default grant unless opts override). See Session.Query.
func (db *Database) Query(text string, opts ...SessionOption) (*SQLResult, error) {
	return db.QueryContext(context.Background(), text, opts...)
}

// QueryContext is the context-first Query: ctx governs admission
// queueing, lock waits and the per-query deadline.
func (db *Database) QueryContext(ctx context.Context, text string, opts ...SessionOption) (*SQLResult, error) {
	var res *SQLResult
	err := db.withSession(ctx, func(s *Session) error {
		var err error
		res, err = s.Query(text)
		return err
	}, opts...)
	return res, err
}

// predLeaves counts a predicate's comparison leaves — the per-tuple
// comparison charge of evaluating it (min 1), matching Session.Select.
func predLeaves(p expr.Predicate) int64 {
	if p == nil {
		return 0
	}
	n := int64(0)
	p.Walk(func(*expr.Comparison) { n++ })
	if n == 0 {
		n = 1
	}
	return n
}

// resultSchema builds the output schema from the bound select's
// projected columns and aggregates. COUNT/SUM/MIN/MAX yield int64, AVG
// float64; plain columns keep their source kind and width.
func resultSchema(b *sqlfront.BoundSelect) (*Schema, error) {
	var fields []Field
	for _, c := range b.Cols {
		f := b.Tables[c.Table].Schema.Field(c.Col)
		fields = append(fields, Field{Name: c.Name, Kind: f.Kind, Size: f.Size})
	}
	for _, a := range b.Aggs {
		kind := tuple.Int64
		if a.Func == agg.Avg {
			kind = tuple.Float64
		}
		fields = append(fields, Field{Name: a.Name, Kind: kind})
	}
	return NewSchema(fields...)
}

func (s *Session) execSelect(b *sqlfront.BoundSelect) (*SQLResult, error) {
	outSchema, err := resultSchema(b)
	if err != nil {
		return nil, err
	}
	switch {
	case b.Distinct:
		return s.execDistinct(b, outSchema)
	case len(b.Aggs) > 0 && b.GroupBy >= 0:
		return s.execGrouped(b, outSchema)
	case len(b.Aggs) > 0:
		return s.execGlobalAgg(b, outSchema)
	case len(b.Tables) == 1:
		return s.execScan(b, outSchema)
	case len(b.Tables) == 2:
		return s.execJoin2(b, outSchema)
	default:
		return s.execPlanned(b, outSchema)
	}
}

// project copies the bound output columns of one source row (or a
// (left,right) pair) into a fresh result tuple.
func projectRow(outSchema *Schema, b *sqlfront.BoundSelect, src func(table int) (Tuple, *Schema)) (Tuple, error) {
	out := make(Tuple, outSchema.Width())
	for i, c := range b.Cols {
		t, schema := src(c.Table)
		if err := outSchema.Set(out, i, schema.Get(t, c.Col)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sortAndTrim applies the bound ORDER BY (over result column col) and
// LIMIT to materialized result rows. The sort is stable on the encoded
// key bytes, so equal keys keep materialization order — unspecified but
// deterministic (docs/SQL.md §3.6).
func sortAndTrim(b *sqlfront.BoundSelect, outSchema *Schema, rows []Tuple, col int) []Tuple {
	if col >= 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			c := bytes.Compare(outSchema.KeyBytes(rows[i], col), outSchema.KeyBytes(rows[j], col))
			if b.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if b.Limit >= 0 && int64(len(rows)) > b.Limit {
		rows = rows[:b.Limit]
	}
	return rows
}

// execScan is the single-table path: a charged sequential scan, with the
// §3.4 sort machinery underneath when ORDER BY is present.
func (s *Session) execScan(b *sqlfront.BoundSelect, outSchema *Schema) (*SQLResult, error) {
	name := b.Tables[0].Name
	schema := b.Tables[0].Schema
	pred := b.Preds[0]
	leaves := predLeaves(pred)
	var rows []Tuple
	var projErr error
	collect := func(t Tuple) bool {
		if pred != nil {
			s.clock.Comps(leaves)
			if !pred.Eval(t) {
				return true
			}
		}
		out, err := projectRow(outSchema, b, func(int) (Tuple, *Schema) { return t, schema })
		if err != nil {
			projErr = err
			return false
		}
		rows = append(rows, out)
		// Without a sort, a satisfied LIMIT stops the scan early.
		return !(b.OrderCol < 0 && b.Limit >= 0 && int64(len(rows)) >= b.Limit)
	}

	if b.OrderCol < 0 {
		_, files, err := s.lockAndView(name)
		if err != nil {
			return nil, err
		}
		if err := files[0].Scan(simio.Seq, collect); err != nil {
			return nil, err
		}
	} else {
		// ORDER BY: stream the external sort ascending; DESC reverses
		// the collected output (the sort column need not be projected,
		// so ordering happens here, not post-projection).
		if err := s.OrderBy(name, schema.Field(b.OrderCol).Name, collect); err != nil {
			return nil, err
		}
		if b.Desc {
			for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
		if b.Limit >= 0 && int64(len(rows)) > b.Limit {
			rows = rows[:b.Limit]
		}
	}
	if projErr != nil {
		return nil, projErr
	}
	return &SQLResult{Schema: outSchema, Rows: rows}, nil
}

// execDistinct is the §3.5.1 duplicate-elimination form, on the engine's
// hash distinct with a deterministic ascending sort of the values.
func (s *Session) execDistinct(b *sqlfront.BoundSelect, outSchema *Schema) (*SQLResult, error) {
	name := b.Tables[0].Name
	if b.Preds[0] != nil {
		tmp, err := s.materializeFiltered(b)
		if err != nil {
			return nil, err
		}
		defer tmp.drop()
		return s.distinctRows(b, outSchema, tmp.file)
	}
	_, files, err := s.lockAndView(name)
	if err != nil {
		return nil, err
	}
	return s.distinctRows(b, outSchema, files[0])
}

func (s *Session) distinctRows(b *sqlfront.BoundSelect, outSchema *Schema, file *heap.File) (*SQLResult, error) {
	vals, err := agg.Distinct(file, b.GroupBy, s.grant.Pages(), s.db.opts.Params.F, s.db.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	sort.Slice(vals, func(i, j int) bool { return tuple.Compare(vals[i], vals[j]) < 0 })
	if b.Desc {
		for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
	if b.Limit >= 0 && int64(len(vals)) > b.Limit {
		vals = vals[:b.Limit]
	}
	rows := make([]Tuple, len(vals))
	for i, v := range vals {
		t, err := outSchema.Encode(v)
		if err != nil {
			return nil, err
		}
		rows[i] = t
	}
	return &SQLResult{Schema: outSchema, Rows: rows}, nil
}

// execGrouped runs the §3.9 hash aggregation, sorting groups ascending
// by key for the deterministic output order docs/SQL.md §3.5 promises.
func (s *Session) execGrouped(b *sqlfront.BoundSelect, outSchema *Schema) (*SQLResult, error) {
	var input *heap.File
	if b.Preds[0] != nil {
		tmp, err := s.materializeFiltered(b)
		if err != nil {
			return nil, err
		}
		defer tmp.drop()
		input = tmp.file
	} else {
		_, files, err := s.lockAndView(b.Tables[0].Name)
		if err != nil {
			return nil, err
		}
		input = files[0]
	}
	res, err := agg.Hash(agg.Spec{
		Input:       input,
		GroupCol:    b.GroupBy,
		ValueCol:    b.ValueCol,
		M:           s.grant.Pages(),
		F:           s.db.opts.Params.F,
		Parallelism: s.db.opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	groups := res.Groups
	sort.Slice(groups, func(i, j int) bool { return tuple.Compare(groups[i].Key, groups[j].Key) < 0 })
	if b.Desc { // ORDER BY group DESC (the only legal grouped order)
		for i, j := 0, len(groups)-1; i < j; i, j = i+1, j-1 {
			groups[i], groups[j] = groups[j], groups[i]
		}
	}
	if b.Limit >= 0 && int64(len(groups)) > b.Limit {
		groups = groups[:b.Limit]
	}
	rows := make([]Tuple, 0, len(groups))
	for _, g := range groups {
		out := make(Tuple, outSchema.Width())
		i := 0
		for range b.Cols { // at most the group column
			if err := outSchema.Set(out, i, g.Key); err != nil {
				return nil, err
			}
			i++
		}
		for _, a := range b.Aggs {
			if err := outSchema.Set(out, i, aggValue(agg.Group(g), a.Func)); err != nil {
				return nil, err
			}
			i++
		}
		rows = append(rows, out)
	}
	return &SQLResult{Schema: outSchema, Rows: rows}, nil
}

// aggValue renders one aggregate of a finished group in its output kind.
func aggValue(g agg.Group, f agg.Func) Value {
	switch f {
	case agg.Count:
		return IntValue(g.Count)
	case agg.Sum:
		return IntValue(g.Sum)
	case agg.Min:
		return IntValue(g.Min)
	case agg.Max:
		return IntValue(g.Max)
	default:
		return FloatValue(g.Value(agg.Avg))
	}
}

// execGlobalAgg computes an all-aggregate select list in one charged
// scan, each aggregate accumulating over its own column. Aggregates of
// zero rows are 0 (the engine has no NULLs, docs/SQL.md §3.5.2).
func (s *Session) execGlobalAgg(b *sqlfront.BoundSelect, outSchema *Schema) (*SQLResult, error) {
	name := b.Tables[0].Name
	schema := b.Tables[0].Schema
	pred := b.Preds[0]
	leaves := predLeaves(pred)
	_, files, err := s.lockAndView(name)
	if err != nil {
		return nil, err
	}
	groups := make([]agg.Group, len(b.Aggs))
	var n int64
	err = files[0].Scan(simio.Seq, func(t Tuple) bool {
		if pred != nil {
			s.clock.Comps(leaves)
			if !pred.Eval(t) {
				return true
			}
		}
		// One comparison per accumulated aggregate, mirroring the
		// grouped path's per-tuple group-table charge.
		s.clock.Comps(int64(len(b.Aggs)))
		n++
		for i, a := range b.Aggs {
			g := &groups[i]
			var v int64
			if a.Col >= 0 {
				v = schema.Int(t, a.Col)
			}
			if g.Count == 0 {
				*g = agg.Group{Count: 1, Sum: v, Min: v, Max: v}
			} else {
				g.Count++
				g.Sum += v
				if v < g.Min {
					g.Min = v
				}
				if v > g.Max {
					g.Max = v
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make(Tuple, outSchema.Width())
	for i, a := range b.Aggs {
		if err := outSchema.Set(out, i, aggValue(groups[i], a.Func)); err != nil {
			return nil, err
		}
	}
	return &SQLResult{Schema: outSchema, Rows: []Tuple{out}}, nil
}

// execJoin2 runs a two-table equijoin on the session's join dispatcher,
// applying each side's residual predicate to the streamed pairs and
// projecting on the fly.
func (s *Session) execJoin2(b *sqlfront.BoundSelect, outSchema *Schema) (*SQLResult, error) {
	j := b.Joins[0]
	// Normalize the edge to (table0 column, table1 column).
	lc, rc := j.LeftCol, j.RightCol
	if j.LeftTable == 1 {
		lc, rc = j.RightCol, j.LeftCol
	}
	s0, s1 := b.Tables[0].Schema, b.Tables[1].Schema
	p0, p1 := b.Preds[0], b.Preds[1]
	l0, l1 := predLeaves(p0), predLeaves(p1)
	var rows []Tuple
	var emitErr error
	_, err := s.Join(AutoJoin,
		b.Tables[0].Name, b.Tables[1].Name,
		s0.Field(lc).Name, s1.Field(rc).Name,
		func(l, r Tuple) {
			if emitErr != nil {
				return
			}
			if p0 != nil {
				s.clock.Comps(l0)
				if !p0.Eval(l) {
					return
				}
			}
			if p1 != nil {
				s.clock.Comps(l1)
				if !p1.Eval(r) {
					return
				}
			}
			out, err := projectRow(outSchema, b, func(table int) (Tuple, *Schema) {
				if table == 0 {
					return l, s0
				}
				return r, s1
			})
			if err != nil {
				emitErr = err
				return
			}
			rows = append(rows, out)
		})
	if err != nil {
		return nil, err
	}
	if emitErr != nil {
		return nil, emitErr
	}
	rows = sortAndTrim(b, outSchema, rows, b.OrderOut)
	return &SQLResult{Schema: outSchema, Rows: rows}, nil
}

// execPlanned lowers a 3+-table join onto the §4 planner in HashOnly
// mode. Residual predicates ride down as pushed selections; the
// materialized plan output is scanned through the session's disk view
// (without relation intents — the temporary is session-private, and a
// shared intent would deadlock with the drop below) and then dropped.
func (s *Session) execPlanned(b *sqlfront.BoundSelect, outSchema *Schema) (*SQLResult, error) {
	q := Query{Tables: make([]QueryTable, len(b.Tables))}
	for i, t := range b.Tables {
		qt := QueryTable{Relation: t.Name}
		if b.Preds[i] != nil {
			rel, err := s.db.cat.Get(t.Name)
			if err != nil {
				return nil, err
			}
			qt.Where = &Pred{rel: rel, inner: b.Preds[i]}
		}
		q.Tables[i] = qt
	}
	for _, j := range b.Joins {
		q.Joins = append(q.Joins, QueryJoin{
			LeftTable:  j.LeftTable,
			LeftCol:    b.Tables[j.LeftTable].Schema.Field(j.LeftCol).Name,
			RightTable: j.RightTable,
			RightCol:   b.Tables[j.RightTable].Schema.Field(j.RightCol).Name,
		})
	}
	qp, err := s.Plan(q, HashOnly)
	if err != nil {
		return nil, err
	}
	outRel, err := qp.Execute()
	if err != nil {
		return nil, err
	}
	defer s.db.DropRelation(outRel.Name())

	// The flat output lays the tables out in build-first plan order,
	// each table's columns contiguous; map (table, col) to flat offsets.
	offset := make(map[string]int, len(b.Tables))
	off := 0
	for _, name := range qp.Order {
		offset[name] = off
		for _, t := range b.Tables {
			if t.Name == name {
				off += t.Schema.NumFields()
			}
		}
	}
	flat := make([]int, len(b.Cols))
	for i, c := range b.Cols {
		flat[i] = offset[b.Tables[c.Table].Name] + c.Col
	}

	view, err := outRel.rel.File.OnDisk(s.view)
	if err != nil {
		return nil, err
	}
	flatSchema := view.Schema()
	var rows []Tuple
	var projErr error
	if err := view.Scan(simio.Seq, func(t Tuple) bool {
		out := make(Tuple, outSchema.Width())
		for i := range b.Cols {
			if err := outSchema.Set(out, i, flatSchema.Get(t, flat[i])); err != nil {
				projErr = err
				return false
			}
		}
		rows = append(rows, out)
		return true
	}); err != nil {
		return nil, err
	}
	if projErr != nil {
		return nil, projErr
	}
	rows = sortAndTrim(b, outSchema, rows, b.OrderOut)
	return &SQLResult{Schema: outSchema, Rows: rows}, nil
}

// sqlTemp is a filtered materialization: a catalog-registered temporary
// holding the rows of table 0 that satisfy its predicate, viewed through
// the session's disk so later passes charge the session clock.
type sqlTemp struct {
	db   *Database
	name string
	file *heap.File
}

func (t *sqlTemp) drop() { _ = t.db.DropRelation(t.name) }

// materializeFiltered runs the charged filtering scan of table 0 into a
// fresh uncharged temporary (the §3 convention: intermediates are
// written free, their later reads are charged).
func (s *Session) materializeFiltered(b *sqlfront.BoundSelect) (*sqlTemp, error) {
	name := b.Tables[0].Name
	pred := b.Preds[0]
	leaves := predLeaves(pred)
	_, files, err := s.lockAndView(name)
	if err != nil {
		return nil, err
	}
	tmpName := fmt.Sprintf("sql.tmp.%d", sqlTmpSeq.Add(1))
	tmpRel, err := s.db.CreateRelation(tmpName, b.Tables[0].Schema)
	if err != nil {
		return nil, err
	}
	var appendErr error
	err = files[0].Scan(simio.Seq, func(t Tuple) bool {
		s.clock.Comps(leaves)
		if !pred.Eval(t) {
			return true
		}
		if e := tmpRel.rel.File.Append(t.Clone(), simio.Uncharged); e != nil {
			appendErr = e
			return false
		}
		return true
	})
	if err == nil {
		err = appendErr
	}
	if err == nil {
		err = tmpRel.rel.File.Flush(simio.Uncharged)
	}
	if err != nil {
		_ = s.db.DropRelation(tmpName)
		return nil, err
	}
	view, err := tmpRel.rel.File.OnDisk(s.view)
	if err != nil {
		_ = s.db.DropRelation(tmpName)
		return nil, err
	}
	return &sqlTemp{db: s.db, name: tmpName, file: view}, nil
}

// execInsert appends the bound rows (uncharged, index-maintaining — the
// Relation.Insert convention) and flushes once.
func (s *Session) execInsert(b *sqlfront.BoundInsert) (*SQLResult, error) {
	rel, err := s.db.Relation(b.Table.Name)
	if err != nil {
		return nil, err
	}
	if err := rel.insertRows(b.Rows); err != nil {
		return nil, err
	}
	return &SQLResult{Affected: int64(len(b.Rows))}, nil
}

// execDelete rewrites the relation without the matching rows.
func (s *Session) execDelete(b *sqlfront.BoundDelete) (*SQLResult, error) {
	rel, err := s.db.Relation(b.Table.Name)
	if err != nil {
		return nil, err
	}
	var pred *Pred
	if b.Pred != nil {
		pred = &Pred{rel: rel.rel, inner: b.Pred}
	}
	n, err := rel.DeleteWhere(pred)
	if err != nil {
		return nil, err
	}
	return &SQLResult{Affected: n}, nil
}

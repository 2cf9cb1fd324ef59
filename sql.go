package mmdb

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"mmdb/internal/agg"
	"mmdb/internal/catalog"
	"mmdb/internal/extsort"
	"mmdb/internal/fault"
	"mmdb/internal/heap"
	"mmdb/internal/join"
	"mmdb/internal/planner"
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
		// A SELECT collects its rows before returning them, so a retried
		// attempt (WithRetry) simply starts over.
		err = fault.Rerun(s.retries, func() (err error) { res, err = s.execSelect(b); return err })
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
	err := db.withSession(ctx, func(s *Session) (err error) { res, err = s.Query(text); return err }, opts...)
	return res, err
}

// resultSchema builds the output schema from the bound select's
// projected columns and aggregates. COUNT/SUM/MIN/MAX yield int64, AVG
// float64; plain columns keep their source kind and width.
func resultSchema(b *sqlfront.BoundSelect) (*Schema, error) {
	fields := make([]Field, 0, len(b.Cols)+len(b.Aggs))
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

// selectRun is one SELECT's lowering. A source, picked by the statement's
// shape (keyed and global aggregates by their select list, a scan for one
// table, the planner for a join), passes its rows through the tables'
// charged filters to emit (or aggRow); execSelect orders and trims them.
type selectRun struct {
	s   *Session
	b   *sqlfront.BoundSelect
	out *Schema

	// emit reads output column i from field cols[i].Col of its first
	// (Table 0) or second (Table 1) argument, laid out per src[Table].
	src  [2]*Schema
	cols []sqlfront.Output

	rows      []Tuple
	err       error // an emit error; scans stop on it
	ascending bool  // rows arrive in ascending ORDER BY / group-key order
}

func (s *Session) execSelect(b *sqlfront.BoundSelect) (*SQLResult, error) {
	out, err := resultSchema(b)
	if err != nil {
		return nil, err
	}
	r := &selectRun{s: s, b: b, out: out, cols: b.Cols}
	switch {
	case b.GroupBy >= 0:
		err = r.keyed()
	case len(b.Aggs) > 0:
		err = r.global()
	case len(b.Tables) == 1:
		err = r.scan()
	default:
		err = r.planned()
	}
	if err == nil {
		err = r.err
	}
	if err != nil {
		return nil, err
	}

	rows := r.rows
	switch {
	case r.ascending:
		if b.Desc {
			slices.Reverse(rows)
		}
	case b.OrderOut >= 0:
		// A join's output is sorted in memory, stable on the encoded key
		// bytes, so equal keys keep materialization order — unspecified
		// but deterministic (docs/SQL.md §3.6).
		sort.SliceStable(rows, func(i, j int) bool {
			c := bytes.Compare(out.KeyBytes(rows[i], b.OrderOut), out.KeyBytes(rows[j], b.OrderOut))
			if b.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if b.Limit >= 0 && int64(len(rows)) > b.Limit {
		rows = rows[:b.Limit]
	}
	return &SQLResult{Schema: out, Rows: rows}, nil
}

// emit projects one source row, or one joined (left, right) pair, into a
// fresh result tuple.
func (r *selectRun) emit(t0, t1 Tuple) {
	out := make(Tuple, r.out.Width())
	for i, c := range r.cols {
		t, schema := t0, r.src[0]
		if c.Table == 1 {
			t, schema = t1, r.src[1]
		}
		if err := r.out.Set(out, i, schema.Get(t, c.Col)); err != nil {
			r.err = err
			return
		}
	}
	r.rows = append(r.rows, out)
}

// aggRow appends one aggregate output row: the key under the group column
// (a grouped select list projects at most that), then aggregate i read
// off gs[i] — or off gs[0] when the aggregates share one group.
func (r *selectRun) aggRow(key Value, gs []agg.Group) {
	out := make(Tuple, r.out.Width())
	n := len(r.b.Cols)
	for i := 0; i < n && r.err == nil; i++ {
		r.err = r.out.Set(out, i, key)
	}
	for j, a := range r.b.Aggs {
		g := gs[0]
		if len(gs) > 1 {
			g = gs[j]
		}
		if r.err == nil {
			r.err = r.out.Set(out, n+j, aggValue(g, a.Func))
		}
	}
	r.rows = append(r.rows, out)
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

// scan is the single-table source: a charged sequential scan, or the §3.4
// external sort when ORDER BY is present — ordering happens before
// projection because the sort column need not be projected, and the
// WHERE is applied to the sorted stream.
func (r *selectRun) scan() error {
	b, s := r.b, r.s
	r.src[0] = b.Tables[0].Schema
	f := newFilter(b.Preds[0])
	collect := func(t Tuple) bool {
		if !f.pass(s.clock, t) {
			return true
		}
		r.emit(t, nil)
		// Without a sort, a satisfied LIMIT stops the scan early.
		return r.err == nil && (b.OrderCol >= 0 || b.Limit < 0 || int64(len(r.rows)) < b.Limit)
	}
	_, files, err := s.lockAndView(b.Tables[0].Name)
	if err != nil {
		return err
	}
	if b.OrderCol < 0 {
		return files[0].Scan(simio.Seq, collect)
	}
	// The sort reads the base file uncharged and writes its runs as the
	// sort-merge join does, within the whole grant.
	r.ascending = true
	stream, stats, err := extsort.SortWith(files[0], extsort.Config{
		Col: b.OrderCol,
		// A session runs one statement at a time, so its lock-table id
		// names the run files uniquely across sessions.
		Prefix:      fmt.Sprintf("sql.orderby.%d", s.txn),
		Input:       simio.Uncharged,
		Parallelism: s.db.opts.Parallelism,
	}.WithMemory(files[0], s.grant.Pages(), s.db.opts.Params.F))
	if err != nil {
		return err
	}
	defer stream.Close()
	s.db.sorts.record(stats)
	for {
		t, ok := stream.Next()
		if !ok || !collect(t) {
			return stream.Err()
		}
	}
}

// filtered returns table i's file for an operator that reads it whole (an
// aggregate, a join leaf): the base file, or, under a predicate, a copy of
// the passing rows the statement owns and the returned func drops — a
// charged scan writing free (§3: intermediates are written uncharged).
func (r *selectRun) filtered(i int) (*heap.File, func(), error) {
	s, tbl, f := r.s, r.b.Tables[i], newFilter(r.b.Preds[i])
	_, files, err := s.lockAndView(tbl.Name)
	if err != nil {
		return nil, nil, err
	}
	if f.pred == nil {
		return files[0], func() {}, nil
	}
	// A session runs one statement at a time, so its lock-table id and the
	// table's FROM position name the file uniquely across sessions.
	tmp, err := heap.Create(s.view, fmt.Sprintf("sql.filtered.%d.%d", s.txn, i), tbl.Schema)
	if err != nil {
		return nil, nil, err
	}
	scanErr := files[0].Scan(simio.Seq, func(t Tuple) bool {
		if f.pass(s.clock, t) {
			err = tmp.Append(t, simio.Uncharged)
		}
		return err == nil
	})
	if err == nil {
		err = scanErr
	}
	if err == nil {
		err = tmp.Flush(simio.Uncharged)
	}
	if err != nil {
		tmp.Drop()
		return nil, nil, err
	}
	return tmp, tmp.Drop, nil
}

// keyed is the GROUP BY source: §3.9 hash aggregation, or the §3.5.1
// duplicate elimination — a distinct value is a group with no aggregates.
// Groups are emitted ascending by key, the deterministic order
// docs/SQL.md §3.5 promises.
func (r *selectRun) keyed() error {
	b, s := r.b, r.s
	input, drop, err := r.filtered(0)
	if err != nil {
		return err
	}
	defer drop()
	m, f, par := s.grant.Pages(), s.db.opts.Params.F, s.db.opts.Parallelism
	var groups []agg.Group
	if b.Distinct {
		vals, err := agg.Distinct(input, b.GroupBy, m, f, par)
		if err != nil {
			return err
		}
		groups = make([]agg.Group, len(vals))
		for i, v := range vals {
			groups[i].Key = v
		}
	} else {
		res, err := agg.Hash(agg.Spec{Input: input, GroupCol: b.GroupBy, ValueCol: b.ValueCol, M: m, F: f, Parallelism: par})
		if err != nil {
			return err
		}
		groups = res.Groups
	}
	sort.Slice(groups, func(i, j int) bool { return tuple.Compare(groups[i].Key, groups[j].Key) < 0 })
	r.ascending = true
	r.rows = make([]Tuple, 0, len(groups))
	for i := range groups {
		r.aggRow(groups[i].Key, groups[i:i+1])
	}
	return nil
}

// global folds an all-aggregate select list in one charged scan, each
// aggregate accumulating over its own column. Aggregates of zero rows are
// 0 (the engine has no NULLs, docs/SQL.md §3.5.2).
func (r *selectRun) global() error {
	b, s := r.b, r.s
	schema := b.Tables[0].Schema
	f := newFilter(b.Preds[0])
	_, files, err := s.lockAndView(b.Tables[0].Name)
	if err != nil {
		return err
	}
	groups := make([]agg.Group, len(b.Aggs))
	err = files[0].Scan(simio.Seq, func(t Tuple) bool {
		if !f.pass(s.clock, t) {
			return true
		}
		// One comparison per accumulated aggregate, mirroring the
		// grouped path's per-tuple group-table charge.
		s.clock.Comps(int64(len(b.Aggs)))
		for i, a := range b.Aggs {
			g := &groups[i]
			var v int64
			if a.Col >= 0 {
				v = schema.Int(t, a.Col)
			}
			if g.Count == 0 {
				g.Min, g.Max = v, v
			}
			g.Count++
			g.Sum += v
			g.Min, g.Max = min(g.Min, v), max(g.Max, v)
		}
		return true
	})
	if err != nil {
		return err
	}
	r.aggRow(Value{}, groups)
	return nil
}

// planned lowers a join onto the §4 planner in HashOnly mode. Each
// table's predicate is one charged scan at its leaf (filtered), below
// every join, and the root join streams its pairs to emit.
func (r *selectRun) planned() error {
	b, s := r.b, r.s
	q, err := s.plannerQuery(b)
	if err != nil {
		return err
	}
	p, err := planner.OptimizeHashOnly(q)
	if err != nil {
		return err
	}
	spec := s.joinSpec()
	for i := range b.Tables {
		f, drop, err := r.filtered(i)
		if err != nil {
			return err
		}
		defer drop()
		q.Tables[i].Rel.File = f
	}

	// The root's right row is the plan's last table; its left row lays the
	// others out build first, each table's columns contiguous.
	var order []int // last table first
	n := p.Root
	for ; n.Table < 0; n = n.Left {
		order = append(order, n.Right)
	}
	order = append(order, n.Table)
	at := make([]sqlfront.Output, len(b.Tables))
	at[order[0]] = sqlfront.Output{Table: 1}
	off := 0
	for k := len(order) - 1; k > 0; k-- {
		at[order[k]] = sqlfront.Output{Col: off}
		off += b.Tables[order[k]].Schema.NumFields()
	}
	r.cols = make([]sqlfront.Output, len(b.Cols))
	for i, c := range b.Cols {
		o := at[c.Table]
		r.cols[i] = sqlfront.Output{Table: o.Table, Col: o.Col + c.Col}
	}
	return planner.Execute(q, p, spec, func(left, right *heap.File) (join.Emit, error) {
		r.src[0], r.src[1] = left.Schema(), right.Schema()
		return r.emit, nil
	})
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
	n, err := rel.deleteWhere(b.Pred)
	if err != nil {
		return nil, err
	}
	return &SQLResult{Affected: n}, nil
}

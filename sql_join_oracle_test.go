package mmdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mmdb/internal/tuple"
)

// oracleTerm is one single-table predicate: its SQL text, and the test's
// own evaluation of it over the table's SELECT * row.
type oracleTerm struct {
	sql  string
	eval func(row []Value) bool
}

// oracleTerms are the candidate predicates per newLoweringDB table
// (emp: id dept salary name; dept: id budget city; proj: id dept hours).
// Each table has one that no row passes.
var oracleTerms = map[string][]oracleTerm{
	"emp": {
		{"emp.salary >= 43000", func(r []Value) bool { return r[2].I >= 43000 }},
		{"emp.id < 120", func(r []Value) bool { return r[0].I < 120 }},
		{"emp.dept != 3", func(r []Value) bool { return r[1].I != 3 }},
		{"emp.name = 'n05'", func(r []Value) bool { return r[3].S == "n05" }},
		{"(emp.salary < 41000 OR emp.salary > 45500)", func(r []Value) bool { return r[2].I < 41000 || r[2].I > 45500 }},
		{"emp.id > 100000", func(r []Value) bool { return false }},
	},
	"dept": {
		{"dept.budget > 200", func(r []Value) bool { return r[1].I > 200 }},
		{"dept.city = 'city3'", func(r []Value) bool { return r[2].S == "city3" }},
		{"NOT (dept.id = 2)", func(r []Value) bool { return r[0].I != 2 }},
		{"dept.budget >= 100000", func(r []Value) bool { return false }},
	},
	"proj": {
		{"proj.hours > 20", func(r []Value) bool { return r[2].I > 20 }},
		{"proj.id <= 13", func(r []Value) bool { return r[0].I <= 13 }},
		{"proj.dept = 4", func(r []Value) bool { return r[1].I == 4 }},
		{"proj.hours < 0", func(r []Value) bool { return false }},
	},
}

// oracleEdge joins column ac of FROM table a with column bc of table b.
type oracleEdge struct{ a, ac, b, bc int }

// oracleShape is a FROM list: edge i is the ON clause that brings table
// i+1 in. It may name any two distinct FROM tables, even one joined later.
type oracleShape struct {
	tables []string
	edges  []oracleEdge
}

var oracleShapes = []oracleShape{
	{[]string{"emp", "dept"}, []oracleEdge{{0, 1, 1, 0}}},
	{[]string{"dept", "proj"}, []oracleEdge{{0, 0, 1, 1}}},
	{[]string{"proj", "emp"}, []oracleEdge{{0, 1, 1, 0}}},
	{[]string{"emp", "proj"}, []oracleEdge{{0, 1, 1, 1}}},
	{[]string{"emp", "dept", "proj"}, []oracleEdge{{0, 1, 1, 0}, {1, 0, 2, 1}}},
	{[]string{"proj", "emp", "dept"}, []oracleEdge{{0, 1, 1, 0}, {1, 1, 2, 0}}},
	{[]string{"dept", "proj", "emp"}, []oracleEdge{{0, 0, 1, 1}, {0, 0, 2, 1}}},
	{[]string{"emp", "proj", "dept"}, []oracleEdge{{0, 1, 1, 1}, {1, 1, 2, 0}}},
	// dept JOIN proj ON emp.dept = dept.id JOIN emp ON proj.dept = emp.dept
	{[]string{"dept", "proj", "emp"}, []oracleEdge{{2, 1, 0, 0}, {1, 1, 2, 1}}},
}

// oracleCol is one projected column: FROM table t, column c.
type oracleCol struct{ t, c int }

// oracleStmt is one generated join statement and what the reference needs
// to evaluate it.
type oracleStmt struct {
	shape  oracleShape
	terms  []*oracleTerm // per FROM table; nil = no predicate
	cols   []oracleCol
	order  int // index into cols, or -1
	desc   bool
	limit  int // -1 = none
	schema map[string]*Schema
}

func (st oracleStmt) colName(c oracleCol) string {
	name := st.shape.tables[c.t]
	return name + "." + st.schema[name].Field(c.c).Name
}

func (st oracleStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, c := range st.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(st.colName(c))
	}
	b.WriteString(" FROM " + st.shape.tables[0])
	for i, e := range st.shape.edges {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", st.shape.tables[i+1],
			st.colName(oracleCol{e.a, e.ac}), st.colName(oracleCol{e.b, e.bc}))
	}
	var where []string
	for _, term := range st.terms {
		if term != nil {
			where = append(where, term.sql)
		}
	}
	if len(where) > 0 {
		b.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	if st.order >= 0 {
		b.WriteString(" ORDER BY " + st.colName(st.cols[st.order]))
		if st.desc {
			b.WriteString(" DESC")
		}
	}
	if st.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", st.limit)
	}
	return b.String()
}

// randomStmt draws a shape, a predicate per table with probability 1/2, a
// projection of one to five columns, and an optional ORDER BY and LIMIT.
func randomStmt(rng *rand.Rand, schema map[string]*Schema) oracleStmt {
	st := oracleStmt{shape: oracleShapes[rng.Intn(len(oracleShapes))], order: -1, limit: -1, schema: schema}
	var all []oracleCol
	for ti, name := range st.shape.tables {
		st.terms = append(st.terms, nil)
		if terms := oracleTerms[name]; rng.Intn(2) == 0 {
			st.terms[ti] = &terms[rng.Intn(len(terms))]
		}
		for c := 0; c < schema[name].NumFields(); c++ {
			all = append(all, oracleCol{ti, c})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	st.cols = all[:1+rng.Intn(5)]
	if rng.Intn(2) == 0 {
		st.order, st.desc = rng.Intn(len(st.cols)), rng.Intn(2) == 0
	}
	if rng.Intn(3) == 0 {
		st.limit = rng.Intn(20)
	}
	return st
}

// reference evaluates st by nested loops over the tables' SELECT * rows:
// the projected rows, unordered and untrimmed, with each row's sort key.
func (st oracleStmt) reference(base map[string][][]Value) (rows []string, keys []Value) {
	bound := make([][]Value, len(st.shape.tables))
	var walk func(ti int)
	walk = func(ti int) {
		if ti == len(bound) {
			out := make([]Value, len(st.cols))
			for i, c := range st.cols {
				out[i] = bound[c.t][c.c]
			}
			rows = append(rows, fmt.Sprint(out))
			if st.order >= 0 {
				keys = append(keys, out[st.order])
			}
			return
		}
		for _, row := range base[st.shape.tables[ti]] {
			if term := st.terms[ti]; term != nil && !term.eval(row) {
				continue
			}
			bound[ti] = row
			if st.joined(bound[:ti+1]) {
				walk(ti + 1)
			}
		}
	}
	walk(0)
	return rows, keys
}

// joined reports whether the rows bound so far, the last one just bound,
// satisfy every edge that names the last table and an earlier one.
func (st oracleStmt) joined(bound [][]Value) bool {
	ti := len(bound) - 1
	for _, e := range st.shape.edges {
		if max(e.a, e.b) == ti && tuple.Compare(bound[e.a][e.ac], bound[e.b][e.bc]) != 0 {
			return false
		}
	}
	return true
}

// checkOracle reports how got departs from the reference: multiset-equal
// rows, sorted on the ORDER BY column, and under LIMIT k a sub-multiset
// of k rows whose keys are the reference's first k.
func (st oracleStmt) checkOracle(got [][]Value, want []string, keys []Value) error {
	count := map[string]int{}
	for _, r := range want {
		count[r]++
	}
	n := len(want)
	if st.limit >= 0 && st.limit < n {
		n = st.limit
	}
	if len(got) != n {
		return fmt.Errorf("%d rows, want %d", len(got), n)
	}
	for i, r := range got {
		s := fmt.Sprint(r)
		if count[s] == 0 {
			return fmt.Errorf("row %d %s not in the reference (or returned too often)", i, s)
		}
		count[s]--
	}
	if st.order < 0 {
		return nil
	}
	sort.SliceStable(keys, func(i, j int) bool {
		c := tuple.Compare(keys[i], keys[j])
		if st.desc {
			return c > 0
		}
		return c < 0
	})
	for i, r := range got {
		if tuple.Compare(r[st.order], keys[i]) != 0 {
			return fmt.Errorf("row %d sort key %v, want %v", i, r[st.order], keys[i])
		}
	}
	return nil
}

// TestSQLJoinOracle is the differential join oracle: seeded random two-
// and three-table joins with per-table predicates, ORDER BY and LIMIT,
// checked against a nested-loop evaluator over each table's rows, at
// widths 1 and 4 — with identical counters at both widths. The fixed
// statements first cover an unfiltered leaf larger than the 8-page grant,
// an empty probe leaf, a build side whose every row is filtered, and an ON
// clause naming a table joined later.
func TestSQLJoinOracle(t *testing.T) {
	dbs := []*Database{newLoweringDBWidth(t, 1), newLoweringDBWidth(t, 4)}
	schema := map[string]*Schema{}
	base := map[string][][]Value{}
	for _, name := range []string{"emp", "dept", "proj"} {
		rel, err := dbs[0].Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		schema[name] = rel.Schema()
		res, err := dbs[0].Query("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		base[name] = res.Values()
	}
	star := func(shape oracleShape, terms ...*oracleTerm) oracleStmt {
		st := oracleStmt{shape: shape, terms: terms, order: -1, limit: -1, schema: schema}
		for ti, name := range shape.tables {
			for c := 0; c < schema[name].NumFields(); c++ {
				st.cols = append(st.cols, oracleCol{ti, c})
			}
		}
		return st
	}
	none := oracleTerms["emp"][5]
	noDept := oracleTerms["dept"][3]
	stmts := []oracleStmt{
		star(oracleShapes[0], nil, nil),
		star(oracleShapes[0], &none, nil),
		star(oracleShapes[0], nil, &noDept),
		star(oracleShapes[4], nil, nil, nil),
		star(oracleShapes[4], nil, &noDept, nil),
		star(oracleShapes[6], nil, nil, nil),
		star(oracleShapes[8], nil, nil, nil),
	}
	rng := rand.New(rand.NewSource(29))
	n := 200
	if testing.Short() || raceEnabled {
		n = 40
	}
	for i := 0; i < n; i++ {
		stmts = append(stmts, randomStmt(rng, schema))
	}
	for _, st := range stmts {
		q := st.String()
		want, keys := st.reference(base)
		var counters []Counters
		for w, db := range dbs {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if err := st.checkOracle(res.Values(), want, keys); err != nil {
				t.Errorf("width %d: %s: %v", []int{1, 4}[w], q, err)
			}
			counters = append(counters, res.Counters)
		}
		if counters[0] != counters[1] {
			t.Errorf("%s: counters %v at width 1, %v at width 4", q, counters[0], counters[1])
		}
	}
}

// TestSQLJoinClassMerge: ON clauses that open two join classes and then
// join them into one return the nested-loop reference's rows, on four
// 10-row tables whose pad values never equal a k.
func TestSQLJoinClassMerge(t *testing.T) {
	db := MustOpen(Options{PageSize: 256, MemoryPages: 8})
	tables := []string{"a", "b", "c", "d"}
	schema := map[string]*Schema{}
	base := map[string][][]Value{}
	for _, name := range tables {
		rel, err := db.CreateRelation(name, MustSchema(Field{Name: "k", Kind: Int64}, Field{Name: "pad", Kind: Int64}))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 10; i++ {
			row := []Value{IntValue(i), IntValue(100 + i)}
			if err := rel.Insert(row...); err != nil {
				t.Fatal(err)
			}
			base[name] = append(base[name], row)
		}
		if err := rel.Flush(); err != nil {
			t.Fatal(err)
		}
		schema[name] = rel.Schema()
	}
	for _, c := range []struct {
		edges []oracleEdge
		rows  int
	}{
		// a JOIN b ON a.k = b.k JOIN c ON c.k = d.k JOIN d ON b.k = c.k
		{[]oracleEdge{{0, 0, 1, 0}, {2, 0, 3, 0}, {1, 0, 2, 0}}, 10},
		// a JOIN b ON a.k = b.k JOIN c ON c.pad = d.pad JOIN d ON c.pad = b.k
		{[]oracleEdge{{0, 0, 1, 0}, {2, 1, 3, 1}, {2, 1, 1, 0}}, 0},
	} {
		st := oracleStmt{
			shape: oracleShape{tables, c.edges},
			terms: make([]*oracleTerm, len(tables)),
			cols:  []oracleCol{{0, 0}, {1, 0}, {2, 0}, {3, 0}},
			order: -1, limit: -1, schema: schema,
		}
		q := st.String()
		want, keys := st.reference(base)
		if len(want) != c.rows {
			t.Fatalf("%s: reference has %d rows, want %d", q, len(want), c.rows)
		}
		res, err := db.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if err := st.checkOracle(res.Values(), want, keys); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

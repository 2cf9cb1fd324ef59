package sql

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// mustSelect parses src and returns the SELECT or fails the test.
func mustSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", src, stmt)
	}
	return s
}

// TestParseSelectShapes covers the docs/SQL.md §3.1 clause structure.
func TestParseSelectShapes(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM emp WHERE salary >= 50000 ORDER BY salary DESC LIMIT 10;")
	if !s.Star || len(s.From) != 1 || s.From[0].Name != "emp" {
		t.Fatalf("star/from wrong: %+v", s)
	}
	if s.Where == nil || s.OrderBy == nil || !s.Desc || s.Limit != 10 {
		t.Fatalf("clauses wrong: %+v", s)
	}

	s = mustSelect(t, "select id, emp.name from emp")
	if s.Star || len(s.Items) != 2 {
		t.Fatalf("items wrong: %+v", s)
	}
	if s.Items[0].Col.String() != "id" || s.Items[1].Col.String() != "emp.name" {
		t.Fatalf("col refs wrong: %+v, %+v", s.Items[0].Col, s.Items[1].Col)
	}
	if s.Limit != -1 {
		t.Fatalf("absent LIMIT should be -1, got %d", s.Limit)
	}

	// ASC is accepted and is the default.
	s = mustSelect(t, "SELECT id FROM emp ORDER BY id ASC")
	if s.Desc {
		t.Fatal("ASC parsed as Desc")
	}
}

// TestParseJoins covers the §3.1 JOIN ... ON chain.
func TestParseJoins(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.y = c.z")
	if len(s.From) != 3 || len(s.Joins) != 2 {
		t.Fatalf("join chain wrong: from=%d joins=%d", len(s.From), len(s.Joins))
	}
	if s.Joins[0].Left.String() != "a.x" || s.Joins[0].Right.String() != "b.y" {
		t.Fatalf("first join wrong: %+v", s.Joins[0])
	}
	if s.Joins[1].Left.String() != "b.y" || s.Joins[1].Right.String() != "c.z" {
		t.Fatalf("second join wrong: %+v", s.Joins[1])
	}
}

// TestParseAggregates covers §3.1.1: contextual aggregate names, COUNT(*).
func TestParseAggregates(t *testing.T) {
	s := mustSelect(t, "SELECT dept, count(*), Sum(salary), MIN(salary), max(salary), avg(salary) FROM emp GROUP BY dept")
	if len(s.Items) != 6 {
		t.Fatalf("want 6 items, got %d", len(s.Items))
	}
	if s.Items[0].Col == nil || s.Items[0].Col.Name != "dept" {
		t.Fatalf("item 0 not plain dept: %+v", s.Items[0])
	}
	wantAgg := []string{"COUNT(*)", "SUM(salary)", "MIN(salary)", "MAX(salary)", "AVG(salary)"}
	for i, w := range wantAgg {
		a := s.Items[i+1].Agg
		if a == nil || a.String() != w {
			t.Fatalf("item %d: got %v, want %s", i+1, a, w)
		}
	}
	if s.GroupBy == nil || s.GroupBy.Name != "dept" {
		t.Fatalf("GROUP BY wrong: %+v", s.GroupBy)
	}

	// §2.2: aggregate names are not reserved — usable as a column.
	s = mustSelect(t, "SELECT count FROM emp")
	if s.Items[0].Col == nil || s.Items[0].Col.Name != "count" {
		t.Fatalf("column named count misparsed: %+v", s.Items[0])
	}
}

// TestParsePredicates covers §3.4 precedence: NOT > AND > OR.
func TestParsePredicates(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM emp WHERE a = 1 OR b = 2 AND NOT c = 3")
	or, ok := s.Where.(*OrExpr)
	if !ok {
		t.Fatalf("top is %T, want OR", s.Where)
	}
	if _, ok := or.L.(*CmpExpr); !ok {
		t.Fatalf("OR left is %T, want comparison", or.L)
	}
	and, ok := or.R.(*AndExpr)
	if !ok {
		t.Fatalf("OR right is %T, want AND", or.R)
	}
	if _, ok := and.R.(*NotExpr); !ok {
		t.Fatalf("AND right is %T, want NOT", and.R)
	}

	// Parentheses regroup.
	s = mustSelect(t, "SELECT * FROM emp WHERE (a = 1 OR b = 2) AND c = 3")
	if _, ok := s.Where.(*AndExpr); !ok {
		t.Fatalf("parenthesized top is %T, want AND", s.Where)
	}
}

// TestParseLiterals covers §2.4: negatives, floats, doubled-quote escapes, <> and
// operator canonicalization.
func TestParseLiterals(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM emp WHERE a = -5 AND b = 2.5 AND c = 'O''Brien' AND d <> -0.25")
	and := s.Where.(*AndExpr)
	leaves := []*CmpExpr{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case *AndExpr:
			walk(e.L)
			walk(e.R)
		case *CmpExpr:
			leaves = append(leaves, e)
		}
	}
	walk(and)
	if len(leaves) != 4 {
		t.Fatalf("want 4 leaves, got %d", len(leaves))
	}
	if leaves[0].Lit.Kind != LitInt || leaves[0].Lit.I != -5 {
		t.Fatalf("leaf 0: %+v", leaves[0].Lit)
	}
	if leaves[1].Lit.Kind != LitFloat || leaves[1].Lit.F != 2.5 {
		t.Fatalf("leaf 1: %+v", leaves[1].Lit)
	}
	if leaves[2].Lit.Kind != LitString || leaves[2].Lit.S != "O'Brien" {
		t.Fatalf("leaf 2: %+v", leaves[2].Lit)
	}
	if leaves[3].Op != "!=" || leaves[3].Lit.F != -0.25 {
		t.Fatalf("leaf 3 (<> canonicalization): %+v", leaves[3])
	}
}

// TestParseIntLiteralBounds: both ends of int64 parse (§2.4: a literal
// must fit int64, and math.MinInt64's magnitude alone does not).
func TestParseIntLiteralBounds(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM emp WHERE a >= -9223372036854775808 AND a <= 9223372036854775807")
	and := s.Where.(*AndExpr)
	if lo, hi := and.L.(*CmpExpr).Lit.I, and.R.(*CmpExpr).Lit.I; lo != math.MinInt64 || hi != math.MaxInt64 {
		t.Fatalf("bounds parsed as %d, %d", lo, hi)
	}
}

// TestParseInsert covers §3.2.
func TestParseInsert(t *testing.T) {
	stmt, err := Parse("INSERT INTO emp VALUES (1, 10, 52000), (2, 20, 61000)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table.Name != "emp" || ins.Cols != nil || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("insert wrong: %+v", ins)
	}

	stmt, err = Parse("insert into emp (salary, id, dept) values (52000, 3, 10)")
	if err != nil {
		t.Fatal(err)
	}
	ins = stmt.(*InsertStmt)
	if len(ins.Cols) != 3 || ins.Cols[0].Name != "salary" {
		t.Fatalf("column list wrong: %+v", ins.Cols)
	}
}

// TestParseDelete covers §3.3.
func TestParseDelete(t *testing.T) {
	stmt, err := Parse("DELETE FROM emp WHERE dept = 20 AND salary < 40000")
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*DeleteStmt)
	if del.Table.Name != "emp" || del.Where == nil {
		t.Fatalf("delete wrong: %+v", del)
	}
	stmt, err = Parse("DELETE FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DeleteStmt).Where != nil {
		t.Fatal("bare DELETE should have nil Where")
	}
}

// TestParseErrors covers the §7.1/§7.2 examples from docs/SQL.md.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		code Code
		frag string // substring of the message
	}{
		// §7.1 lexical
		{"SELECT * FROM emp WHERE name = 'unterminated", ErrLex, "unterminated"},
		{"SELECT #id FROM emp", ErrLex, "illegal character"},
		{"SELECT * FROM emp LIMIT 99999999999999999999", ErrLex, "overflows"},
		{"SELECT * FROM emp WHERE a = 9223372036854775808", ErrLex, "overflows"},
		{"SELECT * FROM emp WHERE a = -9223372036854775809", ErrLex, "overflows"},
		{"SELECT * FROM emp WHERE a ! 1", ErrLex, "stray"},
		// §7.2 syntax
		{"SELECT FROM emp", ErrSyntax, "expected"},
		{"SELECT * FROM emp WHERE", ErrSyntax, "expected"},
		{"SELECT SUM(*) FROM emp", ErrSyntax, "only COUNT(*)"},
		{"SELECT * FROM emp; extra", ErrSyntax, "after end of statement"},
		{"SELECT FOO(id) FROM emp", ErrSyntax, "unknown aggregate"},
		{"UPDATE emp", ErrSyntax, "expected SELECT"},
		{"SELECT * FROM emp WHERE a = -'x'", ErrSyntax, "'-' must be followed"},
		{"SELECT * FROM emp LIMIT x", ErrSyntax, "non-negative integer"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): no error, want %v", c.src, c.code)
			continue
		}
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q): error %T is not *sql.Error", c.src, err)
			continue
		}
		if se.Code != c.code {
			t.Errorf("Parse(%q): code %v, want %v (msg %q)", c.src, se.Code, c.code, se.Msg)
		}
		if !strings.Contains(se.Msg, c.frag) {
			t.Errorf("Parse(%q): msg %q missing %q", c.src, se.Msg, c.frag)
		}
		if se.Pos < 0 || se.Pos > len(c.src) {
			t.Errorf("Parse(%q): pos %d out of range", c.src, se.Pos)
		}
		// §7: the rendered message cites the taxonomy section.
		if !strings.Contains(se.Error(), "SQL.md §7.") {
			t.Errorf("Parse(%q): rendered error %q lacks section cite", c.src, se.Error())
		}
	}
}

// TestIsSelect: routers and the client's idempotence guard treat only
// SELECTs as reads — everything else, including text that is not SQL, is
// conservatively a write. (FuzzParse checks the sniff against the parser
// on every statement the parser accepts.)
func TestIsSelect(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM emp",
		"SELECT COUNT(*) FROM emp WHERE id > 3",
		"  select id from emp order by id",
		"\r\n\tSeLeCt*FROM emp",
		"SELECT",
		"SELECT FROM WHERE", // malformed, but still cannot mutate
	} {
		if !IsSelect(src) {
			t.Errorf("%q classified as a write", src)
		}
	}
	for _, src := range []string{
		"INSERT INTO emp VALUES (1, 2)",
		"DELETE FROM emp WHERE id = 1",
		"UPDATE emp SET salary = 0 WHERE id = 1",
		"CREATE TABLE t (x INT)",
		"DROP TABLE t",
		"garbage that does not parse",
		"",
		"   ",
		"SELEC",
		"SELECTED FROM emp",
		"select_1",
		"(SELECT 1)",
		"; SELECT 1",
	} {
		if IsSelect(src) {
			t.Errorf("%q classified as safe to retry", src)
		}
	}
}

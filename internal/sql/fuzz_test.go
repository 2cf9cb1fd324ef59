package sql

import (
	"errors"
	"testing"
)

// FuzzParse checks that arbitrary input never panics the front door and
// that every rejection is a typed *Error with a taxonomy code and an
// in-range position. The corpus seeds are the docs/SQL.md §1 examples
// plus the §7 rejection examples; CI runs this as a short -fuzztime
// smoke (see .github/workflows/ci.yml).
func FuzzParse(f *testing.F) {
	seeds := []string{
		// §1 examples
		"SELECT * FROM emp WHERE salary >= 50000 ORDER BY salary DESC LIMIT 10;",
		"SELECT emp.id, dept.budget FROM emp JOIN dept ON emp.dept = dept.id",
		"SELECT dept, COUNT(*), SUM(salary), MIN(salary), MAX(salary) FROM emp GROUP BY dept ORDER BY dept",
		"SELECT dept FROM emp GROUP BY dept",
		"SELECT COUNT(*), AVG(salary) FROM emp",
		"INSERT INTO emp VALUES (1, 10, 52000), (2, 20, 61000)",
		"INSERT INTO emp (salary, id, dept) VALUES (52000, 3, 10)",
		"DELETE FROM emp WHERE dept = 20 AND salary < 40000",
		// §2.4 literal corners
		"SELECT * FROM t WHERE s = 'O''Brien' AND f = -2.5 AND i <> -9",
		// §7 rejections
		"SELECT * FROM emp WHERE name = 'unterminated",
		"SELECT #id FROM emp",
		"SELECT SUM(*) FROM emp",
		"SELECT * FROM emp; extra",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := newTestCatalog()
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%q): %T is not *sql.Error", src, err)
			}
			if se.Code < ErrLex || se.Code > ErrUnsupported {
				t.Fatalf("Parse(%q): code %d out of taxonomy", src, se.Code)
			}
			if se.Pos < 0 || se.Pos > len(src) {
				t.Fatalf("Parse(%q): pos %d out of [0,%d]", src, se.Pos, len(src))
			}
			return
		}
		if stmt == nil {
			t.Fatalf("Parse(%q): nil statement without error", src)
		}
		// The keyword sniff routers trust must agree with the parser: a
		// statement that can mutate is never classified as a read.
		if _, sel := stmt.(*SelectStmt); sel != IsSelect(src) {
			t.Fatalf("IsSelect(%q) = %v, but it parsed as %T", src, !sel, stmt)
		}
		// Binding a parseable statement must also never panic, and
		// must reject (if it rejects) with a typed error.
		if _, err := Bind(stmt, cat); err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("Bind(%q): %T is not *sql.Error", src, err)
			}
		}
	})
}

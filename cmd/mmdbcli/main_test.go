package main

import (
	"os"
	"path/filepath"
	"testing"

	"mmdb"
)

func must(t *testing.T, db *mmdb.Database, line string) {
	t.Helper()
	if err := dispatch(db, line); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
}

func TestDispatchWorkflow(t *testing.T) {
	db := mmdb.MustOpen(mmdb.Options{})
	must(t, db, `\demo 500`)
	must(t, db, `\relations`)
	must(t, db, `\index emp id btree`)
	must(t, db, `\hist emp salary`)
	for _, q := range []string{
		"SELECT * FROM emp LIMIT 2",
		"SELECT * FROM emp WHERE id = 42",
		"SELECT id FROM emp WHERE id >= 490 ORDER BY id LIMIT 5",
		"SELECT emp.id, label FROM emp JOIN dept ON emp.dept = dept.id LIMIT 3",
		"SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept",
		"SELECT dept FROM emp GROUP BY dept",
		"SELECT * FROM emp WHERE salary >= 40000 LIMIT 2;",
		"INSERT INTO dept VALUES (8, 'dept-8')",
		"DELETE FROM dept WHERE id = 8",
	} {
		must(t, db, q)
	}
	must(t, db, `\counters`)
	must(t, db, `\reset`)

	csv := filepath.Join(t.TempDir(), "emp.csv")
	must(t, db, `\export emp `+csv)
	if _, err := os.Stat(csv); err != nil {
		t.Fatal(err)
	}
	must(t, db, `\import emp `+csv)
	rel, err := db.Relation("emp")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumTuples() != 1000 {
		t.Fatalf("after re-import: %d tuples", rel.NumTuples())
	}

	if err := dispatch(db, `\q`); err != errQuit {
		t.Fatalf(`\q returned %v`, err)
	}
}

func TestDispatchErrors(t *testing.T) {
	db := mmdb.MustOpen(mmdb.Options{})
	must(t, db, `\demo 10`)
	for _, line := range []string{
		`\bogus`,
		`\demo 1 2`,
		`\demo many`,
		`\index emp id`,
		`\hist emp`,
		`\export emp`,
		`\import emp /no/such/file.csv`,
		`\import missing x.csv`,
		"SELEC * FROM emp",
		"SELECT * FROM missing",
		"SELECT nope FROM emp",
		"INSERT INTO emp VALUES (1, 2)",
	} {
		if err := dispatch(db, line); err == nil {
			t.Errorf("%q accepted", line)
		}
	}
}

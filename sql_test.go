package mmdb

import (
	"errors"
	"testing"

	sqlfront "mmdb/internal/sql"
)

// newSQLTestDB builds the docs/SQL.md running example: emp(id, dept,
// salary, name), dept(id, budget, city), proj(id, dept, hours) with
// small deterministic contents.
func newSQLTestDB(t *testing.T, opts Options) *Database {
	t.Helper()
	db := MustOpen(opts)
	emp, err := db.CreateRelation("emp", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "dept", Kind: Int64},
		Field{Name: "salary", Kind: Int64},
		Field{Name: "name", Kind: String, Size: 16},
	))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ada", "bob", "cyd", "dee", "eli", "fay", "gus", "hal"}
	for i := 0; i < 8; i++ {
		if err := emp.Insert(IntValue(int64(i+1)), IntValue(int64(i%3+1)),
			IntValue(int64(40000+1000*i)), StringValue(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := emp.Flush(); err != nil {
		t.Fatal(err)
	}
	dept, err := db.CreateRelation("dept", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "budget", Kind: Int64},
		Field{Name: "city", Kind: String, Size: 12},
	))
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"madison", "berkeley", "yorktown"}
	for i := 0; i < 3; i++ {
		if err := dept.Insert(IntValue(int64(i+1)), IntValue(int64(100*(i+1))), StringValue(cities[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := dept.Flush(); err != nil {
		t.Fatal(err)
	}
	proj, err := db.CreateRelation("proj", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "dept", Kind: Int64},
		Field{Name: "hours", Kind: Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := proj.Insert(IntValue(int64(i+1)), IntValue(int64(i%2+1)), IntValue(int64(10*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := proj.Flush(); err != nil {
		t.Fatal(err)
	}
	return db
}

func queryRows(t *testing.T, db *Database, q string) ([][]Value, *SQLResult) {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res.Values(), res
}

// TestSQLScan covers SQL.md §3.1 single-table SELECT with WHERE, ORDER
// BY (§3.6) and LIMIT (§3.7).
func TestSQLScan(t *testing.T) {
	db := newSQLTestDB(t, Options{})

	rows, res := queryRows(t, db, "SELECT * FROM emp")
	if len(rows) != 8 || res.Schema.NumFields() != 4 {
		t.Fatalf("rows=%d fields=%d", len(rows), res.Schema.NumFields())
	}
	if rows[0][3].S != "ada" {
		t.Fatalf("row 0 name = %q", rows[0][3].S)
	}

	rows, _ = queryRows(t, db, "SELECT id, name FROM emp WHERE salary >= 45000 ORDER BY salary DESC LIMIT 2")
	if len(rows) != 2 || rows[0][0].I != 8 || rows[1][0].I != 7 {
		t.Fatalf("top salaries wrong: %v", rows)
	}
	if rows[0][1].S != "hal" {
		t.Fatalf("projection wrong: %v", rows[0])
	}

	// ORDER BY a column not in the select list (§3.6, single table).
	rows, _ = queryRows(t, db, "SELECT name FROM emp ORDER BY salary LIMIT 1")
	if len(rows) != 1 || rows[0][0].S != "ada" {
		t.Fatalf("order by unprojected column: %v", rows)
	}

	// LIMIT without ORDER BY returns a scan-order prefix (§3.7).
	rows, _ = queryRows(t, db, "SELECT id FROM emp LIMIT 3")
	if len(rows) != 3 || rows[0][0].I != 1 || rows[2][0].I != 3 {
		t.Fatalf("scan prefix wrong: %v", rows)
	}

	// Single-table WHERE may use OR/NOT freely (§3.4).
	rows, _ = queryRows(t, db, "SELECT id FROM emp WHERE id = 1 OR NOT (salary < 47000)")
	if len(rows) != 2 || rows[0][0].I != 1 || rows[1][0].I != 8 {
		t.Fatalf("or/not wrong: %v", rows)
	}

	// String comparison (§2.4).
	rows, _ = queryRows(t, db, "SELECT id FROM emp WHERE name = 'cyd'")
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("string compare wrong: %v", rows)
	}
}

// TestSQLJoin covers §4 two-table joins: qualified star, pushed
// predicates, ORDER BY over the select list.
func TestSQLJoin(t *testing.T) {
	db := newSQLTestDB(t, Options{})

	rows, res := queryRows(t, db, "SELECT * FROM emp JOIN dept ON emp.dept = dept.id")
	if len(rows) != 8 || res.Schema.NumFields() != 7 {
		t.Fatalf("rows=%d fields=%d", len(rows), res.Schema.NumFields())
	}
	if res.Schema.Field(0).Name != "emp.id" || res.Schema.Field(4).Name != "dept.id" {
		t.Fatalf("star naming wrong: %v", res.Schema)
	}

	rows, _ = queryRows(t, db,
		"SELECT emp.id, city FROM emp JOIN dept ON emp.dept = dept.id WHERE budget >= 200 AND salary < 46000 ORDER BY emp.id")
	// depts 2,3 qualify; emps with salary<46000: ids 1..6 → dept 2: ids 2,5; dept 3: ids 3,6.
	want := [][2]any{{int64(2), "berkeley"}, {int64(3), "yorktown"}, {int64(5), "berkeley"}, {int64(6), "yorktown"}}
	if len(rows) != len(want) {
		t.Fatalf("join rows = %d, want %d: %v", len(rows), len(want), rows)
	}
	for i, w := range want {
		if rows[i][0].I != w[0].(int64) || rows[i][1].S != w[1].(string) {
			t.Fatalf("join row %d = %v, want %v", i, rows[i], w)
		}
	}

	// DESC over the join output.
	rows, _ = queryRows(t, db,
		"SELECT emp.id FROM emp JOIN dept ON emp.dept = dept.id ORDER BY emp.id DESC LIMIT 3")
	if rows[0][0].I != 8 || rows[2][0].I != 6 {
		t.Fatalf("desc join order wrong: %v", rows)
	}
}

// TestSQLPlannedJoin covers a three-table join, whose first step the
// planner materializes.
func TestSQLPlannedJoin(t *testing.T) {
	db := newSQLTestDB(t, Options{})
	rows, _ := queryRows(t, db,
		"SELECT emp.id, proj.id, budget FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id ORDER BY emp.id")
	// proj depts: p1→1 p2→2 p3→1 p4→2; emp depts: e1→1 e2→2 e3→3 e4→1 e5→2 e6→3 e7→1 e8→2.
	// emps in dept 1 (1,4,7) × projs {1,3}; emps in dept 2 (2,5,8) × projs {2,4}. 12 rows.
	if len(rows) != 12 {
		t.Fatalf("planned join rows = %d, want 12: %v", len(rows), rows)
	}
	if rows[0][0].I != 1 || rows[0][2].I != 100 {
		t.Fatalf("first planned row wrong: %v", rows[0])
	}
	// Every emp id appears exactly twice, ascending.
	for i := 0; i < 12; i += 2 {
		if rows[i][0].I != rows[i+1][0].I {
			t.Fatalf("emp %d rows not adjacent: %v", i, rows)
		}
	}
	// The temporary plan output must not leak into the catalog.
	for _, name := range db.Relations() {
		if name != "emp" && name != "dept" && name != "proj" {
			t.Fatalf("leaked temporary relation %q", name)
		}
	}
}

// TestSQLGroupBy covers §3.5: grouped aggregates, the shared value
// column, key-sorted output, and the filtered (temp-materializing) path.
func TestSQLGroupBy(t *testing.T) {
	db := newSQLTestDB(t, Options{})

	rows, res := queryRows(t, db,
		"SELECT dept, COUNT(*), SUM(salary), MIN(salary), MAX(salary), AVG(salary) FROM emp GROUP BY dept")
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3: %v", len(rows), rows)
	}
	// Groups sorted ascending by key (§3.5): depts 1,2,3.
	// dept 1: emps 1,4,7 → salaries 40000,43000,46000.
	if rows[0][0].I != 1 || rows[0][1].I != 3 || rows[0][2].I != 129000 ||
		rows[0][3].I != 40000 || rows[0][4].I != 46000 || rows[0][5].F != 43000 {
		t.Fatalf("group 1 wrong: %v", rows[0])
	}
	if rows[2][0].I != 3 || rows[2][1].I != 2 {
		t.Fatalf("group 3 wrong: %v", rows[2])
	}
	if res.Schema.Field(5).Kind != Float64 {
		t.Fatalf("AVG output kind = %v, want float64", res.Schema.Field(5).Kind)
	}

	// WHERE + GROUP BY: the filtered-temp path; temp must not leak.
	rows, _ = queryRows(t, db, "SELECT dept, COUNT(*) FROM emp WHERE salary >= 43000 GROUP BY dept")
	// emps 4..8: depts 1(4,7→ids 4,7? salaries 43000(id4),46000(id7)),... ids 4,5,6,7,8 → depts 1,2,3,1,2.
	if len(rows) != 3 || rows[0][1].I != 2 || rows[1][1].I != 2 || rows[2][1].I != 1 {
		t.Fatalf("filtered groups wrong: %v", rows)
	}
	if len(db.Relations()) != 3 {
		t.Fatalf("temp leaked: %v", db.Relations())
	}

	// ORDER BY group DESC, LIMIT (§3.6).
	rows, _ = queryRows(t, db, "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept DESC LIMIT 2")
	if len(rows) != 2 || rows[0][0].I != 3 || rows[1][0].I != 2 {
		t.Fatalf("desc groups wrong: %v", rows)
	}
}

// TestSQLDistinct covers the §3.5.1 duplicate-elimination form.
func TestSQLDistinct(t *testing.T) {
	db := newSQLTestDB(t, Options{})
	rows, _ := queryRows(t, db, "SELECT dept FROM emp GROUP BY dept")
	if len(rows) != 3 || rows[0][0].I != 1 || rows[2][0].I != 3 {
		t.Fatalf("distinct wrong: %v", rows)
	}
	// Non-integer group column (string distinct), filtered.
	rows, _ = queryRows(t, db, "SELECT name FROM emp WHERE dept = 1 GROUP BY name ORDER BY name DESC")
	if len(rows) != 3 || rows[0][0].S != "gus" || rows[2][0].S != "ada" {
		t.Fatalf("string distinct wrong: %v", rows)
	}
}

// TestSQLGlobalAggregates covers §3.5.2's global form, including the
// zero-row case.
func TestSQLGlobalAggregates(t *testing.T) {
	db := newSQLTestDB(t, Options{})
	rows, res := queryRows(t, db, "SELECT COUNT(*), SUM(salary), MIN(id), MAX(salary), AVG(salary) FROM emp")
	if len(rows) != 1 {
		t.Fatalf("global agg rows = %d", len(rows))
	}
	r := rows[0]
	if r[0].I != 8 || r[1].I != 8*40000+1000*28 || r[2].I != 1 || r[3].I != 47000 || r[4].F != 43500 {
		t.Fatalf("global agg wrong: %v", r)
	}
	if res.Schema.Field(0).Name != "COUNT(*)" {
		t.Fatalf("agg output name = %q", res.Schema.Field(0).Name)
	}
	// Zero rows → zeros (no NULLs).
	rows, _ = queryRows(t, db, "SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100")
	if rows[0][0].I != 0 || rows[0][1].I != 0 {
		t.Fatalf("empty agg wrong: %v", rows[0])
	}
}

// TestSQLInsertDelete covers §3.2 and §3.3 end to end.
func TestSQLInsertDelete(t *testing.T) {
	db := newSQLTestDB(t, Options{})

	res, err := db.Query("INSERT INTO emp VALUES (9, 1, 50000, 'ivy'), (10, 2, 51000, 'joe')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 || res.Schema != nil {
		t.Fatalf("insert result wrong: %+v", res)
	}
	rows, _ := queryRows(t, db, "SELECT name FROM emp WHERE id >= 9 ORDER BY id")
	if len(rows) != 2 || rows[0][0].S != "ivy" || rows[1][0].S != "joe" {
		t.Fatalf("inserted rows wrong: %v", rows)
	}

	// Permuted column list (§3.2).
	if _, err := db.Query("INSERT INTO emp (name, salary, dept, id) VALUES ('kay', 52000, 3, 11)"); err != nil {
		t.Fatal(err)
	}
	rows, _ = queryRows(t, db, "SELECT salary FROM emp WHERE name = 'kay'")
	if len(rows) != 1 || rows[0][0].I != 52000 {
		t.Fatalf("permuted insert wrong: %v", rows)
	}

	res, err = db.Query("DELETE FROM emp WHERE id >= 9")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Fatalf("delete affected = %d, want 3", res.Affected)
	}
	rows, _ = queryRows(t, db, "SELECT COUNT(*) FROM emp")
	if rows[0][0].I != 8 {
		t.Fatalf("post-delete count = %v", rows[0])
	}

	// DELETE without WHERE empties the table (§3.3).
	res, err = db.Query("DELETE FROM proj")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 4 {
		t.Fatalf("delete all affected = %d", res.Affected)
	}
	rows, _ = queryRows(t, db, "SELECT COUNT(*) FROM proj")
	if rows[0][0].I != 0 {
		t.Fatalf("proj not emptied: %v", rows)
	}
}

// TestSQLErrorsSurfaceTyped checks that front-door rejections surface as
// *sql.Error through the engine API and leave the session usable.
func TestSQLErrorsSurfaceTyped(t *testing.T) {
	db := newSQLTestDB(t, Options{})
	s, err := db.NewSession(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Query("SELECT * FROM nonesuch")
	var se *sqlfront.Error
	if !errors.As(err, &se) || se.Code != sqlfront.ErrUnknownTable {
		t.Fatalf("err = %v, want unknown-table sql.Error", err)
	}
	// The session survives a failed statement.
	res, err := s.Query("SELECT COUNT(*) FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Values()[0][0].I != 8 {
		t.Fatalf("post-error query wrong: %v", res.Values())
	}
}

// TestSQLCountersDeterministic checks the §5 contract at the API level:
// the same statement on an identically built database charges
// bit-identical virtual counters, at any parallelism, with non-zero work.
func TestSQLCountersDeterministic(t *testing.T) {
	stmts := []string{
		"SELECT * FROM emp WHERE salary >= 43000 ORDER BY salary DESC LIMIT 3",
		"SELECT emp.id, budget FROM emp JOIN dept ON emp.dept = dept.id WHERE salary < 46000",
		"SELECT dept, COUNT(*), SUM(salary) FROM emp WHERE id <= 6 GROUP BY dept",
		"SELECT emp.id, proj.id FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id",
	}
	run := func(parallelism int) []Counters {
		db := newSQLTestDB(t, Options{Parallelism: parallelism})
		var out []Counters
		for _, q := range stmts {
			_, res := queryRows(t, db, q)
			out = append(out, res.Counters)
		}
		return out
	}
	a, b, c := run(1), run(1), run(4)
	for i := range stmts {
		if a[i] != b[i] {
			t.Errorf("stmt %d: counters differ across runs: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Errorf("stmt %d: counters differ across parallelism: %v vs %v", i, a[i], c[i])
		}
		if a[i] == (Counters{}) {
			t.Errorf("stmt %d: zero counters — work was not charged to the session clock", i)
		}
	}
}

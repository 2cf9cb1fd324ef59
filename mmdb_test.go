package mmdb

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mmdb/internal/join"
	"mmdb/internal/planner"
	sqlfront "mmdb/internal/sql"
)

func openTestDB(t *testing.T) *Database {
	t.Helper()
	db, err := Open(Options{PageSize: 512, MemoryPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func empSchema() *Schema {
	return MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "dept", Kind: Int64},
		Field{Name: "salary", Kind: Int64},
		Field{Name: "name", Kind: String, Size: 16},
	)
}

func deptSchema() *Schema {
	return MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "label", Kind: String, Size: 16},
	)
}

func loadCompany(t *testing.T, db *Database, nEmp, nDept int) (*Relation, *Relation) {
	t.Helper()
	emp, err := db.CreateRelation("emp", empSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nEmp; i++ {
		err := emp.Insert(
			IntValue(int64(i)),
			IntValue(int64(i%nDept)),
			IntValue(int64(1000+i%500)),
			StringValue(fmt.Sprintf("emp%d", i)),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := emp.Flush(); err != nil {
		t.Fatal(err)
	}
	dept, err := db.CreateRelation("dept", deptSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nDept; i++ {
		if err := dept.Insert(IntValue(int64(i)), StringValue(fmt.Sprintf("dept%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := dept.Flush(); err != nil {
		t.Fatal(err)
	}
	return emp, dept
}

// joinRun is what the tests compare of one join statement: its row
// count, counters and virtual time.
type joinRun struct {
	Matches  int64
	Counters Counters
	Elapsed  time.Duration
}

// empDeptJoin runs the tests' stock join, empDeptSQL, in a one-shot session, so its charge is in
// the database clock when it returns.
func empDeptJoin(db *Database) (joinRun, error) {
	res, err := db.Query(empDeptSQL)
	if err != nil {
		return joinRun{}, err
	}
	return joinRun{int64(len(res.Rows)), res.Counters, res.Elapsed}, nil
}

// viewJoin runs alg over left ⋈ right (left the build side) on session
// s's relation views, under its grant: the §3 operator a SQL join's plan
// runs as hybrid hash, with any algorithm.
func viewJoin(s *Session, alg join.Algorithm, left, right, leftCol, rightCol string, emit join.Emit) (join.Result, error) {
	rels, files, err := s.lockAndView(left, right)
	if err != nil {
		return join.Result{}, err
	}
	spec := s.joinSpec()
	spec.R, spec.S = files[0], files[1]
	spec.RCol = rels[0].Schema().FieldIndex(leftCol)
	spec.SCol = rels[1].Schema().FieldIndex(rightCol)
	return join.Run(alg, spec, emit)
}

// count runs a SQL SELECT and returns its row count.
func count(t *testing.T, db *Database, q string) int {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return len(res.Rows)
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{PageSize: 8}); err == nil {
		t.Error("tiny page accepted")
	}
	if _, err := Open(Options{MemoryPages: 1}); err == nil {
		t.Error("one-page memory accepted")
	}
	db := MustOpen(Options{})
	if db.Options().PageSize != 4096 || db.MemoryPages() != 1000 {
		t.Errorf("defaults %+v", db.Options())
	}
}

func TestRelationLifecycle(t *testing.T) {
	db := openTestDB(t)
	emp, _ := loadCompany(t, db, 100, 5)
	if emp.NumTuples() != 100 {
		t.Fatalf("tuples %d", emp.NumTuples())
	}
	if got := db.Relations(); len(got) != 2 {
		t.Fatalf("relations %v", got)
	}
	if _, err := db.Relation("emp"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("dept"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Relation("dept"); err == nil {
		t.Fatal("dropped relation still visible")
	}
}

func TestLookupViaIndexAndScan(t *testing.T) {
	db := openTestDB(t)
	emp, _ := loadCompany(t, db, 200, 5)

	// Unindexed lookup: charged sequential scan.
	db.ResetClock()
	rows, err := emp.Lookup("id", IntValue(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || emp.Schema().Get(rows[0], 3).S != "emp42" {
		t.Fatalf("lookup rows %v", rows)
	}
	if db.Counters().SeqIOs == 0 {
		t.Fatal("scan lookup charged no IO")
	}

	// Indexed lookups for both access methods.
	for _, kind := range []IndexKind{BTree, AVL} {
		db2 := openTestDB(t)
		e2, _ := loadCompany(t, db2, 200, 5)
		if err := e2.CreateIndex("id", kind); err != nil {
			t.Fatal(err)
		}
		rows, err := e2.Lookup("id", IntValue(42))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("%v: %d rows", kind, len(rows))
		}
	}
}

func TestAscendRange(t *testing.T) {
	db := openTestDB(t)
	emp, _ := loadCompany(t, db, 50, 5)
	if err := emp.AscendRange("id", IntValue(0), func(Tuple) bool { return true }); err == nil {
		t.Fatal("range scan without index succeeded")
	}
	if err := emp.CreateIndex("id", BTree); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	err := emp.AscendRange("id", IntValue(45), func(tp Tuple) bool {
		ids = append(ids, emp.Schema().Int(tp, 0))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 || ids[0] != 45 || ids[4] != 49 {
		t.Fatalf("range ids %v", ids)
	}
}

func TestJoinAllAlgorithmsAgree(t *testing.T) {
	db := openTestDB(t)
	loadCompany(t, db, 300, 7)
	want, err := empDeptJoin(db)
	if err != nil {
		t.Fatal(err)
	}
	if want.Matches != 300 {
		t.Fatalf("SQL join: %d matches, want 300", want.Matches)
	}
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.SimpleHash, join.GraceHash, join.HybridHash} {
		var res join.Result
		err := db.withSession(context.Background(), func(s *Session) (err error) {
			res, err = viewJoin(s, alg, "dept", "emp", "id", "dept", nil)
			return err
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Matches != want.Matches {
			t.Fatalf("%v: %d matches, want %d", alg, res.Matches, want.Matches)
		}
		if res.Algorithm != alg {
			t.Fatalf("asked for %v, ran %v", alg, res.Algorithm)
		}
	}
}

// TestJoinSwapsBuildSide: SQL builds on the smaller relation whichever
// side of the ON clause names it, and a row still lays out the FROM
// list's columns in the declared order.
func TestJoinSwapsBuildSide(t *testing.T) {
	db := openTestDB(t)
	loadCompany(t, db, 300, 7)
	for _, q := range []string{
		"SELECT * FROM emp JOIN dept ON emp.dept = dept.id",
		"SELECT * FROM emp JOIN dept ON dept.id = emp.dept",
	} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 300 {
			t.Fatalf("%s: %d rows, want 300", q, len(res.Rows))
		}
		for _, v := range res.Values() {
			// emp's dept equals dept's id, and emp's name is "emp<id>".
			if v[1].I != v[4].I || v[3].S != fmt.Sprintf("emp%d", v[0].I) {
				t.Fatalf("%s: row %v does not lay out (emp, dept)", q, v)
			}
		}
		// The build side is dept: one move per dept row into the table.
		if res.Counters.Moves != 7 {
			t.Fatalf("%s: %d moves, want 7 (dept built)", q, res.Counters.Moves)
		}
	}
}

func TestAggregateAndDistinct(t *testing.T) {
	db := openTestDB(t)
	loadCompany(t, db, 100, 4)
	res, err := db.Query("SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d groups", len(res.Rows))
	}
	var total int64
	for _, g := range res.Values() {
		total += g[1].I
		if avg := g[2].F; avg < 1000 || avg > 1500 {
			t.Fatalf("suspicious avg %f", avg)
		}
	}
	if total != 100 {
		t.Fatalf("group counts sum to %d", total)
	}
	if n := count(t, db, "SELECT dept FROM emp GROUP BY dept"); n != 4 {
		t.Fatalf("%d distinct depts", n)
	}
}

// bindSelect parses and binds one SQL SELECT against db's catalog.
func bindSelect(db *Database, text string) (*sqlfront.BoundSelect, error) {
	stmt, err := sqlfront.Parse(text)
	if err != nil {
		return nil, err
	}
	b, err := sqlfront.Bind(stmt, sqlCatalog{db.cat})
	if err != nil {
		return nil, err
	}
	return b.(*sqlfront.BoundSelect), nil
}

// boundSelect is bindSelect failing the test on error.
func boundSelect(t *testing.T, db *Database, text string) *sqlfront.BoundSelect {
	t.Helper()
	b, err := bindSelect(db, text)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// plannerQueryOf builds, in a session of its own, the planner query the
// lowering of SQL join text optimizes.
func plannerQueryOf(t *testing.T, db *Database, text string) planner.Query {
	t.Helper()
	b := boundSelect(t, db, text)
	var q planner.Query
	err := db.withSession(context.Background(), func(s *Session) (err error) {
		q, err = s.plannerQuery(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// hashPlan is the HashOnly plan the lowering of SQL join text executes.
func hashPlan(t *testing.T, db *Database, text string) *planner.Plan {
	t.Helper()
	p, err := planner.OptimizeHashOnly(plannerQueryOf(t, db, text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// empDeptSQL is the tests' stock join: emp ⋈ dept on emp.dept = dept.id.
const empDeptSQL = "SELECT * FROM emp JOIN dept ON emp.dept = dept.id"

func TestPlanAndExecute(t *testing.T) {
	db := MustOpen(Options{PageSize: 512, MemoryPages: 64})
	loadCompany(t, db, 400, 8)
	q := plannerQueryOf(t, db, empDeptSQL)
	full, err := planner.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := planner.OptimizeHashOnly(q)
	if err != nil {
		t.Fatal(err)
	}
	if hash.PlansConsidered >= full.PlansConsidered {
		t.Fatalf("no search reduction: %d vs %d", hash.PlansConsidered, full.PlansConsidered)
	}
	if n := count(t, db, empDeptSQL); n != 400 {
		t.Fatalf("join produced %d rows, want 400", n)
	}
}

func TestPlanWithFilter(t *testing.T) {
	db := MustOpen(Options{PageSize: 512, MemoryPages: 64})
	loadCompany(t, db, 400, 8)
	whole := hashPlan(t, db, empDeptSQL)
	filteredSQL := empDeptSQL + " WHERE emp.dept = 3" // one department
	if filtered := hashPlan(t, db, filteredSQL); filtered.CPU >= whole.CPU {
		t.Fatalf("selection did not cheapen the plan: CPU %g vs %g", filtered.CPU, whole.CPU)
	}
	if n := count(t, db, filteredSQL); n != 50 {
		t.Fatalf("filtered join produced %d rows, want 50", n)
	}
}

func TestRecoverySimFacade(t *testing.T) {
	sim, err := NewRecoverySim(RecoveryConfig{
		Accounts:  1000,
		Terminals: 20,
		Policy:    GroupCommit,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := sim.Run(2_000_000_000) // 2 s of virtual time
	if stats.TPS < 400 {
		t.Fatalf("group commit TPS %.1f unexpectedly low", stats.TPS)
	}
	committed, info, err := sim.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if committed == 0 || info.Redone == 0 {
		t.Fatalf("recovery saw nothing: %+v", info)
	}
	if int64(committed) < stats.Committed {
		t.Fatalf("recovery found %d commits, engine acked %d", committed, stats.Committed)
	}
}

func TestOrderByStreamsSorted(t *testing.T) {
	db := MustOpen(Options{PageSize: 512, MemoryPages: 4}) // tiny: forces run files
	rel, err := db.CreateRelation("n", MustSchema(
		Field{Name: "x", Kind: Int64},
		Field{Name: "pad", Kind: String, Size: 24},
	))
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		rel.Insert(IntValue(int64((i*7919)%n)), StringValue("p"))
	}
	rel.Flush()
	db.ResetClock()
	res, err := db.Query("SELECT x FROM n ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("streamed %d of %d", len(res.Rows), n)
	}
	got := res.Values()
	for i := 1; i < len(got); i++ {
		if got[i][0].I < got[i-1][0].I {
			t.Fatalf("out of order at %d: %d < %d", i, got[i][0].I, got[i-1][0].I)
		}
	}
	if db.Counters().SeqIOs == 0 {
		t.Fatal("external sort charged no run IO at 4 memory pages")
	}
	if _, err := db.Query("SELECT x FROM n ORDER BY nope"); err == nil {
		t.Fatal("bad column accepted")
	}
}

func TestPredicatesAndSelect(t *testing.T) {
	db := openTestDB(t)
	emp, _ := loadCompany(t, db, 200, 8)

	// Oracle by scan; the SQL WHERE and its negation agree with it.
	want := 0
	emp.Scan(func(tp Tuple) bool {
		if emp.Schema().Int(tp, 2) >= 1100 && emp.Schema().Int(tp, 1) == 3 {
			want++
		}
		return true
	})
	const p = "salary >= 1100 AND dept = 3"
	if got := count(t, db, "SELECT * FROM emp WHERE "+p); got != want || want == 0 {
		t.Fatalf("SQL matched %d, oracle %d", got, want)
	}
	if got := count(t, db, "SELECT * FROM emp WHERE NOT ("+p+")"); got != 200-want {
		t.Fatalf("NOT matched %d, want the complement %d", got, 200-want)
	}
}

func TestHistogramSelectivityDrivesPlanning(t *testing.T) {
	db := MustOpen(Options{PageSize: 512, MemoryPages: 64})
	loadCompany(t, db, 400, 8)
	if err := db.BuildHistogram("emp", "salary", 16); err != nil {
		t.Fatal(err)
	}
	emp, err := db.Relation("emp")
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(where string) float64 {
		return selectivity(emp.rel, boundSelect(t, db, "SELECT * FROM emp WHERE "+where).Preds[0])
	}
	// Salaries are 1000 + i%500: uniform over [1000,1500).
	if sel := estimate("salary >= 1300"); sel < 0.15 || sel > 0.35 {
		t.Fatalf("estimated selectivity %.3f, true ≈ 0.25", sel)
	}
	// Without a histogram the System R default (1/10 for =) applies.
	if sel := estimate("dept = 1"); sel != 0.1 {
		t.Fatalf("default Eq selectivity %.3f", sel)
	}

	// The planner consumes the histogram estimate: the filtered plan is
	// costed as cheaper than the whole join.
	const filteredSQL = "SELECT emp.id FROM emp JOIN dept ON emp.dept = dept.id WHERE salary >= 1300"
	whole := hashPlan(t, db, empDeptSQL)
	if filtered := hashPlan(t, db, filteredSQL); filtered.CPU >= whole.CPU {
		t.Fatalf("histogram estimate did not cheapen the plan: CPU %g vs %g", filtered.CPU, whole.CPU)
	}
	want := 0
	emp.Scan(func(tp Tuple) bool {
		if emp.Schema().Int(tp, 2) >= 1300 {
			want++
		}
		return true
	})
	if n := count(t, db, filteredSQL); n != want {
		t.Fatalf("filtered join produced %d rows, want %d", n, want)
	}
}

func TestDeleteAndUpdateMaintainIndexes(t *testing.T) {
	db := openTestDB(t)
	emp, _ := loadCompany(t, db, 120, 6)
	if err := emp.CreateIndex("id", BTree); err != nil {
		t.Fatal(err)
	}
	if err := emp.CreateIndex("dept", AVL); err != nil {
		t.Fatal(err)
	}

	// Delete one department (20 rows).
	res, err := db.Query("DELETE FROM emp WHERE dept = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 20 || emp.NumTuples() != 100 {
		t.Fatalf("removed %d, left %d", res.Affected, emp.NumTuples())
	}
	if rows, _ := emp.Lookup("dept", IntValue(3)); len(rows) != 0 {
		t.Fatalf("index still finds %d deleted rows", len(rows))
	}
	if rows, _ := emp.Lookup("id", IntValue(4)); len(rows) != 1 { // id 4 is in dept 4
		t.Fatalf("unrelated index entry lost: %d rows", len(rows))
	}

	// Rewrite a row's salary (DELETE then INSERT) and verify via the index.
	res, err = db.Query("DELETE FROM emp WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("deleted %d rows with id 7", res.Affected)
	}
	if _, err := db.Query("INSERT INTO emp VALUES (7, 1, 99999, 'emp7')"); err != nil {
		t.Fatal(err)
	}
	rows, err := emp.Lookup("id", IntValue(7))
	if err != nil || len(rows) != 1 {
		t.Fatalf("lookup after update: %v %d", err, len(rows))
	}
	if got := emp.Schema().Int(rows[0], 2); got != 99999 {
		t.Fatalf("salary %d after update", got)
	}

	// Missing columns rejected.
	if _, err := db.Query("DELETE FROM emp WHERE nope = 1"); err == nil {
		t.Fatal("bad delete column accepted")
	}
}

func TestRecoverySimVersionedReaders(t *testing.T) {
	mk := func(versioning bool) RecoveryStats {
		sim, err := NewRecoverySim(RecoveryConfig{
			Accounts:          64,
			Terminals:         20,
			ReadOnlyTerminals: 8,
			ReadAccounts:      64,
			ReadCPU:           2_000_000, // 2ms
			Versioning:        versioning,
			Policy:            GroupCommit,
			Seed:              3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(3_000_000_000) // 3 s virtual
	}
	locked := mk(false)
	versioned := mk(true)
	if locked.ReadTxns == 0 || versioned.ReadTxns == 0 {
		t.Fatalf("readers idle: %d / %d", locked.ReadTxns, versioned.ReadTxns)
	}
	if versioned.TPS <= locked.TPS {
		t.Fatalf("versioning writer TPS %.1f not above locking %.1f", versioned.TPS, locked.TPS)
	}
	if versioned.ReadTPS <= 0 {
		t.Fatalf("ReadTPS %.1f", versioned.ReadTPS)
	}
}

func TestVirtualClockAccounting(t *testing.T) {
	db := openTestDB(t)
	loadCompany(t, db, 300, 7)
	db.ResetClock()
	res, err := empDeptJoin(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != db.VirtualTime() {
		t.Fatalf("join elapsed %v but database clock %v", res.Elapsed, db.VirtualTime())
	}
	if res.Counters.Hashes == 0 {
		t.Fatal("hash join charged no hashes")
	}
}

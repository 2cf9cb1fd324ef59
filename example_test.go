package mmdb_test

import (
	"fmt"
	"time"

	"mmdb"
)

// Example builds a small database, joins two relations in SQL (planned
// as a hybrid hash join, the §4 choice) and counts a selection.
func Example() {
	db := mmdb.MustOpen(mmdb.Options{MemoryPages: 64})

	emp, _ := db.CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
	))
	for i := int64(0); i < 100; i++ {
		emp.Insert(mmdb.IntValue(i), mmdb.IntValue(i%4))
	}
	emp.Flush()

	dept, _ := db.CreateRelation("dept", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "name", Kind: mmdb.String, Size: 8},
	))
	for i := int64(0); i < 4; i++ {
		dept.Insert(mmdb.IntValue(i), mmdb.StringValue(fmt.Sprintf("d%d", i)))
	}
	dept.Flush()

	res, _ := db.Query("SELECT emp.id, name FROM emp JOIN dept ON emp.dept = dept.id")
	fmt.Printf("%d matches\n", len(res.Rows))

	sql, _ := db.Query("SELECT COUNT(*) FROM emp WHERE dept < 2")
	fmt.Println(sql.Values()[0][0], "employees in departments 0 and 1")
	// Output:
	// 100 matches
	// 50 employees in departments 0 and 1
}

// ExampleRelation_Lookup indexes a column with the paper's preferred
// access method and runs a point lookup.
func ExampleRelation_Lookup() {
	db := mmdb.MustOpen(mmdb.Options{})
	rel, _ := db.CreateRelation("kv", mmdb.MustSchema(
		mmdb.Field{Name: "k", Kind: mmdb.Int64},
		mmdb.Field{Name: "v", Kind: mmdb.String, Size: 8},
	))
	rel.Insert(mmdb.IntValue(1), mmdb.StringValue("one"))
	rel.Insert(mmdb.IntValue(2), mmdb.StringValue("two"))
	rel.Flush()
	rel.CreateIndex("k", mmdb.BTree)

	rows, _ := rel.Lookup("k", mmdb.IntValue(2))
	fmt.Println(rel.Schema().Format(rows[0]))
	// Output: [2 two]
}

// ExampleDatabase_Query deletes the rows a SQL WHERE selects.
func ExampleDatabase_Query() {
	db := mmdb.MustOpen(mmdb.Options{})
	rel, _ := db.CreateRelation("n", mmdb.MustSchema(mmdb.Field{Name: "x", Kind: mmdb.Int64}))
	for i := int64(0); i < 10; i++ {
		rel.Insert(mmdb.IntValue(i))
	}
	rel.Flush()

	lo, hi := "x >= 4", "x < 7"
	res, _ := db.Query("DELETE FROM n WHERE " + lo + " AND " + hi)
	fmt.Printf("(%s) AND (%s) -> %d rows deleted, %d left\n", lo, hi, res.Affected, rel.NumTuples())
	// Output: (x >= 4) AND (x < 7) -> 3 rows deleted, 7 left
}

// ExampleNewRecoverySim reproduces the paper's group-commit throughput
// claim in two lines: ~10x the one-log-write-per-commit bound.
func ExampleNewRecoverySim() {
	flush, _ := mmdb.NewRecoverySim(mmdb.RecoveryConfig{Policy: mmdb.FlushPerCommit, Seed: 1})
	group, _ := mmdb.NewRecoverySim(mmdb.RecoveryConfig{Policy: mmdb.GroupCommit, Seed: 1})
	a := flush.Run(5 * time.Second)
	b := group.Run(5 * time.Second)
	fmt.Printf("flush-per-commit ~%d tps, group commit ~%dx\n",
		int(a.TPS), int(b.TPS/a.TPS+0.5))
	// Output: flush-per-commit ~99 tps, group commit ~9x
}

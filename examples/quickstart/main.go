// Quickstart: create a database, load a relation, index it with §2's
// B+-tree, run a point query and a range through the index, then a join
// and an aggregate in SQL, and read the virtual-clock cost accounting.
package main

import (
	"fmt"
	"log"

	"mmdb"
)

func main() {
	db := mmdb.MustOpen(mmdb.Options{
		PageSize:    4096,
		MemoryPages: 256, // |M| = 1 MB of 4 KB pages for query operators
	})

	// A miniature employee/department schema, the paper's running example
	// ("retrieve (emp.salary) where emp.name = ...").
	emp, err := db.CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
		mmdb.Field{Name: "name", Kind: mmdb.String, Size: 16},
	))
	if err != nil {
		log.Fatal(err)
	}
	for i := int64(0); i < 10000; i++ {
		if err := emp.Insert(
			mmdb.IntValue(i),
			mmdb.IntValue(i%8),
			mmdb.IntValue(40000+(i*37)%30000),
			mmdb.StringValue(fmt.Sprintf("emp%05d", i)),
		); err != nil {
			log.Fatal(err)
		}
	}
	if err := emp.Flush(); err != nil {
		log.Fatal(err)
	}

	dept, err := db.CreateRelation("dept", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "label", Kind: mmdb.String, Size: 16},
	))
	if err != nil {
		log.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := dept.Insert(mmdb.IntValue(i), mmdb.StringValue(fmt.Sprintf("dept-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	if err := dept.Flush(); err != nil {
		log.Fatal(err)
	}

	// Index the key column with the B+-tree (the paper's recommendation):
	// a point query and a short range now probe it, fetching their rows by
	// address instead of scanning the table.
	if err := emp.CreateIndex("id", mmdb.BTree); err != nil {
		log.Fatal(err)
	}
	point, err := db.Query("SELECT * FROM emp WHERE id = 4242")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup id=4242  -> %s\n", point.Schema.Format(point.Rows[0]))

	rng, err := db.Query("SELECT id FROM emp WHERE id >= 9997")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("range id>=9997 -> ")
	for _, row := range rng.Values() {
		fmt.Printf("%d ", row[0].I)
	}
	fmt.Println()

	// Join in SQL: the planner lowers every join onto hybrid hash (§4: with
	// ample memory, the only algorithm worth planning for), and the result
	// reports what the statement charged.
	res, err := db.Query("SELECT emp.name, label FROM emp JOIN dept ON emp.dept = dept.id")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("join emp⋈dept   -> %d matches via hybrid-hash in %v of virtual time (%s)\n",
		len(res.Rows), res.Elapsed, res.Counters)

	// Grouped aggregate (§3.9): average salary per department.
	avg, err := db.Query("SELECT dept, AVG(salary), COUNT(*) FROM emp GROUP BY dept")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("avg salary per dept:")
	for _, row := range avg.Values() {
		fmt.Printf("  dept %v: %.0f over %d employees\n", row[0], row[1].F, row[2].I)
	}
}

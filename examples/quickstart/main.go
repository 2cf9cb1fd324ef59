// Quickstart: create a database, load a relation, index it both ways
// (§2's AVL and B+-tree), run lookups, a join on a session, and an
// aggregate in SQL, and read the virtual-clock cost accounting.
package main

import (
	"context"
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

	// Index the key column with the B+-tree (the paper's recommendation)
	// and run a point lookup plus a short range scan.
	if err := emp.CreateIndex("id", mmdb.BTree); err != nil {
		log.Fatal(err)
	}
	rows, err := emp.Lookup("id", mmdb.IntValue(4242))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup id=4242  -> %s\n", emp.Schema().Format(rows[0]))

	fmt.Print("range id>=9997 -> ")
	if err := emp.AscendRange("id", mmdb.IntValue(9997), func(t mmdb.Tuple) bool {
		fmt.Printf("%d ", emp.Schema().Int(t, 0))
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// Join with hybrid hash (§4: with ample memory, the only algorithm worth
	// planning for), on a session so the result reports what it charged.
	s, err := db.NewSession(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Join(mmdb.HybridHash, "emp", "dept", "dept", "id", nil)
	s.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("join emp⋈dept   -> %d matches via %v in %v of virtual time (%s)\n",
		res.Matches, res.Algorithm, res.Elapsed, res.Counters)

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

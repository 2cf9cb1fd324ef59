// Command mmdbcli is a SQL shell over the mmdb engine (docs/SQL.md), for
// poking at relations, indexes, the §3 operators and the virtual-clock
// accounting.
//
//	$ go run ./cmd/mmdbcli [-parallel N]
//	mmdb> \demo 10000
//	mmdb> SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept
//	mmdb> SELECT emp.name, label FROM emp JOIN dept ON emp.dept = dept.id LIMIT 3
//	mmdb> \counters
//
// Each line is one SQL statement, or a meta command:
//
//	\demo [N]                 load emp(N rows, default 10000) and dept(8)
//	\relations                list relations
//	\index REL COL btree|avl  build an index
//	\hist REL COL             build a 16-bucket histogram for estimates
//	\export REL FILE          dump a relation as CSV (with header)
//	\import REL FILE          load CSV rows (with header) into REL
//	\counters                 virtual clock + operation counters
//	\reset                    reset the virtual clock
//	\q                        quit
//
// -parallel sets the worker count for the parallel join and aggregation
// operators (1 = serial, -1 = GOMAXPROCS); the virtual-clock numbers the
// shell prints are identical at every setting.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mmdb"
)

func main() {
	par := flag.Int("parallel", 1, "worker goroutines for join/aggregate operators (1 = serial, -1 = GOMAXPROCS)")
	flag.Parse()
	db := mmdb.MustOpen(mmdb.Options{Parallelism: *par})
	fmt.Println(`mmdb SQL shell — one statement per line; \demo loads sample data, \q quits`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("mmdb> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := dispatch(db, line); err != nil {
			if err == errQuit {
				return
			}
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

// dispatch runs one input line: a meta command when it starts with a
// backslash, a SQL statement otherwise.
func dispatch(db *mmdb.Database, line string) error {
	if !strings.HasPrefix(line, `\`) {
		return query(db, line)
	}
	args := strings.Fields(line)
	arity := func(n int, usage string) error {
		if len(args) != n {
			return fmt.Errorf("usage: %s %s", args[0], usage)
		}
		return nil
	}
	switch args[0] {
	case `\q`:
		return errQuit
	case `\demo`:
		if len(args) > 2 {
			return fmt.Errorf(`usage: \demo [N]`)
		}
		n := 10000
		if len(args) == 2 {
			v, err := strconv.Atoi(args[1])
			if err != nil {
				return err
			}
			n = v
		}
		return loadDemo(db, n)
	case `\relations`:
		for _, name := range db.Relations() {
			rel, err := db.Relation(name)
			if err != nil {
				return err
			}
			fmt.Printf("  %-12s %8d tuples %6d pages  %v\n", name, rel.NumTuples(), rel.NumPages(), rel.Schema())
		}
		return nil
	case `\index`:
		if err := arity(4, "REL COL btree|avl"); err != nil {
			return err
		}
		rel, err := db.Relation(args[1])
		if err != nil {
			return err
		}
		kind := mmdb.BTree
		if args[3] == "avl" {
			kind = mmdb.AVL
		}
		return rel.CreateIndex(args[2], kind)
	case `\hist`:
		if err := arity(3, "REL COL"); err != nil {
			return err
		}
		return db.BuildHistogram(args[1], args[2], 16)
	case `\export`:
		if err := arity(3, "REL FILE"); err != nil {
			return err
		}
		rel, err := db.Relation(args[1])
		if err != nil {
			return err
		}
		f, err := os.Create(args[2])
		if err != nil {
			return err
		}
		defer f.Close()
		return rel.ExportCSV(f, true)
	case `\import`:
		if err := arity(3, "REL FILE"); err != nil {
			return err
		}
		rel, err := db.Relation(args[1])
		if err != nil {
			return err
		}
		f, err := os.Open(args[2])
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := rel.ImportCSV(f, true)
		if err != nil {
			return err
		}
		fmt.Printf("  imported %d rows\n", n)
		return nil
	case `\counters`:
		fmt.Printf("  virtual time %v, %s\n", db.VirtualTime(), db.Counters())
		return nil
	case `\reset`:
		db.ResetClock()
		return nil
	default:
		return fmt.Errorf(`unknown meta command %q (\demo \relations \index \hist \export \import \counters \reset \q)`, args[0])
	}
}

// query runs one SQL statement, printing a SELECT's rows and every
// statement's virtual-clock charge.
func query(db *mmdb.Database, text string) error {
	res, err := db.Query(text)
	if err != nil {
		return err
	}
	if res.Schema == nil {
		fmt.Printf("  %d rows affected\n", res.Affected)
		return nil
	}
	names := make([]string, res.Schema.NumFields())
	for i := range names {
		names[i] = res.Schema.Field(i).Name
	}
	fmt.Printf("  %s\n", strings.Join(names, " | "))
	for _, row := range res.Rows {
		fmt.Println(" ", res.Schema.Format(row))
	}
	fmt.Printf("  (%d rows in %v virtual: %s)\n", len(res.Rows), res.Elapsed, res.Counters)
	return nil
}

func loadDemo(db *mmdb.Database, n int) error {
	emp, err := db.CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
		mmdb.Field{Name: "name", Kind: mmdb.String, Size: 16},
	))
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		err := emp.Insert(
			mmdb.IntValue(int64(i)),
			mmdb.IntValue(int64(i%8)),
			mmdb.IntValue(int64(40000+(i*37)%30000)),
			mmdb.StringValue(fmt.Sprintf("emp%05d", i)),
		)
		if err != nil {
			return err
		}
	}
	if err := emp.Flush(); err != nil {
		return err
	}
	dept, err := db.CreateRelation("dept", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "label", Kind: mmdb.String, Size: 16},
	))
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if err := dept.Insert(mmdb.IntValue(int64(i)), mmdb.StringValue(fmt.Sprintf("dept-%d", i))); err != nil {
			return err
		}
	}
	if err := dept.Flush(); err != nil {
		return err
	}
	fmt.Printf("  loaded emp(%d) and dept(8)\n", n)
	return nil
}

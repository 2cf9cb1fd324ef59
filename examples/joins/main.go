// Joins: a Figure-1-style face-off of the four §3 join algorithms on one
// workload across a sweep of memory sizes, each join on a session of its
// own. The virtual clock uses the paper's Table 2 device and CPU times, so
// the printed seconds are comparable to the paper's curves.
package main

import (
	"context"
	"fmt"
	"log"

	"mmdb"
)

func main() {
	const (
		rTuples = 40000 // 1000 pages of 40 tuples — 1/10 of Table 2
		sTuples = 40000
	)

	algorithms := []mmdb.JoinAlgorithm{
		mmdb.SortMerge, mmdb.SimpleHash, mmdb.GraceHash, mmdb.HybridHash,
	}
	memories := []int{60, 120, 240, 480, 960, 1200}

	fmt.Println("join algorithm comparison (virtual seconds, Table 2 hardware)")
	fmt.Printf("%-8s %-9s", "|M|", "ratio")
	for _, a := range algorithms {
		fmt.Printf(" %12v", a)
	}
	fmt.Println()

	for _, m := range memories {
		db := mmdb.MustOpen(mmdb.Options{MemoryPages: m})
		load(db, "R", rTuples, 1)
		load(db, "S", sTuples, 2)
		ratio := float64(m) / (1000 * 1.2)
		fmt.Printf("%-8d %-9.3f", m, ratio)
		for _, a := range algorithms {
			s, err := db.NewSession(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			res, err := s.Join(a, "R", "S", "key", "key", nil)
			s.Close()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %12.1f", res.Elapsed.Seconds())
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape (paper §3.8): hybrid at or near the top throughout;")
	fmt.Println("simple hash collapses at small memory; grace flat; sort-merge flat and")
	fmt.Println("always beaten by hashing above |M| = sqrt(|S|*F).")
}

// load creates a relation of n 100-byte tuples with int64 keys drawn from
// [0, n): the Table 2 tuple shape.
func load(db *mmdb.Database, name string, n int, seed int64) {
	rel, err := db.CreateRelation(name, mmdb.MustSchema(
		mmdb.Field{Name: "key", Kind: mmdb.Int64},
		mmdb.Field{Name: "pad", Kind: mmdb.String, Size: 92},
	))
	if err != nil {
		log.Fatal(err)
	}
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i < n; i++ {
		x = x*2862933555777941757 + 3037000493
		key := int64(x % uint64(n))
		if err := rel.Insert(mmdb.IntValue(key), mmdb.StringValue("x")); err != nil {
			log.Fatal(err)
		}
	}
	if err := rel.Flush(); err != nil {
		log.Fatal(err)
	}
}

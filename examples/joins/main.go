// Joins: a Figure-1-style face-off of the four §3 join algorithms on one
// workload across a sweep of memory sizes. SQL only ever plans hybrid
// hash (§4), so the example drives the operators themselves, as
// `mmdbench -exp figure1` does: heap files on a simulated disk, joined by
// join.Run under a session memory grant. The virtual clock uses the
// paper's Table 2 device and CPU times, so the printed seconds are
// comparable to the paper's curves.
package main

import (
	"context"
	"fmt"
	"log"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/join"
	"mmdb/internal/session"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

func main() {
	const (
		rTuples = 40000 // 1000 pages of 40 tuples — 1/10 of Table 2
		sTuples = 40000
	)

	algorithms := []join.Algorithm{
		join.SortMerge, join.SimpleHash, join.GraceHash, join.HybridHash,
	}
	memories := []int{60, 120, 240, 480, 960, 1200}

	params := cost.DefaultParams()
	disk := simio.NewDisk(cost.NewClock(params), 4096)
	r := load(disk, "R", rTuples, 1)
	s := load(disk, "S", sTuples, 2)

	fmt.Println("join algorithm comparison (virtual seconds, Table 2 hardware)")
	fmt.Printf("%-8s %-9s", "|M|", "ratio")
	for _, a := range algorithms {
		fmt.Printf(" %12v", a)
	}
	fmt.Println()

	for _, m := range memories {
		ratio := float64(m) / (1000 * 1.2)
		fmt.Printf("%-8d %-9.3f", m, ratio)
		broker := session.NewUnreservedBroker(m, 1)
		for _, a := range algorithms {
			// A live grant, as a database session holds: hybrid hash
			// watches it and finishes GRACE-style when its resident
			// partition outgrows the grant.
			g, err := broker.ReserveGrant(context.Background(), session.Batch, 0)
			if err != nil {
				log.Fatal(err)
			}
			res, err := join.Run(a, join.Spec{R: r, S: s, M: g.Pages(), F: params.F, LiveM: g.Pages}, nil)
			g.Release()
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

// load creates a heap file of n 100-byte tuples with int64 keys drawn
// from [0, n): the Table 2 tuple shape. Loading is uncharged.
func load(disk *simio.Disk, name string, n int, seed int64) *heap.File {
	schema := tuple.MustSchema(
		tuple.Field{Name: "key", Kind: tuple.Int64},
		tuple.Field{Name: "pad", Kind: tuple.String, Size: 92},
	)
	rows := make([]tuple.Tuple, n)
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := range rows {
		x = x*2862933555777941757 + 3037000493
		rows[i] = schema.MustEncode(tuple.IntValue(int64(x%uint64(n))), tuple.StringValue("x"))
	}
	f := heap.MustCreate(disk, name, schema)
	if err := f.Load(rows); err != nil {
		log.Fatal(err)
	}
	return f
}

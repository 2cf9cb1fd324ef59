// Banking: a star-schema analytics session on the public API — load
// transfers and branch/teller dimensions, run a three-way join with a
// selective predicate in SQL (planned by the §4 hash-only planner, the
// selection pushed below every join), and total the result per branch.
package main

import (
	"fmt"
	"log"
	"sort"

	"mmdb"
)

func main() {
	db := mmdb.MustOpen(mmdb.Options{MemoryPages: 2000})

	// Fact table: transfers(branch, teller, amount).
	transfers, err := db.CreateRelation("transfers", mmdb.MustSchema(
		mmdb.Field{Name: "branch", Kind: mmdb.Int64},
		mmdb.Field{Name: "teller", Kind: mmdb.Int64},
		mmdb.Field{Name: "amount", Kind: mmdb.Int64},
	))
	if err != nil {
		log.Fatal(err)
	}
	x := uint64(99)
	const nTransfers = 50000
	for i := 0; i < nTransfers; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if err := transfers.Insert(
			mmdb.IntValue(int64(x>>33%50)),
			mmdb.IntValue(int64(x>>17%500)),
			mmdb.IntValue(int64(x%10000)),
		); err != nil {
			log.Fatal(err)
		}
	}
	must(transfers.Flush())

	branches, err := db.CreateRelation("branches", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "city", Kind: mmdb.String, Size: 12},
	))
	must(err)
	for i := int64(0); i < 50; i++ {
		must(branches.Insert(mmdb.IntValue(i), mmdb.StringValue(fmt.Sprintf("city%02d", i%10))))
	}
	must(branches.Flush())

	tellers, err := db.CreateRelation("tellers", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "desk", Kind: mmdb.String, Size: 8},
	))
	must(err)
	for i := int64(0); i < 500; i++ {
		must(tellers.Insert(mmdb.IntValue(i), mmdb.StringValue("desk")))
	}
	must(tellers.Flush())

	// transfers ⋈ branches ⋈ tellers, with a selective predicate on
	// branches (only city05).
	result, err := db.Query(`SELECT transfers.branch, transfers.amount FROM transfers
		JOIN branches ON transfers.branch = branches.id
		JOIN tellers ON transfers.teller = tellers.id
		WHERE branches.city = 'city05'`)
	must(err)
	fmt.Printf("executed plan produced %d rows\n", len(result.Rows))

	// Total amount per branch. The dialect has no GROUP BY over a join
	// (docs/SQL.md §3.5), so fold the joined rows here.
	count, total := map[int64]int64{}, map[int64]int64{}
	for _, row := range result.Values() {
		count[row[0].I]++
		total[row[0].I] += row[1].I
	}
	keys := make([]int64, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fmt.Printf("transfer totals for the selected city's branches (%d branches):\n", len(keys))
	for _, k := range keys {
		fmt.Printf("  branch %d: %d transfers totalling %d\n", k, count[k], total[k])
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

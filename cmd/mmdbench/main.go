// Command mmdbench regenerates the tables and figures of "Implementation
// Techniques for Main Memory Database Systems" (SIGMOD 1984). It is a
// loop over the table of experiments in internal/experiments: run, print,
// rewrite the experiment's committed BENCH_*.json if it has one, and exit
// non-zero when an invariant broke. A committed file holds only
// quantities that reproduce byte for byte on any host, so after any run
// `git diff --exit-code -- 'BENCH_*.json'` is a regression check.
//
// Usage (TestUsageNamesTheTable keeps this list equal to the table):
//
//	mmdbench -exp all                 # everything (EXPERIMENTS.md source)
//	mmdbench -exp table2              # parameter settings
//	mmdbench -exp table1              # §2 AVL vs B+-tree crossover
//	mmdbench -exp figure1             # §3 join algorithm comparison
//	mmdbench -exp figure1 -full       # also execute at full Table 2 scale (slow)
//	mmdbench -exp table3              # §3.8 sensitivity sweep
//	mmdbench -exp agg                 # §3.9 aggregates/projection
//	mmdbench -exp planner             # §4 planning reduction
//	mmdbench -exp recovery            # §5 throughput ladder; BENCH_recovery.json
//	mmdbench -exp checkpoint          # §5.3/§5.5 checkpoint sweep
//	mmdbench -exp ablation            # design-choice ablations
//	mmdbench -exp priority            # priority-class admission ladder (stdout only)
//	mmdbench -exp sort -parallel 8    # parallel external sort ladder; BENCH_sort.json
//	mmdbench -exp wire -clients 8     # SQL-over-TCP serving ladder; BENCH_wire.json
//	mmdbench -exp repl                # LSN-shipping replication ladder; BENCH_repl.json
//	mmdbench -exp failover            # promotion/failover chaos ladder (stdout only)
//	mmdbench -exp chaos               # fault-plane chaos ladder; BENCH_chaos.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mmdb/internal/experiments"
)

// expFlag registers -exp on fs. Its help is generated from the table:
// "all" and every entry's name.
func expFlag(fs *flag.FlagSet, table []experiments.Experiment) *string {
	names := []string{"all"}
	for _, e := range table {
		names = append(names, e.Name)
	}
	return fs.String("exp", "all", "experiment: "+strings.Join(names, "|"))
}

// writeJSON is the one writer of committed BENCH files.
func writeJSON(path string, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	table := experiments.Table(flag.CommandLine)
	exp := expFlag(flag.CommandLine, table)
	flag.Parse()

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "mmdbench: %s: %v\n", name, err)
		os.Exit(1)
	}
	ran := false
	for _, e := range table {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		ran = true
		report, err := e.Run(os.Stdout)
		if report != nil && e.File != "" {
			if werr := writeJSON(e.File, report); werr != nil {
				fail(e.Name, werr)
			}
			fmt.Printf("wrote %s\n", e.File)
		}
		if err != nil {
			fail(e.Name, err)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "mmdbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

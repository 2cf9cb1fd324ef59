// Command mmdbench regenerates the tables and figures of "Implementation
// Techniques for Main Memory Database Systems" (SIGMOD 1984).
//
// Usage:
//
//	mmdbench -exp all                 # everything (EXPERIMENTS.md source)
//	mmdbench -exp table1              # §2 AVL vs B+-tree crossover
//	mmdbench -exp table2              # parameter settings
//	mmdbench -exp figure1             # §3 join algorithm comparison
//	mmdbench -exp figure1 -full       # also execute at full Table 2 scale (slow)
//	mmdbench -exp table3              # §3.8 sensitivity sweep
//	mmdbench -exp agg                 # §3.9 aggregates/projection
//	mmdbench -exp planner             # §4 planning reduction
//	mmdbench -exp recovery            # §5 throughput ladder
//	mmdbench -exp checkpoint          # §5.3/§5.5 checkpoint sweep
//	mmdbench -exp concurrency -clients 8   # multi-client contention ladder
//	mmdbench -exp priority            # priority-class admission ladder
//	mmdbench -exp sort -parallel 8    # parallel external sort ladder
//	mmdbench -exp chaos               # fault-plane chaos ladder
//	mmdbench -exp wire -clients 8     # SQL-over-TCP serving ladder
//	mmdbench -exp repl                # LSN-shipping replication ladder
//	mmdbench -exp failover            # promotion/failover chaos ladder
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mmdb/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|table1|table2|figure1|table3|agg|planner|recovery|checkpoint|ablation|concurrency|priority|sort|chaos|wire|repl|failover")
	full := flag.Bool("full", false, "figure1: execute the operators at full Table 2 scale (minutes of wall time)")
	dur := flag.Duration("dur", 10*time.Second, "recovery: virtual run length per configuration")
	par := flag.Int("parallel", 1, "worker goroutines for executed join operators (1 = serial, -1 = GOMAXPROCS); virtual times are identical, wall time shrinks")
	clients := flag.Int("clients", 8, "concurrency/wire: top of the client ladder (runs 1,2,4,...,N)")
	tuples := flag.Int("tuples", 0, "sort: relation size override (0 = the defaults); use a small value for smoke runs")
	slots := flag.Int("slots", 8, "concurrency/wire: MaxConcurrentQueries, held fixed across the ladder")
	queue := flag.Int("queue", 64, "concurrency/wire: admission queue depth")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "mmdbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table2", func() error {
		experiments.PrintTable2(os.Stdout)
		return nil
	})
	run("table1", func() error {
		res, err := experiments.RunTable1(experiments.DefaultTable1Config())
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return nil
	})
	run("figure1", func() error {
		cfg := experiments.DefaultFigure1Config()
		if *full {
			cfg.ScaleDiv = 1
		}
		cfg.Parallelism = *par
		res, err := experiments.RunFigure1(cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return nil
	})
	run("table3", func() error {
		res, err := experiments.RunTable3()
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return nil
	})
	run("agg", func() error {
		res, err := experiments.RunAgg()
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return nil
	})
	run("planner", func() error {
		res, err := experiments.RunPlanner()
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return nil
	})
	run("recovery", func() error {
		res, err := experiments.RunRecoveryLadder(*dur)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		fmt.Println()
		scale, err := experiments.RunRecoveryScale(experiments.DefaultRecoveryScaleConfig())
		if err != nil {
			return err
		}
		scale.Print(os.Stdout)
		if err := scale.WriteJSON("BENCH_recovery.json"); err != nil {
			return err
		}
		fmt.Println("wrote BENCH_recovery.json")
		if !scale.AllHold {
			return fmt.Errorf("recovery scale ladder failed: cross-width counter drift or a flatness/growth bar missed (see BENCH_recovery.json)")
		}
		return nil
	})
	run("checkpoint", func() error {
		res, err := experiments.RunCheckpointSweep(3 * time.Second)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return nil
	})
	run("ablation", func() error {
		res, err := experiments.RunAblations()
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return nil
	})
	run("concurrency", func() error {
		cfg := experiments.DefaultConcurrencyConfig()
		cfg.Slots = *slots
		cfg.QueueDepth = *queue
		cfg.Clients = nil
		for c := 1; c < *clients; c *= 2 {
			cfg.Clients = append(cfg.Clients, c)
		}
		cfg.Clients = append(cfg.Clients, *clients)
		res, err := experiments.RunConcurrency(cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return res.WriteJSON("BENCH_concurrency.json")
	})
	run("priority", func() error {
		cfg := experiments.DefaultPriorityConfig()
		res, err := experiments.RunPriority(cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return res.WriteJSON("BENCH_priority.json")
	})
	run("sort", func() error {
		cfg := experiments.DefaultSortConfig()
		if *par > 1 {
			cfg.Widths = nil
			for w := 1; w < *par; w *= 2 {
				cfg.Widths = append(cfg.Widths, w)
			}
			cfg.Widths = append(cfg.Widths, *par)
		}
		if *tuples > 0 {
			cfg.Tuples = *tuples
			cfg.RefTuples = *tuples / 20
			if cfg.RefTuples < 10 {
				cfg.RefTuples = 10
			}
		}
		res, err := experiments.RunSort(cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		if err := res.WriteJSON("BENCH_sort.json"); err != nil {
			return err
		}
		if !res.AllIdentical {
			return fmt.Errorf("sort ladder: virtual counters differed across parallelism widths (see BENCH_sort.json)")
		}
		return nil
	})
	run("wire", func() error {
		cfg := experiments.DefaultWireConfig()
		cfg.Slots = *slots
		cfg.QueueDepth = *queue
		cfg.Clients = nil
		for c := 1; c < *clients; c *= 2 {
			cfg.Clients = append(cfg.Clients, c)
		}
		cfg.Clients = append(cfg.Clients, *clients)
		res, err := experiments.RunWire(cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		if err := res.WriteJSON("BENCH_wire.json"); err != nil {
			return err
		}
		if !res.AllIdentical {
			return fmt.Errorf("wire ladder: virtual counters differed across connection counts (see BENCH_wire.json)")
		}
		return nil
	})
	run("repl", func() error {
		cfg := experiments.DefaultReplConfig()
		if *tuples > 0 {
			cfg.ClusterRows = *tuples
		}
		res, err := experiments.RunRepl(cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		if err := res.WriteJSON("BENCH_repl.json"); err != nil {
			return err
		}
		if !res.AllHold {
			return fmt.Errorf("repl ladder: a replica diverged from the primary's committed prefix, counters drifted across widths, or stall fallback failed (see BENCH_repl.json)")
		}
		return nil
	})
	run("failover", func() error {
		cfg := experiments.DefaultFailoverConfig()
		if *tuples > 0 {
			cfg.Rows = *tuples
		}
		res, err := experiments.RunFailover(cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		if err := res.WriteJSON("BENCH_failover.json"); err != nil {
			return err
		}
		if !res.AllHold {
			return fmt.Errorf("failover ladder: an acked write was lost, a replica diverged after rejoin, state drifted across widths, or a lost tail went untyped (see BENCH_failover.json)")
		}
		return nil
	})
	run("chaos", func() error {
		res, err := experiments.RunChaos(experiments.DefaultChaosConfig())
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		if err := res.WriteJSON("BENCH_chaos.json"); err != nil {
			return err
		}
		if !res.AllHold {
			return fmt.Errorf("chaos ladder: invariants violated (see BENCH_chaos.json)")
		}
		return nil
	})
}

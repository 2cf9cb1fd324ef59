package experiments

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"
)

// Experiment is one row of the table mmdbench loops over.
type Experiment struct {
	Name string
	// File is the committed BENCH_*.json the experiment rewrites, or ""
	// for an experiment that only prints. The rule for a committed file
	// is one line: it holds only quantities that reproduce byte for byte
	// on any host. Wall-clock figures therefore live on stdout, and the
	// ladders whose results depend on the goroutine schedule (priority,
	// failover) print, gate, and write nothing.
	File string
	// Run executes the experiment at the size the flags ask for and
	// prints its report to w. It returns the value to marshal into File
	// and a non-nil error when the experiment could not run or one of
	// its invariants broke; a broken invariant still returns the report,
	// so the file shows what failed.
	Run func(w io.Writer) (any, error)
}

// printer is what every experiment's result type is.
type printer interface{ Print(io.Writer) }

// printed is the tail of every experiment without an invariant gate.
func printed(w io.Writer, res printer, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	res.Print(w)
	return res, nil
}

// gated is the tail of every ladder with one: print, then turn a broken
// invariant into the error mmdbench exits non-zero on.
func gated(w io.Writer, res printer, holds bool, broken string) (any, error) {
	res.Print(w)
	if !holds {
		return res, errors.New(broken)
	}
	return res, nil
}

// ladder doubles from 1 up to and including top: 1,2,4,…,top.
func ladder(top int) []int {
	var rungs []int
	for n := 1; n < top; n *= 2 {
		rungs = append(rungs, n)
	}
	return append(rungs, top)
}

// Table registers the experiments' size flags on fs and returns every
// experiment in `-exp all` order. The Run functions read the flags when
// called, so fs must be parsed first.
func Table(fs *flag.FlagSet) []Experiment {
	full := fs.Bool("full", false, "figure1: execute the operators at full Table 2 scale (minutes of wall time)")
	dur := fs.Duration("dur", 10*time.Second, "recovery: virtual run length per configuration")
	par := fs.Int("parallel", 1, "worker goroutines for executed join operators (1 = serial, -1 = GOMAXPROCS); virtual times are identical, wall time shrinks")
	clients := fs.Int("clients", 8, "wire: top of the client ladder (runs 1,2,4,...,N)")
	tuples := fs.Int("tuples", 0, "sort/repl/failover: relation size override (0 = the defaults); use a small value for smoke runs")
	slots := fs.Int("slots", 8, "wire: MaxConcurrentQueries, held fixed across the ladder")
	queue := fs.Int("queue", 64, "wire: admission queue depth")

	return []Experiment{
		{Name: "table2", Run: func(w io.Writer) (any, error) {
			PrintTable2(w)
			return nil, nil
		}},
		{Name: "table1", Run: func(w io.Writer) (any, error) {
			res, err := RunTable1(DefaultTable1Config())
			return printed(w, res, err)
		}},
		{Name: "figure1", Run: func(w io.Writer) (any, error) {
			cfg := DefaultFigure1Config()
			if *full {
				cfg.ScaleDiv = 1
			}
			cfg.Parallelism = *par
			res, err := RunFigure1(cfg)
			return printed(w, res, err)
		}},
		{Name: "table3", Run: func(w io.Writer) (any, error) {
			res, err := RunTable3()
			return printed(w, res, err)
		}},
		{Name: "agg", Run: func(w io.Writer) (any, error) {
			res, err := RunAgg()
			return printed(w, res, err)
		}},
		{Name: "planner", Run: func(w io.Writer) (any, error) {
			res, err := RunPlanner()
			return printed(w, res, err)
		}},
		{Name: "recovery", File: "BENCH_recovery.json", Run: func(w io.Writer) (any, error) {
			res, err := RunRecoveryLadder(*dur)
			if err != nil {
				return nil, err
			}
			res.Print(w)
			fmt.Fprintln(w)
			scale, err := RunRecoveryScale(DefaultRecoveryScaleConfig())
			if err != nil {
				return nil, err
			}
			return gated(w, scale, scale.AllHold, "recovery scale ladder failed: cross-width counter drift or a flatness/growth bar missed")
		}},
		{Name: "checkpoint", Run: func(w io.Writer) (any, error) {
			res, err := RunCheckpointSweep(3 * time.Second)
			return printed(w, res, err)
		}},
		{Name: "ablation", Run: func(w io.Writer) (any, error) {
			res, err := RunAblations()
			return printed(w, res, err)
		}},
		{Name: "priority", Run: func(w io.Writer) (any, error) {
			res, err := RunPriority(DefaultPriorityConfig())
			if err != nil {
				return nil, err
			}
			return gated(w, res, res.AllIdentical, "priority ladder: a rung's virtual counters differed from the serial run")
		}},
		{Name: "sort", File: "BENCH_sort.json", Run: func(w io.Writer) (any, error) {
			cfg := DefaultSortConfig()
			if *par > 1 {
				cfg.Widths = ladder(*par)
			}
			if *tuples > 0 {
				cfg.Tuples = *tuples
				cfg.RefTuples = max(*tuples/20, 10)
			}
			res, err := RunSort(cfg)
			if err != nil {
				return nil, err
			}
			return gated(w, res, res.AllIdentical, "sort ladder: virtual counters differed across parallelism widths")
		}},
		{Name: "wire", File: "BENCH_wire.json", Run: func(w io.Writer) (any, error) {
			cfg := DefaultWireConfig()
			cfg.Slots = *slots
			cfg.QueueDepth = *queue
			cfg.Clients = ladder(*clients)
			res, err := RunWire(cfg)
			if err != nil {
				return nil, err
			}
			return gated(w, res, res.AllIdentical, "wire ladder: virtual counters differed across connection counts")
		}},
		{Name: "repl", File: "BENCH_repl.json", Run: func(w io.Writer) (any, error) {
			cfg := DefaultReplConfig()
			if *tuples > 0 {
				cfg.ClusterRows = *tuples
			}
			res, err := RunRepl(cfg)
			if err != nil {
				return nil, err
			}
			return gated(w, res, res.AllHold, "repl ladder: a replica diverged from the primary's committed prefix, counters drifted across widths, or stall fallback failed")
		}},
		{Name: "failover", Run: func(w io.Writer) (any, error) {
			cfg := DefaultFailoverConfig()
			if *tuples > 0 {
				cfg.Rows = *tuples
			}
			res, err := RunFailover(cfg)
			if err != nil {
				return nil, err
			}
			return gated(w, res, res.AllHold, "failover ladder: an acked write was lost, a replica diverged after rejoin, state drifted across widths, or a lost tail went untyped")
		}},
		{Name: "chaos", File: "BENCH_chaos.json", Run: func(w io.Writer) (any, error) {
			res, err := RunChaos(DefaultChaosConfig())
			if err != nil {
				return nil, err
			}
			return gated(w, res, res.AllHold, "chaos ladder: invariants violated")
		}},
	}
}

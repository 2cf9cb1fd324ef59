// Command bench is the repository's wall-clock benchmark: four
// workloads, end-to-end metrics measured with tracing off, and a
// separate traced pass that times each layer from outside through its
// public functions. See README.md beside this file.
//
//	bash bench/run.sh                       # every workload, both passes
//	bash bench/run.sh -workload point_read -trace 0 -seed 7
//	bash bench/run.sh -repeat 2             # two sets, self-compared
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is what one pass needs to know. Scale shrinks the tables
// for the smoke tests; the command always runs at 1.
type runConfig struct {
	Seed    int64
	Seconds int
	Scale   float64
	OutDir  string
}

func (c runConfig) dur() time.Duration { return time.Duration(c.Seconds) * time.Second }

func main() {
	var (
		cfg       = runConfig{Scale: 1}
		workload  = flag.String("workload", "", "run one workload and print its result line (default: all of them, both passes)")
		trace     = flag.Int("trace", -1, "0: end-to-end pass, tracing off; 1: traced per-layer pass (default: both)")
		repeat    = flag.Int("repeat", 1, "run this many full sets and compare each later set with the first")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments, the first being the base")
		readTrace = flag.String("readtrace", "", "print the per-layer timings a trace file holds")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the data and statement generators")
	flag.IntVar(&cfg.Seconds, "seconds", runSeconds, "seconds each pass measures")
	flag.StringVar(&cfg.OutDir, "outdir", filepath.Join("bench", "out"), "directory for result and trace files (scratch)")
	flag.Parse()

	var err error
	switch {
	case *printMan:
		var b []byte
		if b, err = manifest(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two result files, the base first")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *readTrace != "":
		var spans []span
		if spans, err = readTraceFile(*readTrace); err == nil {
			err = printJSON(spanMetrics(spans))
		}
	case cfg.Seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	case *trace < -1 || *trace > 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case *workload != "":
		err = runOne(cfg, *workload, *trace)
	default:
		err = runSets(cfg, *trace, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runPass runs one pass of one workload: the end-to-end measurement
// with tracing off, or the traced per-layer pass.
func runPass(cfg runConfig, w workloadDef, trace int) (*workloadReport, error) {
	switch {
	case w.Name == "txn_recover" && trace == 0:
		return runTxn(cfg, w)
	case w.Name == "txn_recover":
		return traceTxn(cfg, w)
	case trace == 0:
		return runSQL(cfg, w)
	default:
		return traceSQL(cfg, w)
	}
}

// runOne is the benchmark contract's invocation: one workload, one
// pass, the result object last on standard output.
func runOne(cfg runConfig, name string, trace int) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace < 0 {
		trace = 0
	}
	wr, err := runPass(cfg, w, trace)
	if err != nil {
		return err
	}
	rep := &report{Envelope: newEnvelope(cfg), Workloads: []*workloadReport{wr}}
	if err := writeJSONFile(filepath.Join(cfg.OutDir, fmt.Sprintf("%s-trace%d.json", w.Name, trace)), rep); err != nil {
		return err
	}
	defs, got := endToEnd, wr.EndToEnd
	if trace == 1 {
		defs, got = perLayer, wr.PerLayer
	}
	line, err := resultLine(wr, defs, got)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !wr.Correct {
		return fmt.Errorf("%s: %d of %d operations failed: %s", w.Name, wr.Failed, wr.Attempted, wr.FirstErr)
	}
	return nil
}

// runSets runs every workload repeat times over, writes each set's
// document, compares each later set with the first and prints the last
// set's document as the last line.
func runSets(cfg runConfig, trace, repeat int) error {
	var sets []*report
	for i := 1; i <= repeat; i++ {
		rep, err := runSet(cfg, trace)
		if err != nil {
			return err
		}
		name := "result.json"
		if repeat > 1 {
			name = fmt.Sprintf("result-%d.json", i)
		}
		path := filepath.Join(cfg.OutDir, name)
		if err := writeJSONFile(path, rep); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "bench: wrote", path)
		sets = append(sets, rep)
	}
	bad := 0
	for _, rep := range sets[1:] {
		bad += compareReports(os.Stdout, sets[0], rep)
	}
	last := sets[len(sets)-1]
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	for _, w := range last.Workloads {
		if w.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed: %s", w.Name, w.Failed, w.Attempted, w.FirstErr)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics worse than the first set beyond their bound, or exact counts drifted", bad)
	}
	return nil
}

// runSet runs every workload, both passes unless trace picks one, and
// prints each metric by name and unit as it goes.
func runSet(cfg runConfig, trace int) (*report, error) {
	rep := &report{Envelope: newEnvelope(cfg)}
	for _, warning := range rep.Envelope.Warnings {
		fmt.Fprintln(os.Stderr, "bench: warning:", warning)
	}
	for _, w := range workloads {
		var merged *workloadReport
		for pass := 0; pass <= 1; pass++ {
			if trace >= 0 && trace != pass {
				continue
			}
			fmt.Fprintf(os.Stderr, "bench: %s, trace %d, %ds\n", w.Name, pass, cfg.Seconds)
			wr, err := runPass(cfg, w, pass)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			if merged == nil {
				merged = wr
				continue
			}
			merged.PerLayer, merged.TraceFile = wr.PerLayer, wr.TraceFile
			merged.Attempted += wr.Attempted
			merged.fail(wr.Failed, errors.New(wr.FirstErr))
		}
		printMetrics(merged)
		rep.Workloads = append(rep.Workloads, merged)
	}
	return rep, nil
}

func printMetrics(wr *workloadReport) {
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d\n", wr.Name, wr.Attempted, wr.Failed)
	for _, group := range []map[string]metric{wr.EndToEnd, wr.PerLayer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group[name]
			if m.Note == notExercised {
				continue
			}
			note := ""
			if m.Note != "" {
				note = "  (" + m.Note + ")"
			}
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-6s%s\n", name, m.Value, m.Unit, note)
		}
	}
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

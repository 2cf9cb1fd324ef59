package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func compareFiles(basePath, otherPath string) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	other, err := loadReport(otherPath)
	if err != nil {
		return err
	}
	if bad := compareReports(os.Stdout, base, other); bad > 0 {
		return fmt.Errorf("%d metrics worse than the base beyond their bound, or exact counts drifted", bad)
	}
	return nil
}

// spread is a metric's own window spread as a share of its value: the
// noise floor under any comparison of it.
func (m metric) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	s := (m.Q3 - m.Q1) / m.Value
	if s < 0 {
		s = -s
	}
	return s
}

// verdict judges other against base for one end-to-end metric:
// "unresolved" when either side's window spread is wider than the
// bound, so the bound cannot be tested; else "worse" when other is
// worse than base by more than the bound; else "ok".
func verdict(def metricDef, base, other metric) (ratio float64, v string) {
	if base.Value == 0 {
		return 0, "unresolved"
	}
	ratio = other.Value / base.Value
	worse := ratio - 1
	if def.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case base.spread() > def.Bound || other.spread() > def.Bound:
		return ratio, "unresolved"
	case worse > def.Bound:
		return ratio, "worse"
	default:
		return ratio, "ok"
	}
}

// compareReports prints, one workload per block and one metric per
// row, other's end-to-end metrics against base's — both values, their
// ratio with its base, the bound and the verdict — then checks that
// the exact per-layer counts are identical. It returns how many
// metrics were worse or drifted.
func compareReports(out io.Writer, base, other *report) (bad int) {
	if base.Envelope.Seed != other.Envelope.Seed || base.Envelope.Seconds != other.Envelope.Seconds {
		fmt.Fprintf(out, "note: seeds %d/%d, seconds %d/%d differ: exact counts are comparable only for equal seeds\n",
			base.Envelope.Seed, other.Envelope.Seed, base.Envelope.Seconds, other.Envelope.Seconds)
	}
	for _, bw := range base.Workloads {
		var ow *workloadReport
		for _, w := range other.Workloads {
			if w.Name == bw.Name {
				ow = w
			}
		}
		if ow == nil {
			continue
		}
		fmt.Fprintf(out, "%s  (failed %d/%d vs %d/%d)\n", bw.Name, bw.Failed, bw.Attempted, ow.Failed, ow.Attempted)
		if ow.Failed > bw.Failed {
			bad++
		}
		fmt.Fprintf(out, "  %-18s %14s %14s %18s %6s  %s\n", "metric", "base", "other", "other/base", "bound", "verdict")
		for _, def := range endToEnd {
			b, ok1 := bw.EndToEnd[def.Name]
			o, ok2 := ow.EndToEnd[def.Name]
			if !ok1 || !ok2 {
				continue
			}
			ratio, v := verdict(def, b, o)
			if v == "worse" {
				bad++
			}
			name := def.Name
			if b.Note != "" {
				name += " " + b.Note
			}
			fmt.Fprintf(out, "  %-18s %14.4f %14.4f %8.3f of %-8.4g %5.0f%%  %s\n", name, b.Value, o.Value, ratio, b.Value, 100*def.Bound, v)
		}
		if base.Envelope.Seed != other.Envelope.Seed {
			continue
		}
		for _, def := range perLayer {
			b, ok1 := bw.PerLayer[def.Name]
			o, ok2 := ow.PerLayer[def.Name]
			if def.Exact && ok1 && ok2 && b.Value != o.Value {
				bad++
				fmt.Fprintf(out, "  %-34s %14.4f %14.4f  DRIFT: an exact count changed\n", def.Name, b.Value, o.Value)
			}
		}
	}
	return bad
}

package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"

	"mmdb"
)

const smokeScale = 0.1

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts a pass emitted every metric its table declares,
// finite and well named, and that the result line renders.
func checkMetrics(t *testing.T, wr *workloadReport, defs []metricDef, got map[string]metric, nonZero bool) {
	t.Helper()
	if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", wr.Name, wr.Correct, wr.Failed, wr.Attempted, wr.FirstErr)
	}
	for _, def := range defs {
		if !metricName.MatchString(def.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", def.Name)
		}
		m, ok := got[def.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", wr.Name, def.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", wr.Name, def.Name, m.Value)
		}
		if nonZero && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", wr.Name, def.Name, m.Value)
		}
		if m.Unit != def.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", wr.Name, def.Name, m.Unit, def.Unit)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", wr.Name, len(got), len(defs))
	}
	if _, err := resultLine(wr, defs, got); err != nil {
		t.Error(err)
	}
}

// TestSmoke runs every workload's two passes at a tenth of the size
// for under a second each, and checks what the acceptance criteria ask
// of a run: every declared metric emitted, nothing failed, the child
// spans cover the statement, the trace file parses back into the
// numbers printed, and the exact counts repeat.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{Seed: 1, Seconds: 1, Scale: smokeScale, OutDir: t.TempDir()}
			pass := func(trace int) *workloadReport {
				wr, err := runPass(cfg, w, trace)
				if err != nil {
					t.Fatal(err)
				}
				return wr
			}
			e2e := pass(0)
			checkMetrics(t, e2e, endToEnd, e2e.EndToEnd, true)

			traced := pass(1)
			checkMetrics(t, traced, perLayer, traced.PerLayer, false)
			if w.Name != "txn_recover" {
				if c := traced.PerLayer["trace.coverage_frac"].Value; c < 0.95 {
					t.Errorf("child spans cover %.3f of stmt, want >= 0.95", c)
				}
			}

			spans, err := readTraceFile(traced.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range spanMetrics(spans) {
				if got := traced.PerLayer[name]; got.Value != m.Value {
					t.Errorf("%s: trace file gives %v, run printed %v", name, m.Value, got.Value)
				}
			}

			again := pass(1)
			for _, def := range perLayer {
				if def.Exact && again.PerLayer[def.Name].Value != traced.PerLayer[def.Name].Value {
					t.Errorf("%s: %v then %v; an exact count must repeat", def.Name,
						traced.PerLayer[def.Name].Value, again.PerLayer[def.Name].Value)
				}
			}
		})
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[def.Name] {
			t.Errorf("metric %s declared twice", def.Name)
		}
		seen[def.Name] = true
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}

func TestPercentiles(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := percentile(asc, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	// One noisy window does not move a window median.
	m := windowed("ms", []float64{10, 11, 10.5, 40}, 100)
	if m.Value != 10.75 || m.Q1 != 10.375 || m.N != 100 {
		t.Errorf("windowed = %+v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "stmt", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 25, End: 50},  // overlaps a: the overlap counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent: the excess is ignored
		{ID: 5, Parent: 3, Name: "d", Start: 30, End: 40},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 15, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSpanMetrics(t *testing.T) {
	// One traced statement: 10 of parse, 5 of bind, exec of 100 which
	// parses and binds again inside, so 85 of engine in a pipeline of
	// 200 − 15 with 20 of other front-door hops.
	spans := []span{
		{ID: 1, Req: 1, Name: spStmt, Class: "point", Start: 0, End: 200},
		{ID: 2, Parent: 1, Req: 1, Name: spParse, Start: 0, End: 10},
		{ID: 3, Parent: 1, Req: 1, Name: spBind, Start: 10, End: 15},
		{ID: 4, Parent: 1, Req: 1, Name: spAdmit, Start: 15, End: 35},
		{ID: 5, Parent: 1, Req: 1, Name: spExec, Start: 35, End: 135},
		{ID: 6, Req: 2, Name: spStmtUntraced, Class: "point", Start: 300, End: 460},
	}
	m := spanMetrics(spans)
	near := func(name string, want float64) {
		t.Helper()
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("engine.exec_us.point", 0.085)
	near("engine.share", 85.0/185)
	near("frontdoor.share", 35.0/185)
	near("trace.coverage_frac", 135.0/200)
	near("trace.overhead_frac", 185.0/160-1)
	near("session.admit_us", 0.020)
}

func TestStreamsRepeat(t *testing.T) {
	d := newDataset(2000, true, 5)
	text := func(m mix, seed int64) string {
		var b bytes.Buffer
		s := newStream(m, d, seed, 1)
		for i := 0; i < 600; i++ {
			b.WriteString(s.next().SQL)
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, m := range []mix{mixPointRead, mixAnalytic, mixWriter, mixPoint} {
		if text(m, 5) != text(m, 5) {
			t.Errorf("mix %d: the same seed gave two different statement streams", m)
		}
		if text(m, 5) == text(m, 6) {
			t.Errorf("mix %d: seeds 5 and 6 gave the same statement stream", m)
		}
	}
}

func TestOracleRejectsWrongReplies(t *testing.T) {
	d := newDataset(2000, true, 5)
	row := func(vs ...int64) []mmdb.Value {
		out := make([]mmdb.Value, len(vs))
		for i, v := range vs {
			out[i] = mmdb.IntValue(v)
		}
		return out
	}
	point := stmt{Class: clPoint, A: 7}
	if err := d.check(point, [][]mmdb.Value{row(7, empSalary(7))}, 0); err != nil {
		t.Errorf("right point reply rejected: %v", err)
	}
	for name, c := range map[string]struct {
		st       stmt
		rows     [][]mmdb.Value
		affected int64
	}{
		"point, wrong salary": {point, [][]mmdb.Value{row(7, 1)}, 0},
		"point, no row":       {point, nil, 0},
		"tiny, wrong budget":  {stmt{Class: clTiny, A: 3}, [][]mmdb.Value{row(1)}, 0},
		"join, short":         {stmt{Class: clJoin, A: d.amountAsc[20]}, nil, 0},
		"group, short":        {stmt{Class: clGroup}, [][]mmdb.Value{row(1, 100, 0)}, 0},
		"insert, affected 0":  {stmt{Class: clInsert, A: 2001}, nil, 0},
		"delete, affected 1":  {stmt{Class: clDelete, A: 2001, B: 2002}, nil, 1},
	} {
		if err := d.check(c.st, c.rows, c.affected); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms.a", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) metric { return metric{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	for _, c := range []struct {
		def         metricDef
		base, other metric
		want        string
	}{
		{lower, steady(10), steady(10.5), "ok"},
		{lower, steady(10), steady(11.5), "worse"},
		{lower, steady(10), steady(5), "ok"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(95), "ok"},
		{lower, steady(10), metric{Value: 11.5, Q1: 9, Q3: 13}, "unresolved"},
	} {
		if _, got := verdict(c.def, c.base, c.other); got != c.want {
			t.Errorf("%s: %v -> %v judged %s, want %s", c.def.Name, c.base.Value, c.other.Value, got, c.want)
		}
	}
}

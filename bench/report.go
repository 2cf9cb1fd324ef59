package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number. Timings carry the per-window values
// they are the median of, so a reader (and -compare) can see the spread.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
	N       int       `json:"n,omitempty"`    // samples behind the value
	Note    string    `json:"note,omitempty"` // e.g. which statement class a slot holds
}

// metricDef declares a metric once; BENCHMARK.json is printed from
// these tables (-manifest) and the tests check the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the base by which it may worsen
	Exact  bool    // per-layer only: a count that repeats exactly for a seed
}

type workloadDef struct {
	Name string
	Why  string
	// Slots names what p50_ms.a/.b/.c hold on this workload. Every
	// workload must report every end-to-end metric, so per-class
	// latencies go in three positional slots instead of seven names.
	Slots [3]string
}

var workloads = []workloadDef{
	{"point_read", "Fits in memory (20k rows, 512-page grants); short statements, so access path and front door do the work. a=point SELECT by id 80%, b=fetch 100 rows by dept 10%, c=tiny dept lookup 10%.", [3]string{"point", "fetch", "tiny"}},
	{"analytic_spill", "Working set 9x the 64-page grant (100k-row emp and sale); operator-bound, front door ~0.1%, so front-door changes predict no movement. Round-robin a=join, b=group, c=topk.", [3]string{"join", "group", "topk"}},
	{"write_mix", "point_read's table with a writer beside a reader: what an exclusive intent costs a reader and what index upkeep costs a write. a=point (reader), b=insert, c=delete (writer: 2 inserts, 1 delete).", [3]string{"point", "insert", "delete"}},
	{"txn_recover", "The section-5 world no SQL touches: group commit, segmented WAL, checkpoint, crash recovery. Cycle: NewRecoverySim, a=Run 5s virtual (~4k commits), b=CrashAndRecover; c=whole cycle; ops=commits.", [3]string{"run", "recover", "cycle"}},
}

// unitOf returns a per-layer metric's declared unit.
func unitOf(name string) string {
	for _, def := range perLayer {
		if def.Name == name {
			return def.Unit
		}
	}
	return ""
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// The reference host's speed wanders by a fifth for minutes at a time
// (bench/README.md, "How steady"), so every wall-clock metric takes the
// widest bound the contract allows; the two that count bytes, not
// time, repeat within 1% and keep the issue's 3%.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms.a", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p50_ms.b", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p50_ms.c", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.03},
	{Name: "mem_amp", Unit: "ratio", Better: "lower", Bound: 0.03},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// sqlClasses are the statement classes of the SQL workloads, in the
// order class constants are declared.
var sqlClasses = []string{"point", "fetch", "tiny", "join", "group", "topk", "insert", "delete"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	exact := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Exact: true}
	}
	defs := []metricDef{
		lower("sqlclient.ping_rtt_us", "us"),
		lower("sqlclient.classify_us", "us"),
		lower("wire.query_codec_us", "us"),
		lower("wire.result_encode_us", "us"),
		lower("wire.result_decode_us", "us"),
		exact("wire.bytes_per_stmt", "B", "lower"),
		exact("wire.frames_per_stmt", "count", "lower"),
		lower("sql.parse_us", "us"),
		lower("sql.bind_us", "us"),
		lower("session.admit_us", "us"),
		lower("session.release_us", "us"),
		lower("session.queued_us_p50", "us"),
		lower("session.rejected", "count"),
		{Name: "session.running_peak", Unit: "count", Better: "higher"},
		lower("lock.acquire_release_ns", "ns"),
		lower("lock.reader_penalty_ms", "ms"),
		{Name: "engine.share", Unit: "ratio", Better: "higher"},
		lower("frontdoor.share", "ratio"),
		lower("trace.overhead_frac", "ratio"),
		{Name: "trace.coverage_frac", Unit: "ratio", Better: "higher"},
	}
	for _, c := range sqlClasses {
		defs = append(defs, lower("engine.exec_us."+c, "us"))
	}
	for _, c := range sqlClasses {
		defs = append(defs, exact("virt.comps_per_stmt."+c, "count", "lower"))
	}
	for _, c := range sqlClasses {
		defs = append(defs, exact("virt.ios_per_stmt."+c, "count", "lower"))
	}
	for _, c := range sqlClasses {
		defs = append(defs, exact("engine.examined_per_row."+c, "ratio", "lower"))
	}
	defs = append(defs,
		lower("heap.scan_ns_per_tuple", "ns"),
		lower("heap.append_ns_per_tuple", "ns"),
		lower("heap.rewrite_ms", "ms"),
		lower("btree.search_ns", "ns"),
		lower("btree.insert_ns", "ns"),
		lower("catalog.build_index_ms", "ms"),
		lower("mmdb.lookup_us", "us"),
		lower("hashjoin.build_ns_per_tuple", "ns"),
		lower("hashjoin.probe_ns_per_tuple", "ns"),
		lower("hashjoin.partition_ns_per_tuple", "ns"),
		lower("join.hybrid_ms", "ms"),
		exact("join.spill_ios", "count", "lower"),
		lower("agg.hash_ms", "ms"),
		exact("agg.groups", "count", "higher"),
		lower("extsort.sort_ms", "ms"),
		exact("extsort.runs", "count", "lower"),
		exact("extsort.merge_passes", "count", "lower"),
		lower("txn.run_wall_ms", "ms"),
		exact("txn.virtual_tps", "1/s", "higher"),
		exact("txn.committed", "count", "higher"),
		exact("wal.log_pages", "count", "lower"),
		exact("wal.bytes_per_commit", "B", "lower"),
		exact("wal.mean_group_size", "count", "higher"),
		lower("wal.encode_page_us", "us"),
		lower("wal.decode_page_us", "us"),
		exact("checkpoint.pages", "count", "lower"),
		lower("recovery.wall_us_per_record", "us"),
		exact("recovery.records_replayed", "count", "lower"),
		exact("recovery.segments_scanned", "count", "lower"),
		exact("recovery.segments_skipped", "count", "higher"),
		exact("recovery.virtual_ms", "ms", "lower"),
	)
	return defs
}

// runSeconds is BENCHMARK.json's run_seconds and the default -seconds.
const runSeconds = 20

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// envelope stamps where and when a result was measured: the host
// metadata ROADMAP aim 1 says no BENCH file carries.
type envelope struct {
	Date       string   `json:"date"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Commit     string   `json:"commit"`
	Dirty      bool     `json:"dirty"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	WarmupS    float64  `json:"warmup_s"`
	Windows    int      `json:"windows"`
	Clients    int      `json:"clients"`
	Warnings   []string `json:"warnings,omitempty"`
}

func newEnvelope(cfg runConfig) envelope {
	env := envelope{
		Date:       time.Now().UTC().Format(time.RFC3339),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		WarmupS:    warmup(cfg.dur()).Seconds(),
		Windows:    numWindows,
		Clients:    numClients,
	}
	env.Commit, env.Dirty = gitState()
	if numClients > env.NumCPU {
		env.Warnings = append(env.Warnings, fmt.Sprintf(
			"%d closed-loop clients on %d CPUs: latencies include time waiting for a processor", numClients, env.NumCPU))
	}
	return env
}

// gitState reports HEAD and whether the tree is dirty. The ceiling
// keeps git from searching above the working directory, so a checkout
// that is not a repository reads nothing outside itself.
func gitState() (commit string, dirty bool) {
	cwd, err := os.Getwd()
	if err != nil {
		return "unknown", false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	commit, err = git("rev-parse", "HEAD")
	if err != nil || commit == "" {
		return "unknown", false
	}
	status, err := git("status", "--porcelain", "--untracked-files=no")
	return commit, err == nil && status != ""
}

// workloadReport is one workload's result: either pass may be absent
// when the command ran with -trace 0 or 1 only.
type workloadReport struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Slots     map[string]string `json:"slots"`
	Options   map[string]any    `json:"options"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func newWorkloadReport(w workloadDef) *workloadReport {
	return &workloadReport{
		Name:    w.Name,
		Why:     w.Why,
		Slots:   map[string]string{"a": w.Slots[0], "b": w.Slots[1], "c": w.Slots[2]},
		Options: map[string]any{},
		Correct: true,
	}
}

// fail counts n failed operations and keeps the first cause.
func (r *workloadReport) fail(n int, err error) {
	if n == 0 {
		return
	}
	r.Failed += n
	r.Correct = false
	if r.FirstErr == "" && err != nil {
		r.FirstErr = err.Error()
	}
}

type report struct {
	Envelope  envelope          `json:"envelope"`
	Workloads []*workloadReport `json:"workloads"`
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine renders the single JSON object the benchmark contract
// wants last on standard output: every metric of the pass that ran,
// by name, with value and unit.
func resultLine(w *workloadReport, defs []metricDef, got map[string]metric) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("%s: metric %s is not finite", w.Name, d.Name)
		}
		metrics[d.Name] = mv{m.Value, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
	return string(b), err
}

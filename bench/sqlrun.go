package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"mmdb"
	"mmdb/internal/wire"
	"mmdb/sqlclient"
)

const (
	numClients = 2 // closed loop, one connection each; nproc on the reference host
	numWindows = 4
	setupRuns  = 5 // setup_s is the median of this many set-ups
)

// warmup is the unmeasured lead-in: a tenth of the run, at least 1 s
// but never more than half the run.
func warmup(measured time.Duration) time.Duration {
	w := measured / 10
	if w < time.Second {
		w = time.Second
	}
	if w > measured/2 {
		w = measured / 2
	}
	return w
}

// sqlSpec fixes a SQL workload's data size, memory and client mixes.
type sqlSpec struct {
	N           int  // emp rows (and sale rows when Sale)
	MemoryPages int  // |M|; each of the two slots is granted half
	Sale        bool // load the sale table
	Mixes       [numClients]mix
}

// scale shrinks every table for the smoke tests; 1 is the benchmark.
func sqlSpecFor(name string, scale float64) sqlSpec {
	var s sqlSpec
	switch name {
	case "point_read":
		s = sqlSpec{N: 20_000, MemoryPages: 1024, Mixes: [numClients]mix{mixPointRead, mixPointRead}}
	case "analytic_spill":
		s = sqlSpec{N: 100_000, MemoryPages: 128, Sale: true, Mixes: [numClients]mix{mixAnalytic, mixAnalytic}}
	case "write_mix":
		s = sqlSpec{N: 20_000, MemoryPages: 1024, Mixes: [numClients]mix{mixWriter, mixPoint}}
	}
	s.N = int(float64(s.N)*scale) / deptSize * deptSize
	return s
}

func (s sqlSpec) options() mmdb.Options {
	return mmdb.Options{
		MemoryPages:          s.MemoryPages,
		MaxConcurrentQueries: numClients,
		QueueDepth:           64,
		Parallelism:          1,
	}
}

func (s sqlSpec) describe(d *dataset) map[string]any {
	o := map[string]any{
		"memory_pages":           s.MemoryPages,
		"grant_pages":            s.MemoryPages / numClients,
		"max_concurrent_queries": numClients,
		"queue_depth":            64,
		"parallelism":            1,
		"cache_kernels":          "default",
		"emp_rows":               d.N,
		"dept_rows":              d.ND,
		"emp_pages":              (d.N + empPerPage - 1) / empPerPage,
		"user_bytes":             d.userBytes(),
	}
	if s.Sale {
		o["sale_rows"] = d.N
	}
	return o
}

// empPerPage is how many emp tuples a 4 KB page holds.
var empPerPage = 4096 / empSchema.Width()

// env is a loaded database behind a live wire server with dialed
// clients: what setup_s pays for.
type env struct {
	db      *mmdb.Database
	srv     *wire.Server
	served  chan error
	clients []*sqlclient.Client
}

var (
	empSchema = mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
	)
	deptSchema = mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "budget", Kind: mmdb.Int64},
	)
	saleSchema = mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "emp", Kind: mmdb.Int64},
		mmdb.Field{Name: "amount", Kind: mmdb.Int64},
	)
)

// setUp opens, loads, indexes, listens and dials, and returns how long
// that took. Generating the dataset is the generator's work and is
// not part of it.
func setUp(spec sqlSpec, d *dataset) (*env, time.Duration, error) {
	start := time.Now()
	db, err := mmdb.Open(spec.options())
	if err != nil {
		return nil, 0, err
	}
	load := func(name string, schema *mmdb.Schema, n int, row func(id int64) [3]int64) error {
		rel, err := db.CreateRelation(name, schema)
		if err != nil {
			return err
		}
		vals := make([]mmdb.Value, schema.NumFields())
		for i := 0; i < n; i++ {
			r := row(int64(i + 1))
			for c := range vals {
				vals[c] = mmdb.IntValue(r[c])
			}
			if err := rel.Insert(vals...); err != nil {
				return err
			}
		}
		return rel.Flush()
	}
	index := func(name string) error {
		rel, err := db.Relation(name)
		if err != nil {
			return err
		}
		return rel.CreateIndex("id", mmdb.BTree)
	}
	err = load("emp", empSchema, d.N, func(id int64) [3]int64 { return [3]int64{id, empDept(d.ND, id), empSalary(id)} })
	if err == nil {
		err = load("dept", deptSchema, d.ND, func(id int64) [3]int64 { return [3]int64{id, deptBudget(id)} })
	}
	if err == nil && spec.Sale {
		err = load("sale", saleSchema, d.N, func(id int64) [3]int64 { return [3]int64{id, d.SaleEmp[id-1], d.SaleAmount[id-1]} })
	}
	if err == nil {
		err = index("emp")
	}
	if err == nil {
		err = index("dept")
	}
	if err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	e := &env{db: db, srv: &wire.Server{DB: db, Name: "bench"}, served: make(chan error, 1)}
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	go func() { e.served <- e.srv.Serve() }()
	for i := 0; i < numClients; i++ {
		c, err := sqlclient.Dial(addr.String())
		if err != nil {
			e.close()
			return nil, 0, err
		}
		e.clients = append(e.clients, c)
	}
	return e, time.Since(start), nil
}

// close hangs up, stops the server and waits for Serve to return.
func (e *env) close() {
	for _, c := range e.clients {
		_ = c.Close() // the server is going away with it
	}
	_ = e.srv.Close() // closing twice is harmless; Serve's return is what we wait for
	<-e.served
}

// setUpMedian sets up setupRuns times, keeps the last environment and
// reports the median set-up time.
func setUpMedian(spec sqlSpec, d *dataset) (*env, metric, error) {
	var e *env
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		var took time.Duration
		var err error
		e, took, err = setUp(spec, d)
		if err != nil {
			return nil, metric{}, err
		}
		times = append(times, took.Seconds())
	}
	return e, windowed("s", times, len(times)), nil
}

// liveHeap is the bytes of heap still reachable after two collections.
// mem_amp is the growth of it across set-up, so what the generator and
// earlier passes of the same process hold does not count.
func liveHeap() uint64 {
	var mem runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// sample is one completed statement as its client saw it.
type sample struct {
	class  class
	end    time.Duration // completion, since the loop started
	lat    time.Duration
	queued time.Duration // DONE-frame admission wait
}

type loopResult struct {
	samples   []sample // all clients, ordered by completion
	attempted int
	failed    int
	firstErr  error
}

// closedLoop drives one stream per client, each sending its next
// statement only when the last reply has been checked, for at least
// dur; a client stops at the first cycle boundary after that. at, when
// set, is called on the coordinating goroutine at each offset in
// marks (for memory snapshots at window edges).
func closedLoop(e *env, d *dataset, streams []*stream, dur time.Duration, marks []time.Duration, at func(i int)) loopResult {
	results := make([]loopResult, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range streams {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			r := &results[ci]
			s, c := streams[ci], e.clients[ci]
			cycle := s.mix.cycle()
			for n := 0; ; n++ {
				if n%cycle == 0 && time.Since(start) >= dur {
					return
				}
				st := s.next()
				t0 := time.Now()
				res, err := c.Query(st.SQL)
				t1 := time.Now()
				r.attempted++
				if err == nil {
					err = d.check(st, res.Rows, res.Affected)
				}
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = fmt.Errorf("client %d: %s: %w", ci, st.SQL, err)
					}
					if res == nil {
						continue
					}
				}
				r.samples = append(r.samples, sample{st.Class, t1.Sub(start), t1.Sub(t0), res.Queued})
			}
		}(ci)
	}
	for i, m := range marks {
		time.Sleep(time.Until(start.Add(m)))
		at(i)
	}
	wg.Wait()
	var out loopResult
	for _, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].end < out.samples[j].end })
	return out
}

func clientStreams(spec sqlSpec, d *dataset, seed int64) []*stream {
	out := make([]*stream, numClients)
	for i := range out {
		out[i] = newStream(spec.Mixes[i], d, seed, i)
	}
	return out
}

// verifyCount checks the tables are back at their loaded size.
func (e *env) verifyCount(d *dataset, rep *workloadReport) {
	rep.Attempted++
	res, err := e.clients[0].Query("SELECT COUNT(*) FROM emp")
	if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].I != int64(d.N)) {
		err = fmt.Errorf("SELECT COUNT(*) FROM emp = %v after the run, want %d", res.Rows, d.N)
	}
	if err != nil {
		rep.fail(1, err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies returns the samples' latencies in ms, ascending, for one
// class (or all classes when c < 0).
func latencies(samples []sample, c class) []float64 {
	var out []float64
	for _, s := range samples {
		if c < 0 || s.class == c {
			out = append(out, ms(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// runSQL measures a SQL workload end to end with tracing off: set-up,
// warm-up, then numWindows equal windows whose per-window values each
// metric is the median of.
func runSQL(cfg runConfig, w workloadDef) (*workloadReport, error) {
	seed, measured := cfg.Seed, cfg.dur()
	spec := sqlSpecFor(w.Name, cfg.Scale)
	d := newDataset(spec.N, spec.Sale, seed)
	rep := newWorkloadReport(w)
	rep.Options = spec.describe(d)

	before := liveHeap()
	e, setup, err := setUpMedian(spec, d)
	if err != nil {
		return nil, err
	}
	defer e.close()
	memAmp := float64(liveHeap()-before) / float64(d.userBytes())

	var mem runtime.MemStats
	warm := warmup(measured)
	win := measured / numWindows
	marks := make([]time.Duration, numWindows+1)
	alloc := make([]uint64, numWindows+1)
	for i := range marks {
		marks[i] = warm + time.Duration(i)*win
	}
	res := closedLoop(e, d, clientStreams(spec, d, seed), warm+measured, marks, func(i int) {
		runtime.ReadMemStats(&mem)
		alloc[i] = mem.TotalAlloc
	})
	rep.Attempted += res.attempted
	rep.fail(res.failed, res.firstErr)
	e.verifyCount(d, rep)

	// Split the measured samples into windows by completion time;
	// statements that finish after the last window are the stop tail.
	windows := make([][]sample, numWindows)
	for _, s := range res.samples {
		if k := int((s.end - warm) / win); s.end >= warm && k < numWindows {
			windows[k] = append(windows[k], s)
		}
	}
	total := 0
	perWindow := func(f func(k int, ws []sample) float64) []float64 {
		out := make([]float64, numWindows)
		for k, ws := range windows {
			out[k] = f(k, ws)
		}
		return out
	}
	for _, ws := range windows {
		total += len(ws)
		if len(ws) == 0 {
			return nil, fmt.Errorf("%s: a %v window completed no statement; run longer", w.Name, win)
		}
	}
	m := map[string]metric{
		"setup_s": setup,
		"mem_amp": {Value: memAmp, Unit: "ratio", N: 1},
		"ops_per_s": windowed("1/s", perWindow(func(_ int, ws []sample) float64 {
			return float64(len(ws)) / win.Seconds()
		}), total),
		"p95_ms": windowed("ms", perWindow(func(_ int, ws []sample) float64 {
			return percentile(latencies(ws, -1), 0.95)
		}), total),
		"alloc_kb_per_op": windowed("KB", perWindow(func(k int, ws []sample) float64 {
			return float64(alloc[k+1]-alloc[k]) / 1024 / float64(len(ws))
		}), total),
	}
	for i, slot := range []string{"a", "b", "c"} {
		c := classByName(w.Slots[i])
		medians := make([]float64, numWindows)
		n := 0
		for k, ws := range windows {
			lat := latencies(ws, c)
			if len(lat) == 0 {
				return nil, fmt.Errorf("%s: a %v window completed no %s statement; run longer", w.Name, win, c)
			}
			medians[k] = percentile(lat, 0.5)
			n += len(lat)
		}
		mv := windowed("ms", medians, n)
		mv.Note = c.String()
		m["p50_ms."+slot] = mv
	}
	rep.EndToEnd = m
	return rep, nil
}

func classByName(name string) class {
	for c := class(0); c < numClasses; c++ {
		if c.String() == name {
			return c
		}
	}
	panic("bench: unknown class " + name)
}

package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mmdb"
	"mmdb/internal/wire"
	"mmdb/sqlclient"
)

// WireConfig drives the SQL-over-TCP serving experiment: a closed-loop
// workload where every client holds one wire connection and runs the
// same SQL statement mix back to back against an in-process wire
// server. Slots stay constant across the client ladder, so the static
// memory broker hands every server-side session the identical grant —
// the per-statement virtual counters that come back in DONE frames must
// therefore be bit-identical at every rung; any drift fails the run.
type WireConfig struct {
	Clients          []int // ladder of concurrent wire connections
	Slots            int   // MaxConcurrentQueries, fixed across the ladder
	QueueDepth       int   // admission queue bound
	QueriesPerClient int   // statement-mix iterations per client
	// ThinkTime is each client's pause between statements (the §5.1
	// closed-loop terminal model, now with a TCP hop inside the loop).
	ThinkTime   time.Duration
	Tuples      int // rows in emp
	Groups      int // rows in dept
	MemoryPages int
	PageSize    int
}

// DefaultWireConfig sizes the ladder to run in a few seconds.
func DefaultWireConfig() WireConfig {
	return WireConfig{
		Clients:          []int{1, 2, 4, 8},
		Slots:            8,
		QueueDepth:       64,
		QueriesPerClient: 8,
		ThinkTime:        2 * time.Millisecond,
		Tuples:           4000,
		Groups:           40,
		MemoryPages:      256,
		PageSize:         1024,
	}
}

// wireStatements is the per-iteration statement mix: a filtered scan,
// a two-table join, and a grouped aggregate — one statement per SQL
// execution path that bills differently.
var wireStatements = []string{
	"SELECT id, salary FROM emp WHERE salary > 1500 ORDER BY id LIMIT 50",
	"SELECT emp.id, dept.budget FROM emp JOIN dept ON emp.dept = dept.id WHERE dept.budget >= 200",
	"SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept ORDER BY dept",
}

// WireRow is one rung of the connection ladder. Only the virtual half is
// serialized: BENCH_wire.json must reproduce byte for byte on any host,
// so the wall-clock and schedule-dependent fields are stdout only.
type WireRow struct {
	Clients      int             `json:"clients"`
	Statements   int             `json:"statements"`
	Counters     []mmdb.Counters `json:"statement_counters"` // one per statement in the mix
	VirtualMatch bool            `json:"virtual_identical"`  // counters identical to the 1-client rung

	Wall        time.Duration `json:"-"`
	Throughput  float64       `json:"-"` // statements per second
	QueuedP50   time.Duration `json:"-"`
	QueuedP95   time.Duration `json:"-"`
	PeakGranted int           `json:"-"` // broker high-water mark, pages
}

// WireResult is the full ladder plus the workload parameters.
type WireResult struct {
	Config       WireConfig `json:"config"`
	Statements   []string   `json:"statements"`
	Rows         []WireRow  `json:"rows"`
	AllIdentical bool       `json:"all_identical"`
}

// RunWire runs the connection ladder. Every rung gets a fresh,
// identically loaded engine behind a fresh in-process server, so rungs
// are independent and the cross-rung counter comparison is meaningful.
func RunWire(cfg WireConfig) (*WireResult, error) {
	res := &WireResult{Config: cfg, Statements: wireStatements, AllIdentical: true}
	var baseline []mmdb.Counters
	for _, clients := range cfg.Clients {
		db, err := loadEmpDept(mmdb.Options{
			PageSize:             cfg.PageSize,
			MemoryPages:          cfg.MemoryPages,
			MaxConcurrentQueries: cfg.Slots,
			QueueDepth:           cfg.QueueDepth,
		}, cfg.Tuples, cfg.Groups)
		if err != nil {
			return nil, err
		}
		srv := &wire.Server{DB: db, Name: "mmdbench"}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go srv.Serve()

		total := clients * cfg.QueriesPerClient * len(wireStatements)
		queued := make([]time.Duration, 0, total)
		// counters[s] collects every client's bill for statement s.
		counters := make([][]mmdb.Counters, len(wireStatements))
		var mu sync.Mutex

		start := time.Now()
		err = fanOut(clients, func(int) error {
			cl, err := sqlclient.Dial(addr.String())
			if err != nil {
				return err
			}
			defer cl.Close()
			for q := 0; q < cfg.QueriesPerClient; q++ {
				time.Sleep(cfg.ThinkTime)
				for s, stmt := range wireStatements {
					r, err := cl.Query(stmt)
					if err != nil {
						return err
					}
					mu.Lock()
					queued = append(queued, r.Queued)
					counters[s] = append(counters[s], r.Counters)
					mu.Unlock()
				}
			}
			return nil
		})
		wall := time.Since(start)
		srv.Close()
		if err != nil {
			return nil, err
		}
		m := db.SessionMetrics()
		if m.PeakGrantedPages > m.MemoryPages {
			return nil, fmt.Errorf("experiments: broker over-granted (%d > %d)", m.PeakGrantedPages, m.MemoryPages)
		}

		// Every statement must bill identically for every client at
		// every rung — the wire hop may change wall time and queueing,
		// never the virtual clock.
		row := WireRow{Clients: clients, Statements: total, VirtualMatch: true, Wall: wall,
			Throughput: float64(total) / wall.Seconds(), PeakGranted: m.PeakGrantedPages}
		for s := range wireStatements {
			if len(counters[s]) == 0 {
				return nil, fmt.Errorf("experiments: statement %d never ran", s)
			}
			first := counters[s][0]
			row.Counters = append(row.Counters, first)
			for _, c := range counters[s][1:] {
				if c != first {
					row.VirtualMatch = false
				}
			}
		}
		if baseline == nil {
			baseline = row.Counters
		} else {
			for s := range baseline {
				if row.Counters[s] != baseline[s] {
					row.VirtualMatch = false
				}
			}
		}
		if !row.VirtualMatch {
			res.AllIdentical = false
		}
		row.QueuedP50 = percentile(queued, 0.50)
		row.QueuedP95 = percentile(queued, 0.95)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes the human-readable report; throughput and queueing live
// here only, never in the JSON.
func (r *WireResult) Print(w io.Writer) {
	fmt.Fprintf(w, "SQL over the wire — closed-loop statement mix via TCP connections\n")
	fmt.Fprintf(w, "(%d slots, %d-page |M| → %d-page static grants, %d iterations/client × %d statements, %s think time)\n",
		r.Config.Slots, r.Config.MemoryPages, r.Config.MemoryPages/r.Config.Slots,
		r.Config.QueriesPerClient, len(r.Statements), r.Config.ThinkTime)
	printHost(w)
	fmt.Fprintf(w, "\n%8s %11s %14s %12s %12s %10s\n",
		"clients", "statements", "statements/s", "queued p50", "queued p95", "identical")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8s %11d %14.1f %12s %12s %10v\n",
			wide(row.Clients), row.Statements, row.Throughput,
			row.QueuedP50.Round(time.Microsecond), row.QueuedP95.Round(time.Microsecond),
			row.VirtualMatch)
	}
	if len(r.Rows) >= 2 {
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		if first.Throughput > 0 {
			fmt.Fprintf(w, "\nspeedup %d→%d clients: %.2fx\n",
				first.Clients, last.Clients, last.Throughput/first.Throughput)
		}
	}
}

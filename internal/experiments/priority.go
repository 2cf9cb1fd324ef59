package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mmdb"
)

// PriorityConfig drives the multiclass admission experiment: a
// saturating closed-loop batch join stream offered by BatchClients runs
// alongside a terminal-style interactive stream of short selections, and
// the same mixed workload is replayed across an admission-policy ladder —
// single-class FIFO (the PR 2 baseline: interactive queries tagged
// Batch), strict priority, and weighted fair. Engine options (slots,
// |M|, reservations) are identical at every rung, so static memory
// grants — and therefore every query's virtual-clock result — are
// bit-identical across rungs and to a serial run; the rungs trade
// wall-clock queueing only.
type PriorityConfig struct {
	Rungs      []string // ladder of pick policies: fifo|strict|weighted
	Slots      int      // MaxConcurrentQueries, fixed across the ladder
	QueueDepth int      // per-class admission queue bound

	BatchClients       int // closed-loop batch join clients
	InteractiveClients int // terminal-style clients
	InteractiveQueries int // selections per interactive client
	// ThinkJoins is the §5.1 terminal think time, expressed as batch-join
	// completions between interactive arrivals (K completions ≈ K×D of
	// offered batch work). Pacing arrivals off engine progress instead of
	// a wall-clock timer keeps the arrival process meaningful on a
	// single-CPU host, where the saturating closed-loop clients can
	// starve runtime timer wakeups for seconds.
	ThinkJoins          int
	InteractiveWeight   int // WeightedFair share for Interactive
	ReservedInteractive int // pages only interactive grants may draw

	Tuples      int // rows in the probe relation
	Groups      int // rows in the build relation
	MemoryPages int
	PageSize    int
}

// DefaultPriorityConfig sizes the workload so the full ladder runs in a
// few seconds of wall time on one core, with the batch stream saturating
// the slots for the whole interactive stream at every rung.
func DefaultPriorityConfig() PriorityConfig {
	return PriorityConfig{
		Rungs:               []string{"fifo", "strict", "weighted"},
		Slots:               2,
		QueueDepth:          64,
		BatchClients:        14,
		InteractiveClients:  2,
		InteractiveQueries:  100,
		ThinkJoins:          4,
		InteractiveWeight:   8,
		ReservedInteractive: 32,
		Tuples:              12000,
		Groups:              40,
		MemoryPages:         256,
		PageSize:            1024,
	}
}

// PriorityClassStats reports one class's side of a rung.
type PriorityClassStats struct {
	Queries    int
	Throughput float64 // queries per second
	QueuedP50  time.Duration
	QueuedP95  time.Duration
	QueuedP99  time.Duration
}

// PriorityRow is one rung of the policy ladder.
type PriorityRow struct {
	Policy       string
	Wall         time.Duration
	Interactive  PriorityClassStats
	Batch        PriorityClassStats
	VirtualMatch bool // per-query results identical to the serial run
}

// PriorityResult is the full ladder plus the acceptance ratios against
// the single-class FIFO baseline.
type PriorityResult struct {
	Config PriorityConfig
	Rows   []PriorityRow
	// AllIdentical is the per-rung VirtualMatch conjunction; mmdbench
	// exits non-zero when it is false.
	AllIdentical bool

	// StrictInteractiveP95Ratio is strict-priority interactive queued
	// p95 over the FIFO baseline's (smaller is better; the acceptance
	// bar is <= 0.25).
	StrictInteractiveP95Ratio float64
	// StrictBatchThroughputRatio is strict-priority batch throughput
	// over the FIFO baseline's (the acceptance bar is >= 0.85).
	StrictBatchThroughputRatio float64
}

func loadPriorityDB(cfg PriorityConfig, policy mmdb.PickPolicy) (*mmdb.Database, error) {
	opts := mmdb.Options{
		PageSize:             cfg.PageSize,
		MemoryPages:          cfg.MemoryPages,
		MaxConcurrentQueries: cfg.Slots,
		QueueDepth:           cfg.QueueDepth,
		PickPolicy:           policy,
	}
	opts.Classes[mmdb.Interactive].ReservedPages = cfg.ReservedInteractive
	opts.Classes[mmdb.Interactive].Weight = cfg.InteractiveWeight
	return loadEmpDept(opts, cfg.Tuples, cfg.Groups)
}

// prioritySelect is the interactive query: a short predicate scan of the
// small relation, run in a session of the given class. It returns the
// row count and the session's virtual-clock counters for the
// bit-identical check.
func prioritySelect(db *mmdb.Database, class mmdb.QueryClass) (int, mmdb.Counters, time.Duration, error) {
	s, err := db.NewSession(context.Background(), mmdb.WithClass(class))
	if err != nil {
		return 0, mmdb.Counters{}, 0, err
	}
	defer s.Close()
	res, err := s.Query("SELECT * FROM dept WHERE budget >= 0")
	if err != nil {
		return 0, mmdb.Counters{}, 0, err
	}
	return len(res.Rows), s.Counters(), s.QueuedFor(), nil
}

// priorityJoin is the batch query: the hybrid-hash join stream, run in a
// Batch-class session.
func priorityJoin(db *mmdb.Database) (mmdb.JoinResult, time.Duration, error) {
	s, err := db.NewSession(context.Background(), mmdb.WithClass(mmdb.Batch))
	if err != nil {
		return mmdb.JoinResult{}, 0, err
	}
	defer s.Close()
	res, err := s.Join(mmdb.HybridHash, "emp", "dept", "dept", "id", nil)
	return res, s.QueuedFor(), err
}

// RunPriority runs the admission-policy ladder. Every rung gets a fresh,
// identically loaded engine; the batch stream saturates the slots until
// the interactive stream completes, so every rung sees the same offered
// batch load.
func RunPriority(cfg PriorityConfig) (*PriorityResult, error) {
	// On a single-processor runtime the closed-loop clients form an
	// unbroken ready-wakeup chain that can starve a woken waiter in the
	// scheduler's local run queue for seconds, turning wall-clock rungs
	// bimodal. A second processor breaks the chain through work stealing,
	// so floor GOMAXPROCS at 2 for the duration of the ladder.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	res := &PriorityResult{Config: cfg, AllIdentical: true}

	// Serial reference: identical Options, queries one at a time, so
	// static grants — and per-query virtual results — must match every
	// rung bit for bit.
	serialDB, err := loadPriorityDB(cfg, mmdb.StrictPriority)
	if err != nil {
		return nil, err
	}
	wantJoin, _, err := priorityJoin(serialDB)
	if err != nil {
		return nil, err
	}
	wantRows, wantCounters, _, err := prioritySelect(serialDB, mmdb.Interactive)
	if err != nil {
		return nil, err
	}

	var fifoRow *PriorityRow
	for _, rung := range cfg.Rungs {
		var policy mmdb.PickPolicy
		interactiveClass := mmdb.Interactive
		switch rung {
		case "fifo":
			// The PR 2 baseline: one class, one queue — interactive
			// queries are tagged Batch and wait behind the bulk backlog.
			policy, interactiveClass = mmdb.StrictPriority, mmdb.Batch
		case "strict":
			policy = mmdb.StrictPriority
		case "weighted":
			policy = mmdb.WeightedFair
		default:
			return nil, fmt.Errorf("experiments: unknown priority rung %q", rung)
		}
		db, err := loadPriorityDB(cfg, policy)
		if err != nil {
			return nil, err
		}

		var (
			mu        sync.Mutex
			intQueued []time.Duration
			batQueued []time.Duration
			identical = true
			stop      atomic.Bool
		)
		start := time.Now()
		tick := make(chan struct{}, 1) // batch completions pace interactive think
		batDone := make(chan error, 1)
		go func() {
			batDone <- fanOut(cfg.BatchClients, func(int) error {
				for !stop.Load() {
					jr, queued, err := priorityJoin(db)
					if err != nil {
						return err
					}
					select {
					case tick <- struct{}{}:
					default:
					}
					mu.Lock()
					batQueued = append(batQueued, queued)
					if jr != wantJoin {
						identical = false
					}
					mu.Unlock()
				}
				return nil
			})
		}()
		err = fanOut(cfg.InteractiveClients, func(int) error {
			for q := 0; q < cfg.InteractiveQueries; q++ {
				for k := 0; k < cfg.ThinkJoins; k++ {
					<-tick
				}
				rows, counters, queued, err := prioritySelect(db, interactiveClass)
				if err != nil {
					return err
				}
				mu.Lock()
				intQueued = append(intQueued, queued)
				if rows != wantRows || counters != wantCounters {
					identical = false
				}
				mu.Unlock()
			}
			return nil
		})
		wall := time.Since(start) // offered-load window: batch saturates it end to end
		stop.Store(true)
		if batErr := <-batDone; err == nil {
			err = batErr
		}
		if err != nil {
			return nil, err
		}

		m := db.SessionMetrics()
		if m.PeakGrantedPages > m.MemoryPages {
			return nil, fmt.Errorf("experiments: broker over-granted (%d > %d)", m.PeakGrantedPages, m.MemoryPages)
		}
		row := PriorityRow{
			Policy: rung,
			Wall:   wall,
			Interactive: PriorityClassStats{
				Queries:    len(intQueued),
				Throughput: float64(len(intQueued)) / wall.Seconds(),
				QueuedP50:  percentile(intQueued, 0.50),
				QueuedP95:  percentile(intQueued, 0.95),
				QueuedP99:  percentile(intQueued, 0.99),
			},
			Batch: PriorityClassStats{
				Queries:    len(batQueued),
				Throughput: float64(len(batQueued)) / wall.Seconds(),
				QueuedP50:  percentile(batQueued, 0.50),
				QueuedP95:  percentile(batQueued, 0.95),
				QueuedP99:  percentile(batQueued, 0.99),
			},
			VirtualMatch: identical,
		}
		res.Rows = append(res.Rows, row)
		res.AllIdentical = res.AllIdentical && identical
		if rung == "fifo" {
			r := row
			fifoRow = &r
		}
		if rung == "strict" && fifoRow != nil {
			if fifoRow.Interactive.QueuedP95 > 0 {
				res.StrictInteractiveP95Ratio =
					float64(row.Interactive.QueuedP95) / float64(fifoRow.Interactive.QueuedP95)
			}
			if fifoRow.Batch.Throughput > 0 {
				res.StrictBatchThroughputRatio = row.Batch.Throughput / fifoRow.Batch.Throughput
			}
		}
	}
	return res, nil
}

// Print writes the human-readable report.
func (r *PriorityResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Priority-class admission — interactive selections vs. saturating batch joins\n")
	fmt.Fprintf(w, "(%d slots, %d-page |M| with %d reserved for interactive, %d batch clients closed-loop,\n",
		r.Config.Slots, r.Config.MemoryPages, r.Config.ReservedInteractive, r.Config.BatchClients)
	fmt.Fprintf(w, " %d interactive clients × %d queries, think = %d batch completions; %s clients in all)\n",
		r.Config.InteractiveClients, r.Config.InteractiveQueries, r.Config.ThinkJoins,
		wide(r.Config.BatchClients+r.Config.InteractiveClients))
	printHost(w)
	fmt.Fprintf(w, "\n%9s %7s | %22s %12s %12s | %12s %12s %10s\n",
		"policy", "wall", "class", "queries/s", "queued p50", "queued p95", "queued p99", "identical")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%9s %7s | %22s %12.1f %12s %12s | %12s %10v\n",
			row.Policy, row.Wall.Round(time.Millisecond), "interactive",
			row.Interactive.Throughput,
			row.Interactive.QueuedP50.Round(time.Microsecond),
			row.Interactive.QueuedP95.Round(time.Microsecond),
			row.Interactive.QueuedP99.Round(time.Microsecond), row.VirtualMatch)
		fmt.Fprintf(w, "%9s %7s | %22s %12.1f %12s %12s | %12s %10s\n",
			"", "", "batch", row.Batch.Throughput,
			row.Batch.QueuedP50.Round(time.Microsecond),
			row.Batch.QueuedP95.Round(time.Microsecond),
			row.Batch.QueuedP99.Round(time.Microsecond), "")
	}
	if r.StrictInteractiveP95Ratio > 0 {
		fmt.Fprintf(w, "\nstrict vs fifo: interactive p95 ratio %.3f (bar ≤ 0.25), batch throughput ratio %.3f (bar ≥ 0.85)\n",
			r.StrictInteractiveP95Ratio, r.StrictBatchThroughputRatio)
	}
}

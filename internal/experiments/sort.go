package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"mmdb"
)

// SortConfig drives the parallel-sort ladder: a memory ladder (out-of-core
// through fully in-memory) crossed with a Parallelism ladder, at a pinned
// SortChunks decomposition. Chunks is a plan knob — it determines the
// virtual counters — so it stays fixed while the worker count varies: the
// experiment's invariant is that every width charges bit-identical
// counters and produces the identical output order, while wall-clock time
// drops.
type SortConfig struct {
	Widths      []int `json:"widths"`       // Parallelism ladder, e.g. 1,2,4,8
	Chunks      int   `json:"chunks"`       // pinned SortChunks decomposition
	MemoryPages []int `json:"memory_pages"` // sort-memory rungs, small → larger than the input
	Tuples      int   `json:"tuples"`       // rows in the sorted relation
	RefTuples   int   `json:"ref_tuples"`   // rows in the join probe relation
	PageSize    int   `json:"page_size"`
	Repeat      int   `json:"repeat"` // timed repetitions per rung (wall-clock smoothing)
}

// DefaultSortConfig sizes the ladder so the smallest memory rung forms
// dozens of runs per chunk (intermediate merge passes included) and the
// largest sorts fully in memory, in a few seconds of wall time.
func DefaultSortConfig() SortConfig {
	return SortConfig{
		Widths:      []int{1, 2, 4, 8},
		Chunks:      8,
		MemoryPages: []int{16, 64, 4096},
		Tuples:      80000,
		RefTuples:   4000,
		PageSize:    1024,
		Repeat:      2,
	}
}

// SortVirtual is the width-independent execution profile of one memory
// rung: everything in here is virtual (counters, fingerprints, sort
// shapes), so the ladder asserts it is bit-identical at every Parallelism
// width, and BENCH_sort.json is byte-identical run to run for a config.
type SortVirtual struct {
	Rows        int64         `json:"rows"`
	OrderHash   uint64        `json:"order_hash"` // FNV-1a over the sorted key sequence
	Counters    mmdb.Counters `json:"counters"`
	Sorts       uint64        `json:"sorts"`
	Runs        uint64        `json:"runs"`
	MergePasses uint64        `json:"merge_passes"`
	InMemory    uint64        `json:"in_memory_sorts"`
	JoinMatches int64         `json:"join_matches"`
	JoinPasses  int           `json:"join_passes"`
	JoinRuns    int           `json:"join_runs"` // Partitions: initial runs across both join inputs
}

// SortRow is one memory rung of the ladder.
type SortRow struct {
	MemoryPages int         `json:"memory_pages"`
	Virtual     SortVirtual `json:"virtual"`
	// WidthsIdentical records that every Parallelism width reproduced
	// Virtual bit-for-bit (counters, order hash, sort stats, join result).
	WidthsIdentical bool `json:"widths_identical"`

	wall map[int]time.Duration // per width, stdout only — kept out of the JSON
}

// SortResult is the full ladder.
type SortResult struct {
	Config SortConfig `json:"config"`
	Rows   []SortRow  `json:"rows"`
	// AllIdentical is the per-rung WidthsIdentical conjunction; mmdbench
	// exits non-zero when it is false.
	AllIdentical bool `json:"all_identical"`
}

// loadSortDB builds a fresh engine with an "events" relation in shuffled
// key order (the sort input) and a smaller "ref" relation for the
// sort-merge join leg. The fill is deterministic, so every (memory, width)
// cell sorts the identical relation.
func loadSortDB(cfg SortConfig, memPages, width int) (*mmdb.Database, error) {
	db, err := mmdb.Open(mmdb.Options{
		PageSize:    cfg.PageSize,
		MemoryPages: memPages,
		Parallelism: width,
		SortChunks:  cfg.Chunks,
	})
	if err != nil {
		return nil, err
	}
	// Deterministic LCG shuffle of the key space (MMIX constants).
	state := uint64(0x9E3779B97F4A7C15)
	err = loadRelation(db, "events", mmdb.MustSchema(
		mmdb.Field{Name: "key", Kind: mmdb.Int64},
		mmdb.Field{Name: "seq", Kind: mmdb.Int64},
		mmdb.Field{Name: "pad", Kind: mmdb.String, Size: 16},
	), cfg.Tuples, func(i int) []mmdb.Value {
		state = state*6364136223846793005 + 1442695040888963407
		key := int64(state % uint64(cfg.Tuples*4))
		return []mmdb.Value{mmdb.IntValue(key), mmdb.IntValue(int64(i)), mmdb.StringValue("event-padding!!!")}
	})
	if err != nil {
		return nil, err
	}
	err = loadRelation(db, "ref", mmdb.MustSchema(
		mmdb.Field{Name: "key", Kind: mmdb.Int64},
		mmdb.Field{Name: "tag", Kind: mmdb.Int64},
	), cfg.RefTuples, func(i int) []mmdb.Value {
		key := (uint64(i)*2862933555777941757 + 3037000493) % uint64(cfg.Tuples*4)
		return []mmdb.Value{mmdb.IntValue(int64(key)), mmdb.IntValue(int64(i))}
	})
	return db, err
}

// runSortCell executes one (memory, width) cell: Repeat timed rounds of
// OrderBy over events plus one sort-merge join against ref, returning the
// virtual profile of a single round and the total wall time.
func runSortCell(cfg SortConfig, memPages, width int) (SortVirtual, time.Duration, error) {
	db, err := loadSortDB(cfg, memPages, width)
	if err != nil {
		return SortVirtual{}, 0, err
	}
	var v SortVirtual
	var wall time.Duration
	for rep := 0; rep < cfg.Repeat; rep++ {
		before := db.Counters()
		metricsBefore := db.SessionMetrics()
		h := fnv.New64a()
		var rows int64
		start := time.Now()
		err := oneShot(db, func(s *mmdb.Session) error {
			return s.OrderBy("events", "key", func(t mmdb.Tuple) bool {
				rows++
				h.Write(t[:8])
				return true
			})
		})
		if err != nil {
			return SortVirtual{}, 0, err
		}
		var jr mmdb.JoinResult
		err = oneShot(db, func(s *mmdb.Session) (err error) {
			jr, err = s.Join(mmdb.SortMerge, "ref", "events", "key", "key", nil)
			return err
		})
		if err != nil {
			return SortVirtual{}, 0, err
		}
		wall += time.Since(start)
		metrics := db.SessionMetrics()
		round := SortVirtual{
			Rows:        rows,
			OrderHash:   h.Sum64(),
			Counters:    db.Counters().Sub(before),
			Sorts:       metrics.Sorts - metricsBefore.Sorts,
			Runs:        metrics.SortRuns - metricsBefore.SortRuns,
			MergePasses: metrics.SortMergePasses - metricsBefore.SortMergePasses,
			InMemory:    metrics.SortsInMemory - metricsBefore.SortsInMemory,
			JoinMatches: jr.Matches,
			JoinPasses:  jr.Passes,
			JoinRuns:    jr.Partitions,
		}
		if rep == 0 {
			v = round
		} else if round != v {
			return SortVirtual{}, 0, fmt.Errorf(
				"sort ladder: repeat %d of mem=%d width=%d diverged from repeat 0", rep, memPages, width)
		}
	}
	return v, wall, nil
}

// RunSort runs the ladder: for every memory rung, every width runs the
// identical plan and must reproduce the identical virtual profile.
func RunSort(cfg SortConfig) (*SortResult, error) {
	// Wall-clock speedup needs real OS-level parallelism: when the Go
	// runtime is capped below the ladder's top width (containers often
	// pin GOMAXPROCS to 1), floor it for the duration — the priority
	// ladder sets the precedent. Virtual results are unaffected either
	// way; on a single-core host speedup simply stays ~1x.
	top := 1
	for _, w := range cfg.Widths {
		top = max(top, w)
	}
	if runtime.GOMAXPROCS(0) < top {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(top))
	}
	res := &SortResult{Config: cfg, AllIdentical: true}
	for _, memPages := range cfg.MemoryPages {
		row := SortRow{MemoryPages: memPages, WidthsIdentical: true, wall: map[int]time.Duration{}}
		for i, width := range cfg.Widths {
			v, wall, err := runSortCell(cfg, memPages, width)
			if err != nil {
				return nil, err
			}
			row.wall[width] = wall
			if i == 0 {
				row.Virtual = v
			} else if v != row.Virtual {
				row.WidthsIdentical = false
				res.AllIdentical = false
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes the human-readable report; wall-clock times and speedups
// live here only, never in the JSON.
func (r *SortResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Parallel external sort — chunked run formation + merge tree\n")
	fmt.Fprintf(w, "(%d tuples, %d sort chunks, widths %v, %d timed rounds per cell)\n",
		r.Config.Tuples, r.Config.Chunks, r.Config.Widths, r.Config.Repeat)
	printHost(w)
	fmt.Fprintf(w, "\n%8s %8s %8s %12s %12s", "mem", "runs", "passes", "IOseq", "IOrand")
	for _, width := range r.Config.Widths {
		fmt.Fprintf(w, " %9s", "w="+wide(width))
	}
	fmt.Fprintf(w, " %8s %10s\n", "speedup", "identical")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8d %8d %8d %12d %12d",
			row.MemoryPages, row.Virtual.Runs, row.Virtual.MergePasses,
			row.Virtual.Counters.SeqIOs, row.Virtual.Counters.RandIOs)
		for _, width := range r.Config.Widths {
			fmt.Fprintf(w, " %9s", row.wall[width].Round(time.Millisecond))
		}
		first := row.wall[r.Config.Widths[0]]
		last := row.wall[r.Config.Widths[len(r.Config.Widths)-1]]
		speedup := 0.0
		if last > 0 {
			speedup = float64(first) / float64(last)
		}
		fmt.Fprintf(w, " %7.2fx %10v\n", speedup, row.WidthsIdentical)
	}
	if !r.AllIdentical {
		fmt.Fprintf(w, "\nVIRTUAL COUNTER MISMATCH: parallelism changed the accounting\n")
	}
}

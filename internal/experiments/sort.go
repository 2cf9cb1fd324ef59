package experiments

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"mmdb"
	"mmdb/internal/extsort"
	"mmdb/internal/join"
	"mmdb/internal/simio"
)

// SortConfig drives the parallel-sort ladder: a memory ladder (out-of-core
// through fully in-memory) crossed with a Parallelism ladder, at a pinned
// sort decomposition (extsort.Config.Chunks, join.Spec.SortChunks).
// Chunks is a plan knob — it determines the virtual counters — so it
// stays fixed while the worker count varies: the experiment's invariant
// is that every width charges bit-identical counters and produces the
// identical output order, while wall-clock time drops.
type SortConfig struct {
	Widths      []int `json:"widths"`       // Parallelism ladder, e.g. 1,2,4,8
	Chunks      int   `json:"chunks"`       // pinned sort decomposition
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

// loadSortBench loads a fresh bench with an "events" relation in shuffled
// key order (the sort input) and a smaller "ref" relation for the
// sort-merge join leg. The fill is deterministic, so every (memory, width)
// cell sorts the identical relation.
func loadSortBench(cfg SortConfig, memPages, width int) (*opBench, error) {
	b := newOpBench(cfg.PageSize, memPages, join.Spec{Parallelism: width, SortChunks: cfg.Chunks})
	// Deterministic LCG shuffle of the key space (MMIX constants).
	state := uint64(0x9E3779B97F4A7C15)
	err := b.load("events", mmdb.MustSchema(
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
	err = b.load("ref", mmdb.MustSchema(
		mmdb.Field{Name: "key", Kind: mmdb.Int64},
		mmdb.Field{Name: "tag", Kind: mmdb.Int64},
	), cfg.RefTuples, func(i int) []mmdb.Value {
		key := (uint64(i)*2862933555777941757 + 3037000493) % uint64(cfg.Tuples*4)
		return []mmdb.Value{mmdb.IntValue(int64(key)), mmdb.IntValue(int64(i))}
	})
	return b, err
}

// sortRound is one round of a cell in one query: the relation sort of
// events by key (the sort behind SQL ORDER BY, chunked per the plan) and
// the sort-merge join ref ⋈ events.
func sortRound(b *opBench) (SortVirtual, error) {
	q, err := b.query()
	if err != nil {
		return SortVirtual{}, err
	}
	defer q.close()
	events := q.files["events"]
	stream, st, err := extsort.SortWith(events, extsort.Config{
		Prefix:      "sortladder", // a round drops its run files before the next
		Input:       simio.Uncharged,
		Chunks:      q.spec.SortChunks,
		Parallelism: q.spec.Parallelism,
	}.WithMemory(events, q.grant.Pages(), q.spec.F))
	if err != nil {
		return SortVirtual{}, err
	}
	h := fnv.New64a()
	var rows int64
	for t, ok := stream.Next(); ok; t, ok = stream.Next() {
		rows++
		h.Write(t[:8])
	}
	err = errors.Join(stream.Err(), stream.Close())
	if err != nil {
		return SortVirtual{}, err
	}
	jr, err := q.join(join.SortMerge, "ref", "events", 0, nil)
	if err != nil {
		return SortVirtual{}, err
	}
	v := SortVirtual{
		Rows:        rows,
		OrderHash:   h.Sum64(),
		Counters:    q.clock.Counters(),
		JoinMatches: jr.Matches,
		JoinPasses:  jr.Passes,
		JoinRuns:    jr.Partitions,
	}
	for _, st := range []extsort.Stats{st, jr.RSort, jr.SSort} {
		v.Sorts++
		v.Runs += uint64(st.Runs)
		v.MergePasses += uint64(st.MergePasses)
		if st.InMemory {
			v.InMemory++
		}
	}
	return v, nil
}

// runSortCell executes one (memory, width) cell: Repeat timed rounds,
// returning the virtual profile of a single round and the total wall
// time.
func runSortCell(cfg SortConfig, memPages, width int) (SortVirtual, time.Duration, error) {
	b, err := loadSortBench(cfg, memPages, width)
	if err != nil {
		return SortVirtual{}, 0, err
	}
	var v SortVirtual
	var wall time.Duration
	for rep := 0; rep < cfg.Repeat; rep++ {
		start := time.Now()
		round, err := sortRound(b)
		if err != nil {
			return SortVirtual{}, 0, err
		}
		wall += time.Since(start)
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

// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (access method crossover), Figure 1 (join algorithm
// comparison), Table 2 (parameter settings), Table 3 (sensitivity sweep),
// the §3.9 aggregate study, the §4 planner reduction, and the §5
// throughput/recovery ladder. cmd/mmdbench prints them; bench_test.go
// wraps them as testing.B benchmarks; EXPERIMENTS.md records the outputs
// against the paper's claims.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"mmdb/internal/avl"
	"mmdb/internal/btree"
	"mmdb/internal/buffer"
	"mmdb/internal/core"
	"mmdb/internal/tuple"
)

// Table1Config parameterizes the access-method experiment.
type Table1Config struct {
	R           int64     // tuples (analytic model)
	EmpiricalR  int       // tuples actually inserted for the empirical check
	K, L, P     int       // key width, tuple width, page size
	Ys          []float64 // AVL comparison discounts
	Zs          []float64 // page-read weights
	SequentialN int64     // records read in the sequential-access case
	Lookups     int       // empirical lookups per memory point
	Seed        int64
}

// DefaultTable1Config returns the configuration used in EXPERIMENTS.md.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		R:          1_000_000,
		EmpiricalR: 50_000,
		K:          8, L: 100, P: 4096,
		Ys:          []float64{0.5, 0.7, 0.9, 1.0},
		Zs:          []float64{10, 20, 30},
		SequentialN: 1000,
		Lookups:     2000,
		Seed:        1,
	}
}

// Table1Result holds the analytic grid and the empirical validation.
type Table1Result struct {
	Config     Table1Config
	Random     []core.Table1Row
	Sequential []core.Table1Row
	Empirical  []EmpiricalPoint
}

// EmpiricalPoint is one memory-residency measurement over the real trees.
type EmpiricalPoint struct {
	H             float64 // fraction of the AVL structure resident
	AVLFaults     float64 // measured faults per lookup
	AVLComps      float64 // measured comparisons per lookup
	BTreeFaults   float64
	BTreeComps    float64
	AVLCostZ20Y07 float64 // Z=20, Y=0.7 costs for the crossover narrative
	BTCostZ20     float64
	// Case 2 (§2): faults per sequential scan of SeqN records starting at
	// a random key. The AVL tree touches ~one random page per record; the
	// B+-tree walks the leaf chain.
	AVLSeqFaults float64
	BTSeqFaults  float64
}

// RunTable1 reproduces Table 1: the analytic crossover grid, validated by
// driving real AVL and B+-tree lookups through a random-replacement buffer
// pool and measuring fault and comparison rates.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	base := core.AccessParams{R: cfg.R, K: cfg.K, L: cfg.L, P: cfg.P}
	random, sequential := core.Table1(base, cfg.Ys, cfg.Zs, cfg.SequentialN)
	res := &Table1Result{Config: cfg, Random: random, Sequential: sequential}

	emp, err := runTable1Empirical(cfg)
	if err != nil {
		return nil, err
	}
	res.Empirical = emp
	return res, nil
}

func runTable1Empirical(cfg Table1Config) ([]EmpiricalPoint, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema, err := tuple.NewSchema(
		tuple.Field{Name: "key", Kind: tuple.Int64},
		tuple.Field{Name: "pad", Kind: tuple.String, Size: cfg.L - 8},
	)
	if err != nil {
		return nil, err
	}

	// Build both structures over the same permuted key set.
	keys := rng.Perm(cfg.EmpiricalR)
	at := &avl.Tree{}
	bt, err := btree.New(btree.Config{PageSize: cfg.P, KeyWidth: cfg.K, TupleWidth: cfg.L})
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		t := schema.MustEncode(tuple.IntValue(int64(k)), tuple.StringValue("x"))
		at.Insert(intKey(k), t)
		bt.Insert(intKey(k), t)
	}

	// Page placement for the AVL tree: nodes packed onto pages in
	// allocation order; since insertion order is random, a root-to-leaf
	// path touches unrelated pages — the paper's "each of the C nodes to
	// be inspected will be on a different page".
	nodeBytes := cfg.L + 8
	nodesPerPage := cfg.P / nodeBytes
	avlPages := (at.NumNodes() + nodesPerPage - 1) / nodesPerPage
	btPages := bt.NumPages()

	var out []EmpiricalPoint
	for _, h := range []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99} {
		avlPool := buffer.New(max(1, int(h*float64(avlPages))), buffer.Random, nil, cfg.Seed+1)
		btPool := buffer.New(max(1, int(h*float64(avlPages))), buffer.Random, nil, cfg.Seed+2)

		// Warm both pools with random pages, then measure steady state.
		for i := 0; i < avlPool.Capacity(); i++ {
			avlPool.Warm(buffer.PageKey{Space: "avl", Page: rng.Intn(avlPages)})
		}
		for i := 0; i < btPool.Capacity() && i < btPages; i++ {
			btPool.Warm(buffer.PageKey{Space: "bt", Page: rng.Intn(btPages)})
		}
		at.ResetComparisons()
		bt.ResetComparisons()
		avlPool.ResetStats()
		btPool.ResetStats()

		for i := 0; i < cfg.Lookups; i++ {
			k := keys[rng.Intn(len(keys))]
			at.Search(intKey(k), func(id avl.NodeID) {
				avlPool.Touch(buffer.PageKey{Space: "avl", Page: int(id) / nodesPerPage})
			})
			bt.Search(intKey(k), func(id btree.NodeID) {
				btPool.Touch(buffer.PageKey{Space: "bt", Page: int(id)})
			})
		}
		n := float64(cfg.Lookups)
		pt := EmpiricalPoint{
			H:           h,
			AVLFaults:   float64(avlPool.Stats().Faults) / n,
			AVLComps:    float64(at.Comparisons()) / n,
			BTreeFaults: float64(btPool.Stats().Faults) / n,
			BTreeComps:  float64(bt.Comparisons()) / n,
		}
		pt.AVLCostZ20Y07 = 20*pt.AVLFaults + 0.7*pt.AVLComps
		pt.BTCostZ20 = 20*pt.BTreeFaults + pt.BTreeComps

		// Case 2: sequential scans of seqN records from random starts.
		const seqScans = 30
		seqN := int(cfg.SequentialN)
		if seqN > cfg.EmpiricalR/2 {
			seqN = cfg.EmpiricalR / 2
		}
		avlPool.ResetStats()
		btPool.ResetStats()
		for i := 0; i < seqScans; i++ {
			start := intKey(keys[rng.Intn(len(keys)/2)])
			read := 0
			at.Ascend(start, func(id avl.NodeID) {
				avlPool.Touch(buffer.PageKey{Space: "avl", Page: int(id) / nodesPerPage})
			}, func(_ []byte, vals []tuple.Tuple) bool {
				read += len(vals)
				return read < seqN
			})
			read = 0
			bt.AscendRange(start, func(id btree.NodeID) {
				btPool.Touch(buffer.PageKey{Space: "bt", Page: int(id)})
			}, func(_ []byte, _ tuple.Tuple) bool {
				read++
				return read < seqN
			})
		}
		pt.AVLSeqFaults = float64(avlPool.Stats().Faults) / seqScans
		pt.BTSeqFaults = float64(btPool.Stats().Faults) / seqScans
		out = append(out, pt)
	}
	return out, nil
}

// EmpiricalCrossover returns the smallest measured H at which the AVL tree
// is cheaper under Z=20, Y=0.7 (1 if never).
func (r *Table1Result) EmpiricalCrossover() float64 {
	for _, pt := range r.Empirical {
		if pt.AVLCostZ20Y07 < pt.BTCostZ20 {
			return pt.H
		}
	}
	return 1
}

// Print renders the experiment like the paper's Table 1.
func (r *Table1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 1 — minimum fraction H = |M|/S of the AVL structure that must be\n")
	fmt.Fprintf(w, "memory resident for the AVL tree to beat the B+-tree (||R||=%d, K=%d, L=%d, P=%d)\n\n",
		r.Config.R, r.Config.K, r.Config.L, r.Config.P)
	fmt.Fprintf(w, "Random access (case 1):\n        ")
	for _, y := range r.Config.Ys {
		fmt.Fprintf(w, "  Y=%-5.2f", y)
	}
	fmt.Fprintln(w)
	for _, row := range r.Random {
		fmt.Fprintf(w, "  Z=%-4.0f", row.Z)
		for _, h := range row.CrossoverH {
			fmt.Fprintf(w, "  %-7.3f", h)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nSequential access of %d records (case 2):\n        ", r.Config.SequentialN)
	for _, y := range r.Config.Ys {
		fmt.Fprintf(w, "  Y=%-5.2f", y)
	}
	fmt.Fprintln(w)
	for _, row := range r.Sequential {
		fmt.Fprintf(w, "  Z=%-4.0f", row.Z)
		for _, h := range row.CrossoverH {
			fmt.Fprintf(w, "  %-7.3f", h)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nEmpirical validation (%d-tuple trees, random-replacement pool, %d lookups/point):\n",
		r.Config.EmpiricalR, r.Config.Lookups)
	fmt.Fprintf(w, "  %-6s %11s %11s %11s %11s %15s %11s %10s %10s\n",
		"H", "AVL faults", "AVL comps", "B+ faults", "B+ comps", "AVL cost(20,.7)", "B+ cost(20)", "AVL seq", "B+ seq")
	for _, pt := range r.Empirical {
		fmt.Fprintf(w, "  %-6.2f %11.2f %11.2f %11.2f %11.2f %15.1f %11.1f %10.1f %10.1f\n",
			pt.H, pt.AVLFaults, pt.AVLComps, pt.BTreeFaults, pt.BTreeComps,
			pt.AVLCostZ20Y07, pt.BTCostZ20, pt.AVLSeqFaults, pt.BTSeqFaults)
	}
	fmt.Fprintf(w, "  measured crossover (Z=20, Y=0.7): H ≈ %.2f — paper's claim: 0.80-0.90+\n", r.EmpiricalCrossover())
	fmt.Fprintf(w, "  seq columns: faults per sequential scan of %d records (case 2) — the AVL\n", r.Config.SequentialN)
	fmt.Fprintln(w, "  tree touches one scattered page per record, the B+-tree one leaf per ~28.")
}

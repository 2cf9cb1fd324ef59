package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"mmdb/internal/avl"
	"mmdb/internal/btree"
	"mmdb/internal/buffer"
	"mmdb/internal/core"
	"mmdb/internal/cost"
	"mmdb/internal/event"
	"mmdb/internal/join"
	"mmdb/internal/pbtree"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
	"mmdb/internal/workload"
)

// AblationResult collects the design-choice studies DESIGN.md calls out:
// things the paper mentions in footnotes or leaves to future work, each
// measured against the mainline choice.
type AblationResult struct {
	PagedTrees []PagedTreeRow
	Policies   []PolicyRow
	HybridSkew []SkewRow
	GraceParts []GraceRow
	TIDvsTuple []TIDRow
	Versioning []VersioningRow
}

// --- §2 footnote: paged binary tree vs AVL vs B+-tree ---

// PagedTreeRow compares page-access costs of the three structures.
type PagedTreeRow struct {
	Structure   string
	InsertOrder string
	Pages       int     // structure size S in pages
	MeanLookup  float64 // mean pages touched per lookup
	WorstLookup int     // worst pages touched observed
}

func runPagedTrees() ([]PagedTreeRow, error) {
	const n = 30000
	const L = 100
	const P = 4096
	schema := tuple.MustSchema(
		tuple.Field{Name: "key", Kind: tuple.Int64},
		tuple.Field{Name: "pad", Kind: tuple.String, Size: L - 8},
	)
	var rows []PagedTreeRow
	for _, order := range []string{"random", "sorted"} {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = i
		}
		rng := rand.New(rand.NewSource(8))
		if order == "random" {
			rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		}
		tup := schema.MustEncode(tuple.IntValue(0), tuple.StringValue("x"))

		at := &avl.Tree{}
		bt := btree.MustNew(btree.Config{PageSize: P, KeyWidth: 8, TupleWidth: L})
		pt := pbtree.MustNew(pbtree.Config{PageSize: P, TupleWidth: L})
		for _, k := range keys {
			at.Insert(intKey(k), tup)
			bt.Insert(intKey(k), tup)
			pt.Insert(intKey(k), tup)
		}
		nodesPerPage := P / (L + 8)
		avlPages := (at.NumNodes() + nodesPerPage - 1) / nodesPerPage

		const lookups = 1500
		measure := func(structure string, pages int, path func(k int) int) PagedTreeRow {
			total, worst := 0, 0
			for i := 0; i < lookups; i++ {
				p := path(keys[rng.Intn(n)])
				total += p
				if p > worst {
					worst = p
				}
			}
			return PagedTreeRow{
				Structure:   structure,
				InsertOrder: order,
				Pages:       pages,
				MeanLookup:  float64(total) / lookups,
				WorstLookup: worst,
			}
		}
		rows = append(rows,
			measure("avl (one node/page access)", avlPages, func(k int) int {
				pages := map[avl.NodeID]bool{}
				at.Search(intKey(k), func(id avl.NodeID) { pages[id/avl.NodeID(nodesPerPage)] = true })
				return len(pages)
			}),
			measure("paged binary tree", pt.NumPages(), func(k int) int {
				return pt.PathPages(intKey(k))
			}),
			measure("b+tree", bt.NumPages(), func(k int) int {
				c := 0
				bt.Search(intKey(k), func(btree.NodeID) { c++ })
				return c
			}),
		)
	}
	return rows, nil
}

// --- §6 future work: buffer replacement policies ---

// PolicyRow is the fault rate of one replacement policy on a B+-tree
// lookup workload at half residency.
type PolicyRow struct {
	Policy    buffer.Policy
	H         float64
	FaultRate float64 // faults per lookup
}

func runPolicies() ([]PolicyRow, error) {
	const n = 50000
	bt := btree.MustNew(btree.Config{PageSize: 4096, KeyWidth: 8, TupleWidth: 100})
	rng := rand.New(rand.NewSource(9))
	perm := rng.Perm(n)
	for _, k := range perm {
		bt.Insert(intKey(k), make(tuple.Tuple, 100))
	}
	var rows []PolicyRow
	for _, h := range []float64{0.25, 0.5} {
		for _, pol := range []buffer.Policy{buffer.Random, buffer.LRU, buffer.Clock} {
			pool := buffer.New(max(1, int(h*float64(bt.NumPages()))), pol, nil, 10)
			const lookups = 4000
			for i := 0; i < lookups; i++ {
				k := perm[rng.Intn(n)]
				bt.Search(intKey(k), func(id btree.NodeID) {
					pool.Touch(buffer.PageKey{Space: "bt", Page: int(id)})
				})
			}
			rows = append(rows, PolicyRow{
				Policy:    pol,
				H:         h,
				FaultRate: float64(pool.Stats().Faults) / lookups,
			})
		}
	}
	return rows, nil
}

// --- hybrid hash partition sizing ---

// SkewRow compares the paper's exact-fit partition count with the
// variance-absorbing default.
type SkewRow struct {
	Skew    float64
	Passes  int
	Seconds float64
}

func runHybridSkew() ([]SkewRow, error) {
	clock := cost.NewClock(cost.DefaultParams())
	disk := simio.NewDisk(clock, 4096)
	r := workload.MustGenerate(disk, workload.RelationSpec{Name: "sk.R", Tuples: 20000, KeyDomain: 20000, Seed: 12})
	s := workload.MustGenerate(disk, workload.RelationSpec{Name: "sk.S", Tuples: 20000, KeyDomain: 20000, Seed: 13})
	var rows []SkewRow
	for _, skew := range []float64{1.0, 1.25, 1.5} {
		res, err := join.Run(join.HybridHash, join.Spec{
			R: r, S: s, M: 30, F: 1.2, HybridSkew: skew,
		}, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SkewRow{
			Skew:    skew,
			Passes:  res.Passes,
			Seconds: res.Counters.Time(clock.Params()).Seconds(),
		})
	}
	return rows, nil
}

// --- GRACE partition count ---

// GraceRow compares §3.6's literal "|M| sets" against the
// fragmentation-aware fit on a small relation.
type GraceRow struct {
	Label      string
	Partitions int
	Seconds    float64
}

func runGraceParts() ([]GraceRow, error) {
	clock := cost.NewClock(cost.DefaultParams())
	disk := simio.NewDisk(clock, 4096)
	r := workload.MustGenerate(disk, workload.RelationSpec{Name: "gp.R", Tuples: 20000, KeyDomain: 20000, Seed: 14})
	s := workload.MustGenerate(disk, workload.RelationSpec{Name: "gp.S", Tuples: 20000, KeyDomain: 20000, Seed: 15})
	var rows []GraceRow
	for _, tc := range []struct {
		label string
		parts int
	}{
		{"paper: B = |M|", 400},
		{"fitted (default)", 0},
	} {
		res, err := join.Run(join.GraceHash, join.Spec{
			R: r, S: s, M: 400, F: 1.2, GraceParts: tc.parts,
		}, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GraceRow{
			Label:      tc.label,
			Partitions: res.Partitions,
			Seconds:    res.Counters.Time(clock.Params()).Seconds(),
		})
	}
	return rows, nil
}

// --- §3.2: TID-key pairs vs whole tuples ---

// TIDRow evaluates the paper's observation that the whole-tuple vs
// TID-key-pair decision "affects our algorithms only in the values
// assigned to certain parameters": shrinking the move cost models TID
// manipulation.
type TIDRow struct {
	Label     string
	MoveCost  time.Duration
	HybridSec float64 // analytic hybrid at ratio 0.1
}

func runTIDvsTuple() []TIDRow {
	w := core.Table2Workload()
	var rows []TIDRow
	for _, tc := range []struct {
		label string
		move  time.Duration
	}{
		{"whole tuples (Table 2)", 20 * time.Microsecond},
		{"TID-key pairs", 4 * time.Microsecond},
	} {
		p := cost.DefaultParams()
		p.Move = tc.move
		c := core.HybridHashCost(p, w, 1200)
		rows = append(rows, TIDRow{Label: tc.label, MoveCost: tc.move, HybridSec: c.Total()})
	}
	return rows
}

// --- §6 future work: versioning vs locking for read-only transactions ---

// VersioningRow is one side of the readers study.
type VersioningRow struct {
	Mode      string
	WriterTPS float64
	ReaderTPS float64
}

func runVersioning() ([]VersioningRow, error) {
	mk := func(versioning bool, readers int) (txn.Stats, error) {
		sim := &event.Sim{}
		cfg := txn.Config{
			Accounts:          64,
			RecordsPerPage:    16,
			Terminals:         20,
			ReadOnlyTerminals: readers,
			ReadAccounts:      64,
			ReadCPU:           2 * time.Millisecond,
			Versioning:        versioning,
			Seed:              16,
			Log: wal.Config{
				Policy:  wal.GroupCommit,
				Devices: []*wal.Device{wal.NewDevice("log", 10*time.Millisecond)},
			},
		}
		e, err := txn.New(sim, cfg)
		if err != nil {
			return txn.Stats{}, err
		}
		return e.Run(5 * time.Second), nil
	}
	var rows []VersioningRow
	base, err := mk(false, 0)
	if err != nil {
		return nil, err
	}
	rows = append(rows, VersioningRow{Mode: "no readers (baseline)", WriterTPS: base.TPS()})
	locked, err := mk(false, 8)
	if err != nil {
		return nil, err
	}
	rows = append(rows, VersioningRow{Mode: "2PL shared locks", WriterTPS: locked.TPS(), ReaderTPS: locked.ReadTPS()})
	versioned, err := mk(true, 8)
	if err != nil {
		return nil, err
	}
	rows = append(rows, VersioningRow{Mode: "versioning [REED83]", WriterTPS: versioned.TPS(), ReaderTPS: versioned.ReadTPS()})
	return rows, nil
}

// RunAblations executes every study.
func RunAblations() (*AblationResult, error) {
	res := &AblationResult{TIDvsTuple: runTIDvsTuple()}
	var err error
	if res.PagedTrees, err = runPagedTrees(); err != nil {
		return nil, err
	}
	if res.Policies, err = runPolicies(); err != nil {
		return nil, err
	}
	if res.HybridSkew, err = runHybridSkew(); err != nil {
		return nil, err
	}
	if res.GraceParts, err = runGraceParts(); err != nil {
		return nil, err
	}
	if res.Versioning, err = runVersioning(); err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders all studies.
func (r *AblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablations — footnotes, future work and design choices")

	fmt.Fprintln(w, "\n[A] §2 footnote — paged binary tree between AVL and B+-tree:")
	fmt.Fprintf(w, "  %-28s %-8s %8s %12s %8s\n", "structure", "inserts", "pages", "mean pg/get", "worst")
	for _, row := range r.PagedTrees {
		fmt.Fprintf(w, "  %-28s %-8s %8d %12.2f %8d\n",
			row.Structure, row.InsertOrder, row.Pages, row.MeanLookup, row.WorstLookup)
	}

	fmt.Fprintln(w, "\n[B] §6 — buffer replacement policy (B+-tree lookups):")
	fmt.Fprintf(w, "  %-10s %6s %14s\n", "policy", "H", "faults/lookup")
	for _, row := range r.Policies {
		fmt.Fprintf(w, "  %-10v %6.2f %14.2f\n", row.Policy, row.H, row.FaultRate)
	}

	fmt.Fprintln(w, "\n[C] hybrid hash partition sizing (exact-fit vs skew slack, tight memory):")
	fmt.Fprintf(w, "  %-8s %8s %12s\n", "skew", "passes", "virt secs")
	for _, row := range r.HybridSkew {
		fmt.Fprintf(w, "  %-8.2f %8d %12.1f\n", row.Skew, row.Passes, row.Seconds)
	}

	fmt.Fprintln(w, "\n[D] GRACE partition count (500-page relation, |M|=400):")
	fmt.Fprintf(w, "  %-22s %12s %12s\n", "choice", "partitions", "virt secs")
	for _, row := range r.GraceParts {
		fmt.Fprintf(w, "  %-22s %12d %12.1f\n", row.Label, row.Partitions, row.Seconds)
	}

	fmt.Fprintln(w, "\n[E] §3.2 — whole tuples vs TID-key pairs (analytic hybrid, ratio 0.1):")
	for _, row := range r.TIDvsTuple {
		fmt.Fprintf(w, "  %-24s move=%-6v %10.1f s\n", row.Label, row.MoveCost, row.HybridSec)
	}

	fmt.Fprintln(w, "\n[F] §6 — read-only transactions: locking vs versioning (hot store):")
	fmt.Fprintf(w, "  %-24s %12s %12s\n", "mode", "writer tps", "reader tps")
	for _, row := range r.Versioning {
		fmt.Fprintf(w, "  %-24s %12.1f %12.1f\n", row.Mode, row.WriterTPS, row.ReaderTPS)
	}
}

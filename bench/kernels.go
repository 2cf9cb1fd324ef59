package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mmdb"
	"mmdb/internal/agg"
	"mmdb/internal/btree"
	"mmdb/internal/catalog"
	"mmdb/internal/cost"
	"mmdb/internal/extsort"
	"mmdb/internal/hashjoin"
	"mmdb/internal/heap"
	"mmdb/internal/join"
	"mmdb/internal/lock"
	"mmdb/internal/session"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
	"mmdb/internal/wal"
)

// fixture is the workload's tables rebuilt with heap.Create on a
// private disk — shadow copies the kernels below can scan, rewrite
// and join without touching the database the clients query.
type fixture struct {
	d     *dataset
	grant int // pages, the workload's per-session grant
	db    *mmdb.Database

	clock *cost.Clock
	disk  *simio.Disk
	emp   *heap.File
	sale  *heap.File
	empT  []tuple.Tuple
	saleT []tuple.Tuple
	rng   *rand.Rand

	scratch *heap.File // heap.append's target
	rewrite *heap.File // heap.rewrite's table
	tree    *btree.Tree
	cat     *catalog.Catalog
	table   *hashjoin.KernelTable
	parts   []hashjoin.PartitionResult
	locks   *session.LockTable
	walRecs []wal.Record
	walPage []byte

	// counts the exact metrics read after the kernels ran
	spillIOs, groups, sortRuns, sortPasses int64
}

func newFixture(d *dataset, grant int, db *mmdb.Database) (*fixture, error) {
	fx := &fixture{d: d, grant: grant, db: db, rng: rand.New(rand.NewSource(1))}
	fx.clock = cost.NewClock(cost.DefaultParams())
	fx.disk = simio.NewDisk(fx.clock, 4096)
	for id := int64(1); id <= int64(d.N); id++ {
		fx.empT = append(fx.empT, empSchema.MustEncode(
			mmdb.IntValue(id), mmdb.IntValue(empDept(d.ND, id)), mmdb.IntValue(empSalary(id))))
	}
	for i := range d.SaleEmp {
		fx.saleT = append(fx.saleT, saleSchema.MustEncode(
			mmdb.IntValue(int64(i+1)), mmdb.IntValue(d.SaleEmp[i]), mmdb.IntValue(d.SaleAmount[i])))
	}
	var err error
	if fx.emp, err = fx.load("emp", empSchema, fx.empT); err != nil {
		return nil, err
	}
	if fx.saleT != nil {
		if fx.sale, err = fx.load("sale", saleSchema, fx.saleT); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

func (fx *fixture) load(name string, schema *tuple.Schema, rows []tuple.Tuple) (*heap.File, error) {
	f, err := heap.Create(fx.disk, name, schema)
	if err != nil {
		return nil, err
	}
	return f, f.Load(rows)
}

func (fx *fixture) newTree() (*btree.Tree, error) {
	return btree.New(btree.Config{PageSize: 4096, KeyWidth: 8, TupleWidth: empSchema.Width()})
}

// kernel is one layer operation timed on the fixture. prep (untimed)
// readies a repetition; run (timed) does it and returns the units of
// work it did, which the per-unit metrics divide by.
type kernel struct {
	name  string   // the per-layer metric it reports
	perNS float64  // ns per unit of that metric: 1 for ns, 1e3 for us, 1e6 for ms
	on    []string // workloads whose statements use the layer; 0 elsewhere
	prep  func(fx *fixture) error
	run   func(fx *fixture) (int64, error)
}

var sqlWorkloads = []string{"point_read", "analytic_spill", "write_mix"}
var indexWorkloads = []string{"point_read", "write_mix"}
var analytic = []string{"analytic_spill"}

const kernelBatch = 10_000 // calls per repetition of the per-call kernels

var kernels = []kernel{
	{name: "heap.scan_ns_per_tuple", perNS: 1, on: sqlWorkloads,
		run: func(fx *fixture) (int64, error) {
			var n int64
			err := fx.emp.Scan(simio.Seq, func(tuple.Tuple) bool { n++; return true })
			return n, err
		}},
	{name: "heap.append_ns_per_tuple", perNS: 1, on: sqlWorkloads,
		prep: func(fx *fixture) (err error) {
			if fx.scratch != nil {
				fx.scratch.Drop()
			}
			fx.scratch, err = heap.Create(fx.disk, "scratch", empSchema)
			return err
		},
		run: func(fx *fixture) (int64, error) {
			return int64(len(fx.empT)), fx.scratch.Load(fx.empT)
		}},
	// DELETE of two rows is a full File.Rewrite: time exactly that, on
	// a table two rows over its loaded size.
	{name: "heap.rewrite_ms", perNS: 1e6, on: []string{"write_mix"},
		prep: func(fx *fixture) (err error) {
			if fx.rewrite == nil {
				if fx.rewrite, err = fx.load("rewrite", empSchema, fx.empT); err != nil {
					return err
				}
			}
			for i := int64(1); i <= 2; i++ {
				extra := empSchema.MustEncode(mmdb.IntValue(int64(fx.d.N)+i), mmdb.IntValue(1), mmdb.IntValue(40000))
				if err := fx.rewrite.Append(extra, simio.Uncharged); err != nil {
					return err
				}
			}
			return fx.rewrite.Flush(simio.Uncharged)
		},
		run: func(fx *fixture) (int64, error) {
			n := int64(fx.d.N)
			err := fx.rewrite.Rewrite(func(t tuple.Tuple) (tuple.Tuple, bool) {
				return t, empSchema.Int(t, 0) <= n
			})
			return 1, err
		}},
	{name: "btree.insert_ns", perNS: 1, on: indexWorkloads,
		prep: func(fx *fixture) (err error) {
			fx.tree, err = fx.newTree()
			return err
		},
		run: func(fx *fixture) (int64, error) {
			for _, t := range fx.empT {
				fx.tree.Insert(empSchema.KeyBytes(t, 0), t)
			}
			return int64(len(fx.empT)), nil
		}},
	// Runs after btree.insert_ns, on the tree it leaves behind.
	{name: "btree.search_ns", perNS: 1, on: indexWorkloads,
		run: func(fx *fixture) (int64, error) {
			for i := 0; i < kernelBatch; i++ {
				t := fx.empT[fx.rng.Intn(len(fx.empT))]
				if len(fx.tree.Search(empSchema.KeyBytes(t, 0), nil)) != 1 {
					return 0, fmt.Errorf("btree: key not found")
				}
			}
			return kernelBatch, nil
		}},
	{name: "catalog.build_index_ms", perNS: 1e6, on: indexWorkloads,
		prep: func(fx *fixture) error {
			if fx.cat != nil {
				return nil
			}
			fx.cat = catalog.New(fx.disk)
			_, err := fx.cat.Adopt(fx.emp)
			return err
		},
		run: func(fx *fixture) (int64, error) {
			_, err := fx.cat.BuildIndex(fx.emp.Name(), 0, catalog.BTree)
			return 1, err
		}},
	// The one kernel on the live database: the index path SQL does not
	// take yet.
	{name: "mmdb.lookup_us", perNS: 1e3, on: indexWorkloads,
		run: func(fx *fixture) (int64, error) {
			rel, err := fx.db.Relation("emp")
			if err != nil {
				return 0, err
			}
			for i := 0; i < kernelBatch; i++ {
				rows, err := rel.Lookup("id", mmdb.IntValue(1+fx.rng.Int63n(int64(fx.d.N))))
				if err != nil || len(rows) != 1 {
					return 0, fmt.Errorf("lookup: %d rows, %v", len(rows), err)
				}
			}
			return kernelBatch, nil
		}},
	{name: "lock.acquire_release_ns", perNS: 1, on: []string{"write_mix"},
		prep: func(fx *fixture) error {
			if fx.locks == nil {
				fx.locks = session.NewLockTable()
			}
			return nil
		},
		run: func(fx *fixture) (int64, error) {
			ctx := context.Background()
			res := catalog.ResourceID("emp")
			for i := 0; i < kernelBatch; i++ {
				mode := lock.Shared
				if i%2 == 1 {
					mode = lock.Exclusive
				}
				id := fx.locks.NextID()
				if _, err := fx.locks.Acquire(ctx, id, res, mode); err != nil {
					return 0, err
				}
				fx.locks.Release(id)
			}
			return kernelBatch, nil
		}},
	{name: "hashjoin.build_ns_per_tuple", perNS: 1, on: analytic,
		run: func(fx *fixture) (int64, error) {
			h := hashjoin.NewFastHasher(fx.clock, 0)
			fx.table = hashjoin.NewKernelTable(fx.clock, empSchema, 0, len(fx.empT))
			for _, t := range fx.empT {
				fx.table.Insert(h.Hash(empSchema.KeyBytes(t, 0)), t)
			}
			return int64(len(fx.empT)), nil
		}},
	// Runs after hashjoin.build, probing the table it leaves behind
	// with sale.emp in batches, as the join's prober does.
	{name: "hashjoin.probe_ns_per_tuple", perNS: 1, on: analytic,
		run: func(fx *fixture) (int64, error) {
			h := hashjoin.NewFastHasher(fx.clock, 0)
			keyOf := func(t tuple.Tuple) []byte { return saleSchema.KeyBytes(t, 1) }
			batch := make([]hashjoin.Keyed, 0, fx.table.BatchSize())
			var matches int64
			flush := func() {
				fx.table.ProbeBatch(batch, keyOf, func(int, tuple.Tuple) { matches++ })
				batch = batch[:0]
			}
			for _, t := range fx.saleT {
				batch = append(batch, hashjoin.Keyed{Hash: h.Hash(keyOf(t)), Tuple: t})
				if len(batch) == cap(batch) {
					flush()
				}
			}
			flush()
			if matches != int64(len(fx.saleT)) {
				return 0, fmt.Errorf("probe: %d matches for %d sales", matches, len(fx.saleT))
			}
			return matches, nil
		}},
	{name: "hashjoin.partition_ns_per_tuple", perNS: 1, on: analytic,
		prep: func(fx *fixture) error {
			for _, p := range fx.parts {
				p.File.Drop()
			}
			fx.parts = nil
			return nil
		},
		run: func(fx *fixture) (int64, error) {
			const b = 16
			h := hashjoin.NewFastHasher(fx.clock, 0)
			split := hashjoin.Uniform(b)
			p, err := hashjoin.NewPartitioner(fx.disk, fx.clock, saleSchema, "part", b, simio.Rand)
			if err != nil {
				return 0, err
			}
			for _, t := range fx.saleT {
				if err := p.Add(split.Partition(h.Hash(saleSchema.KeyBytes(t, 1))), t); err != nil {
					return 0, err
				}
			}
			fx.parts, err = p.Close()
			return int64(len(fx.saleT)), err
		}},
	{name: "join.hybrid_ms", perNS: 1e6, on: analytic,
		run: func(fx *fixture) (int64, error) {
			res, err := join.Run(join.HybridHash, join.Spec{R: fx.emp, S: fx.sale, RCol: 0, SCol: 1, M: fx.grant}, nil)
			if err == nil && res.Matches != int64(len(fx.saleT)) {
				err = fmt.Errorf("join: %d matches for %d sales", res.Matches, len(fx.saleT))
			}
			fx.spillIOs = res.Counters.SeqIOs + res.Counters.RandIOs
			return 1, err
		}},
	{name: "agg.hash_ms", perNS: 1e6, on: analytic,
		run: func(fx *fixture) (int64, error) {
			res, err := agg.Hash(agg.Spec{Input: fx.emp, GroupCol: 1, ValueCol: 2, M: fx.grant})
			if err != nil {
				return 0, err
			}
			fx.groups = int64(len(res.Groups))
			return 1, nil
		}},
	// The sort Session.OrderBy runs for topk: sale by amount, queue
	// memory and fan-in from the grant.
	{name: "extsort.sort_ms", perNS: 1e6, on: analytic,
		run: func(fx *fixture) (int64, error) {
			stream, stats, err := extsort.SortWith(fx.sale, extsort.Config{
				Col:       2,
				MemTuples: int(float64(fx.grant) * float64(fx.sale.TuplesPerPage()) / 1.2),
				MaxFanout: fx.grant,
				Prefix:    "sort",
				Input:     simio.Uncharged,
			})
			if err != nil {
				return 0, err
			}
			n := 0
			for _, ok := stream.Next(); ok; _, ok = stream.Next() {
				n++
			}
			if err := stream.Err(); err != nil {
				return 0, err
			}
			if n != len(fx.saleT) {
				return 0, fmt.Errorf("sort: streamed %d of %d tuples", n, len(fx.saleT))
			}
			fx.sortRuns, fx.sortPasses = int64(stats.Runs), int64(stats.MergePasses)
			return 1, stream.Close()
		}},
	// One log page of eight debit/credit transactions, as §5.1 sizes
	// them: begin, three 46-byte updates, commit.
	{name: "wal.encode_page_us", perNS: 1e3, on: []string{"txn_recover"},
		prep: func(fx *fixture) error {
			if fx.walRecs != nil {
				return nil
			}
			lsn := wal.LSN(1)
			add := func(r wal.Record) {
				r.LSN = lsn
				lsn++
				fx.walRecs = append(fx.walRecs, r)
			}
			img := make([]byte, txnRecordBytes)
			for t := wal.TxnID(1); t <= 8; t++ {
				add(wal.Record{Txn: t, Type: wal.Begin})
				for u := uint64(0); u < 3; u++ {
					add(wal.Record{Txn: t, Type: wal.Update, Rec: uint64(t)*100 + u, Old: img, New: img})
				}
				add(wal.Record{Txn: t, Type: wal.Commit})
			}
			return nil
		},
		run: func(fx *fixture) (n int64, err error) {
			for ; n < kernelBatch/10; n++ {
				if fx.walPage, err = wal.EncodePage(fx.walRecs, 4096); err != nil {
					return 0, err
				}
			}
			return n, nil
		}},
	// Runs after wal.encode_page_us, on the page it leaves behind.
	{name: "wal.decode_page_us", perNS: 1e3, on: []string{"txn_recover"},
		run: func(fx *fixture) (n int64, err error) {
			for ; n < kernelBatch/10; n++ {
				recs, intact := wal.DecodePageTail(fx.walPage)
				if !intact || len(recs) != len(fx.walRecs) {
					return 0, fmt.Errorf("wal: decoded %d of %d records", len(recs), len(fx.walRecs))
				}
			}
			return n, nil
		}},
}

var kernelByName = func() map[string]kernel {
	m := make(map[string]kernel, len(kernels))
	for _, k := range kernels {
		m[k.name] = k
	}
	return m
}()

// runKernels repeats each kernel that applies to the workload for an
// equal share of the budget (at least three times), a span per
// repetition.
func runKernels(fx *fixture, workload string, tr *tracer, budget time.Duration) error {
	var applicable []kernel
	for _, k := range kernels {
		if slices.Contains(k.on, workload) {
			applicable = append(applicable, k)
		}
	}
	if len(applicable) == 0 {
		return nil
	}
	each := budget / time.Duration(len(applicable))
	tr.on = true
	for _, k := range applicable {
		start := time.Now()
		for rep := 0; rep < 3 || time.Since(start) < each; rep++ {
			if k.prep != nil {
				if err := k.prep(fx); err != nil {
					return fmt.Errorf("%s: %w", k.name, err)
				}
			}
			id := tr.begin(kernelPrefix+k.name, 0, rep)
			n, err := k.run(fx)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
			tr.spans[id-1].Count = n
		}
	}
	return nil
}

package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"mmdb"
	"mmdb/internal/event"
	"mmdb/internal/recovery"
	"mmdb/internal/txn"
)

// loadRelation is the ladders' one fixture: it creates the named relation,
// inserts row(0) … row(n-1) and flushes. Loading is uncharged, and every
// row function in this package is deterministic, so every rung of every
// ladder that loads the same relation sees the identical bytes.
func loadRelation(db *mmdb.Database, name string, schema *mmdb.Schema, n int, row func(i int) []mmdb.Value) error {
	rel, err := db.CreateRelation(name, schema)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := rel.Insert(row(i)...); err != nil {
			return err
		}
	}
	return rel.Flush()
}

// loadEmpDept opens an engine with opts and loads the two relations the
// serving ladders query: emp(id, dept, salary) with tuples rows and
// dept(id, budget) with groups rows.
func loadEmpDept(opts mmdb.Options, tuples, groups int) (*mmdb.Database, error) {
	db, err := mmdb.Open(opts)
	if err != nil {
		return nil, err
	}
	err = loadRelation(db, "emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
	), tuples, func(i int) []mmdb.Value {
		return []mmdb.Value{mmdb.IntValue(int64(i)), mmdb.IntValue(int64(i % groups)), mmdb.IntValue(int64(1000 + i%700))}
	})
	if err != nil {
		return nil, err
	}
	err = loadRelation(db, "dept", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "budget", Kind: mmdb.Int64},
	), groups, func(i int) []mmdb.Value {
		return []mmdb.Value{mmdb.IntValue(int64(i)), mmdb.IntValue(int64(i * 10))}
	})
	return db, err
}

// oneShot runs fn in a session of its own and closes it, so what fn
// charged is in db's clock when oneShot returns.
func oneShot(db *mmdb.Database, fn func(*mmdb.Session) error) error {
	s, err := db.NewSession(context.Background())
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(s)
}

// intKey encodes k the way tuple.Schema encodes an Int64 field (big-endian,
// sign bit flipped), so the index structures order keys numerically.
func intKey(k int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(int64(k))^(1<<63))
	return b[:]
}

// crashRun runs e for runFor and returns the crash image e.CrashInput saw
// at virtual time crashAt, plus the run's stats. Run drains every queued
// event, so the capture always happens.
func crashRun(sim *event.Sim, e *txn.Engine, crashAt, runFor time.Duration) (recovery.Input, txn.Stats) {
	var in recovery.Input
	sim.At(crashAt, func() { in = e.CrashInput() })
	return in, e.Run(runFor)
}

// fanOut runs fn(0) … fn(n-1) on n goroutines — a ladder's concurrent
// clients — waits for all of them, and returns the first error reported.
// A failing client stops only itself; the others run to completion.
func fanOut(n int, fn func(client int) error) error {
	errs := make(chan error, n) // one slot per client, so no send blocks
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := fn(c); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs // nil when no client failed
}

// percentile sorts samples in place and returns the p-quantile (0 ≤ p ≤ 1),
// zero for no samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[int(p*float64(len(samples)-1))]
}

// printHost writes the one line every wall-clock figure on stdout is
// read against. Wall time is a measurement of this host, not a result of
// the cost model, which is why it is printed and never written to a
// committed BENCH file.
func printHost(w io.Writer) {
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s — wall-clock columns are this host's; * = wider than its CPUs\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// wide formats a width or client count, starred when it exceeds the
// host's CPUs: such a cell measures oversubscription, not parallelism.
func wide(n int) string {
	if n > runtime.NumCPU() {
		return fmt.Sprintf("%d*", n)
	}
	return fmt.Sprint(n)
}

package mmdb

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// inPlaceStmts is a seeded sequence of one-row INSERTs and DELETEs on
// t(id, dept, v). A one-row INSERT ships as one op, so a replica passes
// through exactly the primary's states.
func inPlaceStmts(n int) []string {
	rng := rand.New(rand.NewSource(41))
	next := int64(200)
	var out []string
	for len(out) < n {
		if rng.Intn(10) < 6 {
			out = append(out, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", next, rng.Int63n(5), rng.Int63n(1000)))
			next++
			continue
		}
		where, _ := dmlDelete(rng, next)
		if where == "" {
			continue
		}
		out = append(out, "DELETE FROM t WHERE "+where)
	}
	return out
}

// openInPlaceTable creates t on db and loads its first 200 rows, 20 pages
// of 256 bytes, so an index probe is cheaper than the scan.
func openInPlaceTable(t *testing.T, db *Database) {
	t.Helper()
	if _, err := db.CreateRelation("t", inPlaceSchema); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 0; i < 200; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%5, i*7%1000))
	}
	mustQuery(t, db, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
}

// inPlaceRead is one reader session's statements and what it saw.
type inPlaceRead struct {
	where []string   // the WHEREs of the reads after the snapshot
	all   []Tuple    // SELECT * FROM t: the snapshot
	got   [][]Tuple  // each WHERE's rows
	kept  [][][]byte // copies of got, taken when read
	keep  []func(int64, int64, int64) bool
}

// TestConcurrentInPlaceScan: reads hand out views of the stored pages,
// which a write rewrites in place, so a read must never run beside a
// write to its table. Readers run filtered scans and index probes while
// SQL INSERTs and DELETEs change the same table — on the primary of a
// one-replica cluster, and on the replica its applier is replaying onto.
// Each reader session reads the whole table first, then, under the same
// shared intents, a filtered scan, a point probe and a range probe. The
// snapshot must be a state the unindexed twin passed through, and each
// later read must return exactly the snapshot's rows that pass its WHERE,
// in the snapshot's order. Once the writer is done, every result row must
// still hold the bytes it was read with: results are copies, not views.
func TestConcurrentInPlaceScan(t *testing.T) {
	stmts := inPlaceStmts(150)

	// The unindexed twin, run serially, gives every state the table
	// passes through.
	twin := MustOpen(Options{PageSize: 256, MemoryPages: 8})
	openInPlaceTable(t, twin)
	states := map[string]bool{}
	record := func() {
		var b strings.Builder
		for _, r := range mustQuery(t, twin, "SELECT * FROM t").Rows {
			b.Write(r)
		}
		states[b.String()] = true
	}
	record()
	for _, q := range stmts {
		mustQuery(t, twin, q)
		record()
	}

	c, err := OpenCluster(Options{PageSize: 256, MemoryPages: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	openInPlaceTable(t, c.Primary())
	rel, err := c.Primary().Relation("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.CreateIndex("id", BTree); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, c)

	var done sync.WaitGroup
	writing := make(chan struct{})
	var mu sync.Mutex
	var reads []*inPlaceRead
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	reader := func(name string, db *Database, seed int64) {
		defer done.Done()
		rng := rand.New(rand.NewSource(seed))
		for n := 0; ; n++ {
			select {
			case <-writing:
				if n >= 4 {
					return
				}
			default:
			}
			r, err := inPlaceSession(db, rng)
			if err != nil {
				fail("%s: %v", name, err)
				return
			}
			var b strings.Builder
			for _, row := range r.all {
				b.Write(row)
			}
			if !states[b.String()] {
				fail("%s: the snapshot of %d rows is no state of the twin", name, len(r.all))
				return
			}
			for i, where := range r.where {
				var want []Tuple
				for _, row := range r.all {
					if r.keep[i](tupleInts(row)) {
						want = append(want, row)
					}
				}
				if !slices.EqualFunc(r.got[i], want, func(a, b Tuple) bool { return string(a) == string(b) }) {
					fail("%s: WHERE %s: %d rows, the snapshot has %d", name, where, len(r.got[i]), len(want))
					return
				}
			}
			mu.Lock()
			reads = append(reads, r)
			mu.Unlock()
		}
	}
	done.Add(3)
	go reader("primary reader 1", c.Primary(), 1)
	go reader("primary reader 2", c.Primary(), 2)
	go reader("replica reader", c.Replica(0), 3)
	for _, q := range stmts {
		if _, err := c.Primary().Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	close(writing)
	done.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		for i := range r.got {
			for j, row := range r.got[i] {
				if string(row) != string(r.kept[i][j]) {
					t.Fatalf("WHERE %s: row %d changed after its session closed", r.where[i], j)
				}
			}
		}
	}
	if len(reads) < 12 {
		t.Fatalf("only %d reader sessions checked", len(reads))
	}
}

// inPlaceSession runs one reader session: the snapshot, then a filtered
// scan, a point probe and a range probe, all under the session's intents.
func inPlaceSession(db *Database, rng *rand.Rand) (*inPlaceRead, error) {
	s, err := db.NewSession(context.Background())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.Query("SELECT * FROM t")
	if err != nil {
		return nil, err
	}
	d, id, lo := rng.Int63n(5), rng.Int63n(300), rng.Int63n(300)
	hi := lo + 1 + rng.Int63n(20)
	r := &inPlaceRead{
		all:   res.Rows,
		where: []string{fmt.Sprintf("dept = %d", d), fmt.Sprintf("id = %d", id), fmt.Sprintf("id >= %d AND id < %d", lo, hi)},
		keep: []func(int64, int64, int64) bool{
			func(_, dept, _ int64) bool { return dept == d },
			func(i, _, _ int64) bool { return i == id },
			func(i, _, _ int64) bool { return i >= lo && i < hi },
		},
	}
	for _, where := range r.where {
		res, err := s.Query("SELECT * FROM t WHERE " + where)
		if err != nil {
			return nil, err
		}
		kept := make([][]byte, len(res.Rows))
		for i, row := range res.Rows {
			kept[i] = slices.Clone(row)
		}
		r.got = append(r.got, res.Rows)
		r.kept = append(r.kept, kept)
	}
	return r, nil
}

// tupleInts decodes a row of t.
func tupleInts(row Tuple) (id, dept, v int64) {
	vals := inPlaceSchema.Decode(row)
	return vals[0].I, vals[1].I, vals[2].I
}

var inPlaceSchema = MustSchema(
	Field{Name: "id", Kind: Int64},
	Field{Name: "dept", Kind: Int64},
	Field{Name: "v", Kind: Int64},
)

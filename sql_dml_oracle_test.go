package mmdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// dmlRef is the DML oracle's reference: the table as slots in storage
// order, with the heap's documented slot policy — a DELETE frees its rows'
// slots in scan order, and an INSERT refills the most recently freed slot
// before it appends.
type dmlRef struct {
	slots [][3]int64
	live  []bool
	free  []int
}

func (r *dmlRef) insert(row [3]int64) {
	if n := len(r.free); n > 0 {
		i := r.free[n-1]
		r.free = r.free[:n-1]
		r.slots[i], r.live[i] = row, true
		return
	}
	r.slots = append(r.slots, row)
	r.live = append(r.live, true)
}

func (r *dmlRef) delete(pred func([3]int64) bool) int64 {
	var n int64
	for i, row := range r.slots {
		if r.live[i] && pred(row) {
			r.live[i] = false
			r.free = append(r.free, i)
			n++
		}
	}
	return n
}

// rows returns the live rows in storage order, those passing keep only.
func (r *dmlRef) rows(keep func([3]int64) bool) [][3]int64 {
	var out [][3]int64
	for i, row := range r.slots {
		if r.live[i] && keep(row) {
			out = append(out, row)
		}
	}
	return out
}

// dmlDelete is one DELETE predicate shape: its WHERE text (empty for an
// unqualified DELETE) and the reference's evaluation of it.
func dmlDelete(rng *rand.Rand, maxID int64) (string, func([3]int64) bool) {
	a, b := rng.Int63n(maxID+1), rng.Int63n(maxID+1)
	d, v := rng.Int63n(5), rng.Int63n(1000)
	switch rng.Intn(12) {
	case 0, 1, 2:
		return fmt.Sprintf("id = %d OR id = %d", a, b), func(r [3]int64) bool { return r[0] == a || r[0] == b }
	case 3, 4:
		return fmt.Sprintf("id = %d", a), func(r [3]int64) bool { return r[0] == a }
	case 5, 6:
		return fmt.Sprintf("dept = %d AND v < %d", d, v), func(r [3]int64) bool { return r[1] == d && r[2] < v }
	case 7:
		return fmt.Sprintf("dept = %d", d), func(r [3]int64) bool { return r[1] == d }
	case 8, 9:
		lo, hi := min(a, b), max(a, b)
		return fmt.Sprintf("id >= %d AND id < %d", lo, hi), func(r [3]int64) bool { return r[0] >= lo && r[0] < hi }
	case 10:
		return fmt.Sprintf("v > %d", v), func(r [3]int64) bool { return r[2] > v }
	default:
		return "", func([3]int64) bool { return true }
	}
}

// TestSQLDMLOracle runs seeded INSERT/DELETE sequences over a table with
// no index, B+-tree indexes and AVL indexes (on the unique id and the
// non-unique dept), at widths 1 and 4. After every statement: SELECT
// returns exactly the reference's rows in storage order, Lookup on every
// key agrees with the reference (so with a scan), and NumTuples is the
// live count. An indexed table also runs every statement on an unindexed
// twin, and after each one a batch of SELECTs whose WHERE the index may
// serve (oracleProbes) must return the twin's rows in the twin's order.
func TestSQLDMLOracle(t *testing.T) {
	for _, width := range []int{1, 4} {
		for _, kind := range []string{"none", "btree", "avl"} {
			t.Run(fmt.Sprintf("%s/w%d", kind, width), func(t *testing.T) {
				db, rel := openDMLOracleDB(t, width)
				var twin *Database
				if kind != "none" {
					ix := map[string]IndexKind{"btree": BTree, "avl": AVL}[kind]
					for _, col := range []string{"id", "dept"} {
						if err := rel.CreateIndex(col, ix); err != nil {
							t.Fatal(err)
						}
					}
					twin, _ = openDMLOracleDB(t, width)
				}
				rng := rand.New(rand.NewSource(int64(36 + width)))
				qrng := rand.New(rand.NewSource(int64(40 + width)))
				ref := &dmlRef{}
				var nextID int64
				var probed int
				query := func(at, q string) *SQLResult {
					t.Helper()
					res, err := db.Query(q)
					if err != nil {
						t.Fatalf("%s: %s: %v", at, q, err)
					}
					if twin != nil {
						if _, err := twin.Query(q); err != nil {
							t.Fatalf("%s: %s on the twin: %v", at, q, err)
						}
					}
					return res
				}
				for step := 0; step < 400; step++ {
					var stmt string
					if rng.Intn(10) < 7 {
						var vals []string
						for n := 1 + rng.Intn(4); n > 0; n-- {
							row := [3]int64{nextID, rng.Int63n(5), rng.Int63n(1000)}
							if rng.Intn(6) == 0 && nextID > 0 {
								row[0] = rng.Int63n(nextID) // an id seen before: duplicates are legal
							} else {
								nextID++
							}
							ref.insert(row)
							vals = append(vals, fmt.Sprintf("(%d, %d, %d)", row[0], row[1], row[2]))
						}
						stmt = "INSERT INTO t VALUES " + strings.Join(vals, ", ")
						query(fmt.Sprintf("step %d", step), stmt)
					} else {
						where, pred := dmlDelete(rng, nextID)
						if where == "" && rng.Intn(4) != 0 {
							continue // keep unqualified DELETEs rare
						}
						stmt = "DELETE FROM t"
						if where != "" {
							stmt += " WHERE " + where
						}
						want := ref.delete(pred)
						if res := query(fmt.Sprintf("step %d", step), stmt); res.Affected != want {
							t.Fatalf("step %d: %s: affected %d, want %d", step, stmt, res.Affected, want)
						}
					}
					at := fmt.Sprintf("step %d (%s)", step, stmt)
					checkDMLOracle(t, db, rel, ref, at)
					if twin == nil {
						continue
					}
					for _, q := range oracleProbes(qrng, nextID) {
						got, want := query(at, q), mustQuery(t, twin, q)
						if !reflect.DeepEqual(got.Values(), want.Values()) {
							t.Fatalf("%s: %s returned %v\nthe unindexed twin %v", at, q, got.Values(), want.Values())
						}
						// The twin sorts the same rows as a spilled ORDER BY
						// does, billing the same random run reads, so only a
						// probe's fetches make the difference.
						if got.Counters.RandIOs > want.Counters.RandIOs {
							probed++
						}
					}
				}
				if twin != nil && probed == 0 {
					t.Fatal("no SELECT probed the index")
				}
			})
		}
	}
}

// openDMLOracleDB opens the oracle's database: the table t it mutates and
// a five-row table d that t.dept joins.
func openDMLOracleDB(t *testing.T, width int) (*Database, *Relation) {
	t.Helper()
	db := MustOpen(Options{PageSize: 256, MemoryPages: 8, Parallelism: width})
	rel, err := db.CreateRelation("t", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "dept", Kind: Int64},
		Field{Name: "v", Kind: Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("d", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "w", Kind: Int64},
	)); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, "INSERT INTO d VALUES (0, 10), (1, 11), (2, 12), (3, 13), (4, 14)")
	return db, rel
}

func mustQuery(t *testing.T, db *Database, q string) *SQLResult {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// oracleProbes is one batch of SELECTs over t whose WHERE an index on id
// or dept may serve: every comparison, AND ranges, an empty range, the
// int64 bounds, ORs with and without an unindexed branch, NOT and !=,
// under each single-table source (scan, ORDER BY's sort, global and
// grouped aggregates, a join's filtered leaf) and LIMIT. A probe and a
// scan feed the sort the same rows in storage order, so equal sort keys
// tie alike on both tables.
func oracleProbes(rng *rand.Rand, maxID int64) []string {
	a, b := rng.Int63n(maxID+2)-1, rng.Int63n(maxID+2)-1
	lo, hi := min(a, b), max(a, b)
	d := rng.Int63n(6)
	const cols = "SELECT id, dept, v FROM t WHERE "
	return []string{
		cols + fmt.Sprintf("id = %d", a),
		cols + fmt.Sprintf("id < %d", a),
		cols + fmt.Sprintf("id <= %d", a),
		cols + fmt.Sprintf("id > %d", a),
		cols + fmt.Sprintf("id >= %d", a),
		cols + fmt.Sprintf("id >= %d AND id < %d", lo, hi),
		cols + fmt.Sprintf("id > %d AND id < %d", hi, lo),
		cols + "id >= -9223372036854775808 AND id <= 9223372036854775807",
		cols + "id < -9223372036854775808 OR id > 9223372036854775807",
		cols + fmt.Sprintf("id = %d OR id = %d", a, b),
		cols + fmt.Sprintf("id = %d OR v < 50", a),
		cols + fmt.Sprintf("NOT (id = %d)", a),
		cols + fmt.Sprintf("id != %d", a),
		cols + fmt.Sprintf("dept = %d", d),
		cols + fmt.Sprintf("dept = %d AND id > %d", d, a),
		cols + fmt.Sprintf("dept >= %d OR id = %d", d, a),
		cols + fmt.Sprintf("id > %d LIMIT 2", a),
		cols + fmt.Sprintf("id >= %d AND id < %d ORDER BY v", lo, hi),
		cols + fmt.Sprintf("id >= %d ORDER BY v DESC LIMIT 5", a),
		cols + fmt.Sprintf("dept = %d ORDER BY id DESC", d),
		fmt.Sprintf("SELECT COUNT(*), SUM(v) FROM t WHERE id < %d", a),
		fmt.Sprintf("SELECT dept, COUNT(*) FROM t WHERE id >= %d GROUP BY dept", a),
		fmt.Sprintf("SELECT t.id, d.w FROM t JOIN d ON t.dept = d.id WHERE t.id <= %d", a),
	}
}

func checkDMLOracle(t *testing.T, db *Database, rel *Relation, ref *dmlRef, at string) {
	t.Helper()
	all := func([3]int64) bool { return true }
	want := ref.rows(all)
	if got := rel.NumTuples(); got != int64(len(want)) {
		t.Fatalf("%s: NumTuples %d, reference holds %d", at, got, len(want))
	}
	res, err := db.Query("SELECT id, dept, v FROM t")
	if err != nil {
		t.Fatalf("%s: select: %v", at, err)
	}
	if got := dmlRows(res.Values()); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SELECT returned %v\nreference %v", at, got, want)
	}
	for col, name := range []string{"id", "dept"} {
		keys := map[int64]bool{-1: true} // -1: a key no row carries
		for _, row := range want {
			keys[row[col]] = true
		}
		for k := range keys {
			rows, err := rel.Lookup(name, IntValue(k))
			if err != nil {
				t.Fatalf("%s: Lookup(%s = %d): %v", at, name, k, err)
			}
			got := make([][]Value, len(rows))
			for i, r := range rows {
				got[i] = rel.Schema().Decode(r)
			}
			if w := ref.rows(func(r [3]int64) bool { return r[col] == k }); !reflect.DeepEqual(dmlRows(got), w) {
				t.Fatalf("%s: Lookup(%s = %d) = %v, scan holds %v", at, name, k, dmlRows(got), w)
			}
		}
	}
}

func dmlRows(vals [][]Value) [][3]int64 {
	var out [][3]int64
	for _, v := range vals {
		out = append(out, [3]int64{v[0].I, v[1].I, v[2].I})
	}
	return out
}

// TestSQLInsertStatementsShareTailPage: each INSERT statement flushes, and
// a flush writes the tail page in place, so 1 000 one-row INSERTs into an
// empty 24-byte-row table fill ⌈1000/170⌉ pages rather than one each.
func TestSQLInsertStatementsShareTailPage(t *testing.T) {
	db := MustOpen(Options{})
	rel, err := db.CreateRelation("t", MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "dept", Kind: Int64},
		Field{Name: "v", Kind: Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := db.Query(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", i, i%5, i*7)); err != nil {
			t.Fatal(err)
		}
	}
	if rel.NumTuples() != 1000 || rel.NumPages() != 6 {
		t.Fatalf("1000 one-row INSERTs: %d tuples on %d pages, want 1000 on 6", rel.NumTuples(), rel.NumPages())
	}
}

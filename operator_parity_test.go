package mmdb

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
	"time"

	"mmdb/internal/join"
	"mmdb/internal/planner"
)

// The operator calls the root package used to export beside SQL — the
// Database and Cluster one-shot operators, Session.Aggregate/Distinct/
// Select, Relation.Select, Database.Plan (later Session.Plan) and
// QueryPlan.Execute, Session.Join — each map to a SQL statement, the §3
// operator on a session's views, or the planner query a SQL join's
// lowering optimizes. Every parityCase pins what the
// removed call returned and charged on newLoweringDB, measured before it
// was deleted; the replacement must return the same rows for the same
// charges. (The Cluster forwarders routed to the Database calls, so the
// Database rows cover them.)
type parityCase struct {
	removed string
	run     func(*Database) ([]string, error) // the replacement, rows formatted
	ordered bool                              // row order is part of the result

	rows     int
	digest   uint64 // FNV-64a over the rows, sorted unless ordered
	counters Counters
	elapsed  time.Duration
	// extra is what the replacement charges beyond the removed call.
	extra Counters
}

var parityCases = []parityCase{
	// The removed call asked for the engine's automatic choice, which was
	// always hybrid hash.
	{removed: "Database.Join(HybridHash, emp, dept, dept, id)",
		run:  pairRowsOfSQL("SELECT * FROM emp JOIN dept ON emp.dept = dept.id", 4),
		rows: 600, digest: 0x5ddb5896aa657fbf, counters: Counters{Comps: 600, Hashes: 607, Moves: 7}, elapsed: 7403000},
	// SQL plans hybrid hash only; any other §3 algorithm is join.Run.
	{removed: "Database.Join(SortMerge, dept, emp, id, dept)",
		run: sessionRows(func(s *Session, out *[]string) error {
			return pairRowsOf(s, join.SortMerge, "dept", "emp", "id", "dept", out)
		}),
		rows: 600, digest: 0x7afb7671da0d115, counters: Counters{Comps: 6994, Swaps: 3821, SeqIOs: 205, RandIOs: 205}, elapsed: 7425242000},
	{removed: "Database.Aggregate(emp, dept, salary)",
		run:  sqlRows("SELECT dept, COUNT(*), SUM(salary), MIN(salary), MAX(salary) FROM emp GROUP BY dept"),
		rows: 7, digest: 0xdb3f4faee2367651, counters: Counters{Comps: 593, Hashes: 600, Moves: 7}, elapsed: 7319000},
	// The removed call held all 53 names in a table the 8-page grant has
	// room for 33 of; the replacement keeps to the grant and spills the
	// overflow to hash partitions.
	{removed: "Database.Distinct(emp, name)",
		run:  sqlRows("SELECT name FROM emp GROUP BY name"),
		rows: 53, digest: 0xe698364a49c3ff40, counters: Counters{Comps: 547, Hashes: 600, Moves: 53}, elapsed: 8101000,
		extra: Counters{Hashes: 220, Moves: 220, SeqIOs: 40, RandIOs: 40}},
	{removed: "Database.Distinct(emp, dept)",
		run:  sqlRows("SELECT dept FROM emp GROUP BY dept"),
		rows: 7, digest: 0x2a1d5d04006775d1, counters: Counters{Comps: 593, Hashes: 600, Moves: 7}, elapsed: 7319000},
	{removed: "Database.OrderBy(emp, salary)", ordered: true,
		run:  sqlRows("SELECT * FROM emp ORDER BY salary"),
		rows: 600, digest: 0xf08a8202a9300a78, counters: Counters{Comps: 7371, Swaps: 3631, SeqIOs: 104, RandIOs: 104}, elapsed: 3879973000},
	{removed: "Session.Select(emp: salary >= 43000 AND id != 17)", ordered: true,
		run:  sqlRows("SELECT * FROM emp WHERE salary >= 43000 AND id != 17"),
		rows: 299, digest: 0x12b6b9d6870b88ce, counters: Counters{Comps: 1200, SeqIOs: 100}, elapsed: 1003600000},
	{removed: "Relation.Select(dept: budget >= 300)", ordered: true,
		run:  sqlRows("SELECT * FROM dept WHERE budget >= 300"),
		rows: 5, digest: 0xe9248eb11f1adc4a, counters: Counters{Comps: 7, SeqIOs: 1}, elapsed: 10021000},
	{removed: "Database.Plan(emp ⋈ dept[city = 'city3'] ⋈ proj, FullSelinger)",
		run:  planRows(planner.Optimize),
		rows: 1, digest: 0x617c5708a630c21f},
	{removed: "Database.Plan(emp ⋈ dept[city = 'city3'] ⋈ proj, HashOnly)",
		run:  planRows(planner.OptimizeHashOnly),
		rows: 1, digest: 0x7cd638c9377d7b5},
	// Execute filtered dept's leaf for free; the statement charges that
	// selection once, one comparison per dept row and one sequential IO
	// for its page, and streams the root join instead of re-reading it.
	{removed: "QueryPlan.Execute(emp ⋈ dept[city = 'city3'] ⋈ proj, HashOnly)",
		run:  sqlRows(planSQL),
		rows: 688, digest: 0xb33b4a20de772449, counters: Counters{Comps: 696, Hashes: 649, Moves: 9}, elapsed: 8109000,
		extra: Counters{Comps: 7, SeqIOs: 1}},
}

func sqlRows(q string) func(*Database) ([]string, error) {
	return func(db *Database) ([]string, error) {
		res, err := db.Query(q)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, v := range res.Values() {
			out = append(out, fmt.Sprint(v))
		}
		return out, nil
	}
}

// sessionRows runs fn in a session of its own, closed before the caller
// reads the clock.
func sessionRows(fn func(s *Session, out *[]string) error) func(*Database) ([]string, error) {
	return func(db *Database) ([]string, error) {
		var out []string
		err := db.withSession(context.Background(), func(s *Session) error { return fn(s, &out) })
		return out, err
	}
}

// pairRowsOf joins left ⋈ right with alg on the session's views, one
// formatted (left, right) pair per emitted match.
func pairRowsOf(s *Session, alg join.Algorithm, left, right, leftCol, rightCol string, out *[]string) error {
	ls, err := s.db.cat.Get(left)
	if err != nil {
		return err
	}
	rs, err := s.db.cat.Get(right)
	if err != nil {
		return err
	}
	_, err = viewJoin(s, alg, left, right, leftCol, rightCol, func(l, r Tuple) {
		*out = append(*out, fmt.Sprint(ls.Schema().Decode(l), rs.Schema().Decode(r)))
	})
	return err
}

// pairRowsOfSQL runs a two-table SELECT * join, each row formatted as the
// (left, right) pair whose left table has leftCols columns.
func pairRowsOfSQL(q string, leftCols int) func(*Database) ([]string, error) {
	return func(db *Database) ([]string, error) {
		res, err := db.Query(q)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, v := range res.Values() {
			out = append(out, fmt.Sprint(v[:leftCols], v[leftCols:]))
		}
		return out, nil
	}
}

// planSQL is emp ⋈ dept ⋈ proj with a selection on dept.
const planSQL = "SELECT emp.id, dept.id, proj.id FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id WHERE city = 'city3'"

// planRows optimizes planSQL's planner query, the plan rendered as one row.
func planRows(optimize func(planner.Query) (*planner.Plan, error)) func(*Database) ([]string, error) {
	return sessionRows(func(s *Session, out *[]string) error {
		b, err := bindSelect(s.db, planSQL)
		if err != nil {
			return err
		}
		q, err := s.plannerQuery(b)
		if err != nil {
			return err
		}
		p, err := optimize(q)
		if err != nil {
			return err
		}
		*out = append(*out, fmt.Sprint(p.Order(q), p.Weighted, p.CPU, p.IO, p.StatesExplored, p.PlansConsidered))
		return nil
	})
}

func digestRows(rows []string, ordered bool) uint64 {
	if !ordered {
		rows = append([]string(nil), rows...)
		sort.Strings(rows)
	}
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestOperatorSurfaceParity: each removed operator call's replacement
// returns the rows it returned, for the six counters and the virtual time
// it charged (plus the stated extra).
func TestOperatorSurfaceParity(t *testing.T) {
	for _, c := range parityCases {
		db := newLoweringDB(t)
		db.ResetClock()
		rows, err := c.run(db)
		if err != nil {
			t.Fatalf("%s: %v", c.removed, err)
		}
		if len(rows) != c.rows || digestRows(rows, c.ordered) != c.digest {
			t.Errorf("%s: %d rows (digest %#x), removed call returned %d (%#x)",
				c.removed, len(rows), digestRows(rows, c.ordered), c.rows, c.digest)
		}
		if got := db.Counters().Sub(c.extra); got != c.counters {
			t.Errorf("%s: charged %v beyond the stated extra, want %v", c.removed, got, c.counters)
		}
		if got, want := db.VirtualTime(), c.elapsed+c.extra.Time(db.Options().Params); got != want {
			t.Errorf("%s: elapsed %v, want %v", c.removed, got, want)
		}
	}
}

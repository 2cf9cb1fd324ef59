package planner

import (
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/join"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
	"mmdb/internal/workload"
)

// execQuery builds a two-table query with real storage bindings. With
// filter, A is bound to the copy of its even-keyed rows, as a caller that
// pushes a selection binds its filtered file.
func execQuery(t *testing.T, filter bool) Query {
	t.Helper()
	clock := cost.NewClock(cost.DefaultParams())
	disk := simio.NewDisk(clock, 512)
	a := workload.MustGenerate(disk, workload.RelationSpec{Name: "A", Tuples: 200, KeyDomain: 40, PayloadWidth: 12, Seed: 61})
	b := workload.MustGenerate(disk, workload.RelationSpec{Name: "B", Tuples: 60, KeyDomain: 40, PayloadWidth: 12, Seed: 62})
	sel := 1.0
	if filter {
		sel = 0.5
		even, err := heap.Create(disk, "A.even", a.Schema())
		if err != nil {
			t.Fatal(err)
		}
		sc := a.Schema()
		a.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
			if sc.Int(tp, 0)%2 == 0 {
				err = even.Append(tp, simio.Uncharged)
			}
			return err == nil
		})
		if err == nil {
			err = even.Flush(simio.Uncharged)
		}
		if err != nil {
			t.Fatal(err)
		}
		a = even
	}
	return Query{
		M: 16,
		Tables: []Table{
			{Name: "A", Tuples: 200, TuplesPerPage: a.TuplesPerPage(), Width: a.Schema().Width(),
				Selectivity: sel,
				Distinct:    map[int]int64{0: 40},
				Rel:         ExecSource{File: a, ClassCols: map[int]int{0: 0}}},
			{Name: "B", Tuples: 60, TuplesPerPage: b.TuplesPerPage(), Width: b.Schema().Width(),
				Selectivity: 1,
				Distinct:    map[int]int64{0: 40},
				Rel:         ExecSource{File: b, ClassCols: map[int]int{0: 0}}},
		},
		Edges: []Edge{{A: 0, B: 1, Class: 0}},
	}
}

func oracleMatches(t *testing.T, q Query) int64 {
	t.Helper()
	a := q.Tables[0].Rel.File
	b := q.Tables[1].Rel.File
	sa, sb := a.Schema(), b.Schema()
	var bKeys []int64
	b.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
		bKeys = append(bKeys, sb.Int(tp, 0))
		return true
	})
	var n int64
	a.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
		k := sa.Int(tp, 0)
		for _, bk := range bKeys {
			if bk == k {
				n++
			}
		}
		return true
	})
	return n
}

// execute runs the plan, handing every root pair and its input schemas to
// fn.
func execute(q Query, p *Plan, fn func(ls, rs *tuple.Schema, l, r tuple.Tuple)) error {
	return Execute(q, p, join.Spec{M: q.M}, func(left, right *heap.File) (join.Emit, error) {
		return func(l, r tuple.Tuple) { fn(left.Schema(), right.Schema(), l, r) }, nil
	})
}

func TestExecuteMatchesOracle(t *testing.T) {
	for _, filter := range []bool{false, true} {
		q := execQuery(t, filter)
		p, err := OptimizeHashOnly(q)
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		if err := execute(q, p, func(_, _ *tuple.Schema, _, _ tuple.Tuple) { got++ }); err != nil {
			t.Fatal(err)
		}
		if want := oracleMatches(t, q); got != want {
			t.Fatalf("filter=%v: executed %d rows, oracle %d", filter, got, want)
		}
	}
}

func TestExecuteRejectsMissingBinding(t *testing.T) {
	q := execQuery(t, false)
	q.Tables[1].Rel = ExecSource{}
	p, err := OptimizeHashOnly(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := execute(q, p, func(_, _ *tuple.Schema, _, _ tuple.Tuple) {}); err == nil {
		t.Fatal("missing storage binding accepted")
	}
}

// TestExecuteJoinedOutputSchema: the root streams (left, right) pairs in
// plan order whatever side built, and the join keys agree on every pair.
func TestExecuteJoinedOutputSchema(t *testing.T) {
	q := execQuery(t, false)
	p, err := OptimizeHashOnly(q)
	if err != nil {
		t.Fatal(err)
	}
	order := p.Order(q)
	pairs := 0
	err = execute(q, p, func(ls, rs *tuple.Schema, l, r tuple.Tuple) {
		pairs++
		if ls.Width()+rs.Width() != q.Tables[0].Width+q.Tables[1].Width {
			t.Fatalf("pair widths %d+%d", ls.Width(), rs.Width())
		}
		if len(l) != ls.Width() || len(r) != rs.Width() {
			t.Fatalf("pair (%d, %d) bytes does not match its schemas", len(l), len(r))
		}
		if ls.Int(l, 0) != rs.Int(r, 0) {
			t.Fatalf("joined pair keys differ: %s | %s", ls.Format(l), rs.Format(r))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if pairs == 0 || len(order) != 2 {
		t.Fatalf("%d pairs over order %v", pairs, order)
	}
}

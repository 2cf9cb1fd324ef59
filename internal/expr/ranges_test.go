package expr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mmdb/internal/tuple"
)

func TestRangesShapes(t *testing.T) {
	a := func(op Op, v int64) Predicate { return cmp(t, 0, op, tuple.IntValue(v)) }
	str := cmp(t, 1, Eq, tuple.StringValue("x"))
	const lo, hi = math.MinInt64, math.MaxInt64
	cases := []struct {
		name string
		p    Predicate
		want []Range
		ok   bool
	}{
		{"eq", a(Eq, 5), []Range{{5, 5}}, true},
		{"lt", a(Lt, 5), []Range{{lo, 4}}, true},
		{"le", a(Le, 5), []Range{{lo, 5}}, true},
		{"gt", a(Gt, 5), []Range{{6, hi}}, true},
		{"ge", a(Ge, 5), []Range{{5, hi}}, true},
		{"lt min", a(Lt, lo), nil, true},
		{"gt max", a(Gt, hi), nil, true},
		{"le max", a(Le, hi), []Range{{lo, hi}}, true},
		{"ne", a(Ne, 5), nil, false},
		{"not", Not(a(Eq, 5)), nil, false},
		{"other column", str, nil, false},
		{"true", TrueP, nil, false},
		{"and", And(a(Ge, 3), a(Lt, 9)), []Range{{3, 8}}, true},
		{"and other column", And(str, a(Ge, 3)), []Range{{3, hi}}, true},
		{"and empty", And(a(Gt, 5), a(Lt, 3)), nil, true},
		{"or", Or(a(Eq, 7), a(Eq, 2)), []Range{{2, 2}, {7, 7}}, true},
		{"or merges", Or(a(Eq, 3), a(Eq, 2), a(Ge, 4)), []Range{{2, hi}}, true},
		{"or unbounded branch", Or(a(Eq, 7), str), nil, false},
		{"or of ands", Or(And(a(Ge, 1), a(Le, 3)), And(a(Ge, 10), a(Le, 12))), []Range{{1, 3}, {10, 12}}, true},
		{"and of ors", And(Or(a(Eq, 1), a(Eq, 5)), Or(a(Eq, 5), a(Eq, 9))), []Range{{5, 5}}, true},
		{"ne inside and", And(a(Ne, 4), a(Le, 4)), []Range{{lo, 4}}, true},
	}
	for _, c := range cases {
		got, ok := Ranges(c.p, 0)
		if ok != c.ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: %v: Ranges = %v, %v; want %v, %v", c.name, c.p, got, ok, c.want, c.ok)
		}
	}
}

// TestRangesSuperset: over random predicate trees, every value a tuple
// passes with lies in the ranges, which are sorted and disjoint.
func TestRangesSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -3, -1, 0, 1, 2, 3, 5, 8, math.MaxInt64 - 1, math.MaxInt64}
	var gen func(depth int) Predicate
	gen = func(depth int) Predicate {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(8) == 0 {
				return cmp(t, 1, Op(rng.Intn(6)), tuple.StringValue("b"))
			}
			return cmp(t, 0, Op(rng.Intn(6)), tuple.IntValue(vals[rng.Intn(len(vals))]))
		}
		kids := make([]Predicate, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = gen(depth - 1)
		}
		switch rng.Intn(5) {
		case 0:
			return Not(kids[0])
		case 1, 2:
			return And(kids...)
		default:
			return Or(kids...)
		}
	}
	for i := 0; i < 2000; i++ {
		p := gen(3)
		rs, ok := Ranges(p, 0)
		for j := 1; j < len(rs); j++ {
			if rs[j-1].Hi >= rs[j].Lo {
				t.Fatalf("%v: ranges %v overlap or are unsorted", p, rs)
			}
		}
		for _, v := range vals {
			for _, s := range []string{"a", "b"} {
				if !eval(p, row(v, s)) || !ok {
					continue
				}
				in := false
				for _, r := range rs {
					in = in || (r.Lo <= v && v <= r.Hi)
				}
				if !in {
					t.Fatalf("%v admits a=%d but ranges %v exclude it", p, v, rs)
				}
			}
		}
	}
}

package expr

import (
	"math"
	"testing"
	"testing/quick"

	"mmdb/internal/tuple"
)

var schema = tuple.MustSchema(
	tuple.Field{Name: "a", Kind: tuple.Int64},
	tuple.Field{Name: "s", Kind: tuple.String, Size: 8},
)

func row(a int64, s string) tuple.Tuple {
	return schema.MustEncode(tuple.IntValue(a), tuple.StringValue(s))
}

func cmp(t *testing.T, col int, op Op, v tuple.Value) *Comparison {
	t.Helper()
	c, err := NewComparison(schema, col, op, v)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestComparisonOperators(t *testing.T) {
	r := row(5, "hello")
	cases := []struct {
		op   Op
		v    int64
		want bool
	}{
		{Eq, 5, true}, {Eq, 4, false},
		{Ne, 5, false}, {Ne, 4, true},
		{Lt, 6, true}, {Lt, 5, false},
		{Le, 5, true}, {Le, 4, false},
		{Gt, 4, true}, {Gt, 5, false},
		{Ge, 5, true}, {Ge, 6, false},
	}
	for _, tc := range cases {
		c := cmp(t, 0, tc.op, tuple.IntValue(tc.v))
		if got := Compile(c, schema)(r); got != tc.want {
			t.Errorf("5 %v %d = %v", tc.op, tc.v, got)
		}
	}
	sc := cmp(t, 1, Eq, tuple.StringValue("hello"))
	if !Compile(sc, schema)(r) {
		t.Error("string equality failed")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewComparison(schema, 5, Eq, tuple.IntValue(1)); err == nil {
		t.Error("bad column accepted")
	}
	if _, err := NewComparison(schema, 0, Eq, tuple.StringValue("x")); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := NewComparison(schema, 0, Op(99), tuple.IntValue(1)); err == nil {
		t.Error("bad operator accepted")
	}
}

func TestCompositesMatchBooleanAlgebra(t *testing.T) {
	f := func(a int64, lo, hi int64) bool {
		r := row(a, "x")
		ge := cmp(t, 0, Ge, tuple.IntValue(lo))
		le := cmp(t, 0, Le, tuple.IntValue(hi))
		band := And(ge, le)
		bor := Or(ge, le)
		bnot := Not(band)
		wantAnd := a >= lo && a <= hi
		wantOr := a >= lo || a <= hi
		return Compile(band, schema)(r) == wantAnd && Compile(bor, schema)(r) == wantOr && Compile(bnot, schema)(r) == !wantAnd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	p := And(
		cmp(t, 0, Ge, tuple.IntValue(1)),
		Not(Or(cmp(t, 0, Eq, tuple.IntValue(7)), TrueP)),
	)
	want := "(a >= 1) AND (NOT ((a = 7) OR (TRUE)))"
	if p.String() != want {
		t.Fatalf("String() = %q", p.String())
	}
}

func TestLeavesCountsEveryLeaf(t *testing.T) {
	p := Or(And(cmp(t, 0, Eq, tuple.IntValue(1)), cmp(t, 0, Lt, tuple.IntValue(9))), Not(cmp(t, 1, Eq, tuple.StringValue("q"))), TrueP)
	if n := p.Leaves(); n != 3 {
		t.Fatalf("counted %d leaves", n)
	}
}

func TestSelectivityComposition(t *testing.T) {
	leaf := func(c *Comparison) float64 { return 0.5 }
	a := cmp(t, 0, Eq, tuple.IntValue(1))
	b := cmp(t, 0, Eq, tuple.IntValue(2))
	if s := Selectivity(And(a, b), leaf); math.Abs(s-0.25) > 1e-9 {
		t.Errorf("AND selectivity %f", s)
	}
	if s := Selectivity(Or(a, b), leaf); math.Abs(s-0.75) > 1e-9 {
		t.Errorf("OR selectivity %f", s)
	}
	if s := Selectivity(Not(a), leaf); math.Abs(s-0.5) > 1e-9 {
		t.Errorf("NOT selectivity %f", s)
	}
	if s := Selectivity(TrueP, leaf); s != 1 {
		t.Errorf("TRUE selectivity %f", s)
	}
	if s := Selectivity(a, func(*Comparison) float64 { return 7 }); s != 1 {
		t.Errorf("selectivity not clamped: %f", s)
	}
}

func TestDefaultLeafSelectivity(t *testing.T) {
	if DefaultLeafSelectivity(cmp(t, 0, Eq, tuple.IntValue(1))) != 0.1 {
		t.Error("Eq default")
	}
	if DefaultLeafSelectivity(cmp(t, 0, Ne, tuple.IntValue(1))) != 0.9 {
		t.Error("Ne default")
	}
	if s := DefaultLeafSelectivity(cmp(t, 0, Lt, tuple.IntValue(1))); math.Abs(s-1.0/3.0) > 1e-9 {
		t.Error("range default")
	}
}

package expr

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mmdb/internal/tuple"
)

// eval is the tree-walking interpreter Compile replaced, kept as its
// oracle: each leaf decodes its column with Schema.Get and orders it
// against the constant with tuple.Compare.
func eval(p Predicate, t tuple.Tuple) bool {
	switch p := p.(type) {
	case *Comparison:
		c := tuple.Compare(p.schema.Get(t, p.Col), p.Value)
		switch p.Op {
		case Eq:
			return c == 0
		case Ne:
			return c != 0
		case Lt:
			return c < 0
		case Le:
			return c <= 0
		case Gt:
			return c > 0
		case Ge:
			return c >= 0
		}
	case *and:
		for _, k := range p.kids {
			if !eval(k, t) {
				return false
			}
		}
		return true
	case *or:
		for _, k := range p.kids {
			if eval(k, t) {
				return true
			}
		}
		return false
	case *not:
		return !eval(p.kid, t)
	case *truePred:
		return true
	}
	panic("expr: eval of an invalid predicate")
}

// kinds is a schema with every column kind; its string is 4 bytes wide so
// full-width values are easy to reach.
var kinds = tuple.MustSchema(
	tuple.Field{Name: "i", Kind: tuple.Int64},
	tuple.Field{Name: "f", Kind: tuple.Float64},
	tuple.Field{Name: "s", Kind: tuple.String, Size: 4},
)

// The edge values, as constants and as stored values. Stored strings are
// raw field bytes: an embedded NUL hides what follows it from Schema.Get.
var (
	edgeInts   = []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	edgeFloats = []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		-1.5, 1.5, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64}
	edgeConsts = []string{"", "a", "a\x00", "ab", "abc", "abcd", "abcde", "b", "\xff", "a\x00b"}
	edgeStored = []string{"", "a", "ab", "abcd", "abcz", "a\x00b", "a\x00\x00c", "\x00bcd", "b", "\xff\xff\xff\xff"}
	nanBits    = []uint64{0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001}
)

// store encodes a row of kinds with raw field bits.
func store(i int64, fbits uint64, s string) tuple.Tuple {
	t := make(tuple.Tuple, kinds.Width())
	binary.BigEndian.PutUint64(t, uint64(i)^(1<<63))
	binary.BigEndian.PutUint64(t[8:], fbits)
	copy(t[16:20], s)
	return t
}

// gen builds a random predicate over kinds of at most depth levels of
// AND/OR/NOT, drawing each choice from pick(n) in [0, n).
func gen(pick func(n int) int, depth int) Predicate {
	if depth == 0 || pick(3) == 0 {
		op := Op(pick(6))
		var v tuple.Value
		col := pick(3)
		switch col {
		case 0:
			v = tuple.IntValue(edgeInts[pick(len(edgeInts))])
		case 1:
			v = tuple.FloatValue(edgeFloats[pick(len(edgeFloats))])
		default:
			v = tuple.StringValue(edgeConsts[pick(len(edgeConsts))])
		}
		c, err := NewComparison(kinds, col, op, v)
		if err != nil {
			panic(err)
		}
		return c
	}
	kids := make([]Predicate, 2+pick(2))
	for i := range kids {
		kids[i] = gen(pick, depth-1)
	}
	switch pick(6) {
	case 0:
		return Not(kids[0])
	case 1:
		return TrueP
	case 2, 3:
		return And(kids...)
	default:
		return Or(kids...)
	}
}

// TestCompileMatchesInterpreter: over random AND/OR/NOT trees on every
// column kind, the compiled test agrees with the interpreter on every
// edge value — -0/+0, NaNs, infinities, the int64 extremes, empty,
// full-width and NUL-embedded strings.
func TestCompileMatchesInterpreter(t *testing.T) {
	var rows []tuple.Tuple
	for _, i := range edgeInts {
		for _, f := range edgeFloats {
			rows = append(rows, store(i, math.Float64bits(f), edgeStored[len(rows)%len(edgeStored)]))
		}
	}
	for k, b := range nanBits {
		for _, s := range edgeStored {
			rows = append(rows, store(edgeInts[k], b, s))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		p := gen(rng.Intn, 3)
		test := Compile(p, kinds)
		for _, r := range rows {
			if got, want := test(r), eval(p, r); got != want {
				t.Fatalf("%v on %s (% x): compiled %v, interpreter %v", p, kinds.Format(r), r, got, want)
			}
		}
	}
}

// TestCompilePanicsOnKindMismatch: a leaf compiled against a schema whose
// column is of another kind is a binder bug, caught when compiled.
func TestCompilePanicsOnKindMismatch(t *testing.T) {
	c, err := NewComparison(kinds, 1, Eq, tuple.FloatValue(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("compiled a float constant against an int64 column")
		}
	}()
	Compile(c, tuple.MustSchema(tuple.Field{Name: "x", Kind: tuple.Int64}, tuple.Field{Name: "y", Kind: tuple.Int64}))
}

// FuzzCompile: for any predicate shape and any tuple bytes, the compiled
// test agrees with the interpreter. shape drives the generator (its bytes
// are the choices, zero once spent); raw is cut or zero padded to the
// schema width.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{0, 0, 0}, []byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte(store(-1, 0x7ff8000000000001, "a\x00b")))
	f.Add([]byte{2, 1, 0, 2, 2, 5, 0, 1, 3}, []byte(store(math.MaxInt64, math.Float64bits(math.Copysign(0, -1)), "abcd")))
	f.Fuzz(func(t *testing.T, shape, raw []byte) {
		pick := func(n int) int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(b) % n
		}
		p := gen(pick, 4)
		r := make(tuple.Tuple, kinds.Width())
		copy(r, raw)
		if got, want := Compile(p, kinds)(r), eval(p, r); got != want {
			t.Fatalf("%v on % x: compiled %v, interpreter %v", p, r, got, want)
		}
	})
}

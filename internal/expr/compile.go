package expr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"mmdb/internal/tuple"
)

// Compile turns p into a test over encoded tuples of schema, built once
// per statement and called per row. Leaves read their column in place:
// an int64 at its fixed offset without decoding, a float64 compared as
// tuple.Compare does (-0 equals +0, and NaN compares equal to everything,
// so it satisfies =, <= and >= and fails !=, < and >), and a string as
// Schema.Get and strings.Compare see it — up to its first NUL. It panics
// on a leaf whose constant's kind is not its column's, which is a
// binder bug.
func Compile(p Predicate, schema *tuple.Schema) func(tuple.Tuple) bool {
	switch p := p.(type) {
	case *Comparison:
		return compileLeaf(p, schema)
	case *and:
		kids := compileKids(p.kids, schema)
		return func(t tuple.Tuple) bool {
			for _, k := range kids {
				if !k(t) {
					return false
				}
			}
			return true
		}
	case *or:
		kids := compileKids(p.kids, schema)
		return func(t tuple.Tuple) bool {
			for _, k := range kids {
				if k(t) {
					return true
				}
			}
			return false
		}
	case *not:
		k := Compile(p.kid, schema)
		return func(t tuple.Tuple) bool { return !k(t) }
	case *truePred:
		return func(tuple.Tuple) bool { return true }
	default:
		panic(fmt.Sprintf("expr: cannot compile %T", p))
	}
}

func compileKids(ps []Predicate, schema *tuple.Schema) []func(tuple.Tuple) bool {
	out := make([]func(tuple.Tuple) bool, len(ps))
	for i, p := range ps {
		out[i] = Compile(p, schema)
	}
	return out
}

func compileLeaf(c *Comparison, schema *tuple.Schema) func(tuple.Tuple) bool {
	f := schema.Field(c.Col)
	if f.Kind != c.Value.Kind {
		panic(fmt.Sprintf("expr: column %q is %v, constant is %v", f.Name, f.Kind, c.Value.Kind))
	}
	off := schema.Offset(c.Col)
	switch f.Kind {
	case tuple.Int64:
		// The encoding flips the sign bit, so encoded words order as the
		// values do when compared unsigned.
		k := uint64(c.Value.I) ^ (1 << 63)
		switch c.Op {
		case Eq:
			return func(t tuple.Tuple) bool { return binary.BigEndian.Uint64(t[off:]) == k }
		case Ne:
			return func(t tuple.Tuple) bool { return binary.BigEndian.Uint64(t[off:]) != k }
		case Lt:
			return func(t tuple.Tuple) bool { return binary.BigEndian.Uint64(t[off:]) < k }
		case Le:
			return func(t tuple.Tuple) bool { return binary.BigEndian.Uint64(t[off:]) <= k }
		case Gt:
			return func(t tuple.Tuple) bool { return binary.BigEndian.Uint64(t[off:]) > k }
		case Ge:
			return func(t tuple.Tuple) bool { return binary.BigEndian.Uint64(t[off:]) >= k }
		}
	case tuple.Float64:
		k := c.Value.F
		return test(c.Op, func(t tuple.Tuple) int {
			switch v := math.Float64frombits(binary.BigEndian.Uint64(t[off:])); {
			case v < k:
				return -1
			case v > k:
				return 1
			}
			return 0
		})
	case tuple.String:
		k, end := []byte(c.Value.S), off+f.Size
		return test(c.Op, func(t tuple.Tuple) int {
			raw := t[off:end]
			if j := bytes.IndexByte(raw, 0); j >= 0 {
				raw = raw[:j]
			}
			return bytes.Compare(raw, k)
		})
	}
	panic(fmt.Sprintf("expr: invalid comparison %v on %v", c.Op, f.Kind))
}

// test turns a three-way comparison into op's verdict.
func test(op Op, cmp func(tuple.Tuple) int) func(tuple.Tuple) bool {
	switch op {
	case Eq:
		return func(t tuple.Tuple) bool { return cmp(t) == 0 }
	case Ne:
		return func(t tuple.Tuple) bool { return cmp(t) != 0 }
	case Lt:
		return func(t tuple.Tuple) bool { return cmp(t) < 0 }
	case Le:
		return func(t tuple.Tuple) bool { return cmp(t) <= 0 }
	case Gt:
		return func(t tuple.Tuple) bool { return cmp(t) > 0 }
	case Ge:
		return func(t tuple.Tuple) bool { return cmp(t) >= 0 }
	}
	panic(fmt.Sprintf("expr: invalid operator %d", int(op)))
}

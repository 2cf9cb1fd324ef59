package expr

import (
	"math"
	"sort"

	"mmdb/internal/tuple"
)

// Range is the closed interval [Lo, Hi] of an int64 column's values.
type Range struct{ Lo, Hi int64 }

// Ranges returns sorted, disjoint ranges of the int64 column col that
// hold col's value in every tuple p admits. The ranges are a superset:
// a reader that fetches the tuples in them must still evaluate p. ok is
// false when p leaves col unbounded — a NOT, a !=, an OR with a branch
// that does not bound col, or no comparison on col at all; an empty,
// ok result means no tuple passes. Comparisons on other columns and on
// other kinds (float -0/+0 and NaN, padded strings) bound nothing.
func Ranges(p Predicate, col int) (rs []Range, ok bool) {
	switch p := p.(type) {
	case *Comparison:
		if p.Col != col || p.Value.Kind != tuple.Int64 {
			return nil, false
		}
		v := p.Value.I
		switch p.Op {
		case Eq:
			return []Range{{v, v}}, true
		case Lt:
			if v == math.MinInt64 {
				return nil, true
			}
			return []Range{{math.MinInt64, v - 1}}, true
		case Le:
			return []Range{{math.MinInt64, v}}, true
		case Gt:
			if v == math.MaxInt64 {
				return nil, true
			}
			return []Range{{v + 1, math.MaxInt64}}, true
		case Ge:
			return []Range{{v, math.MaxInt64}}, true
		}
		return nil, false
	case *and:
		for _, k := range p.kids {
			krs, kok := Ranges(k, col)
			switch {
			case !kok:
			case !ok:
				rs, ok = krs, true
			default:
				rs = intersect(rs, krs)
			}
		}
		return rs, ok
	case *or:
		for _, k := range p.kids {
			krs, kok := Ranges(k, col)
			if !kok {
				return nil, false
			}
			rs = append(rs, krs...)
		}
		return union(rs), true
	}
	return nil, false
}

// intersect returns the ranges in both a and b, each sorted and disjoint.
func intersect(a, b []Range) []Range {
	var out []Range
	for i, j := 0, 0; i < len(a) && j < len(b); {
		if lo, hi := max(a[i].Lo, b[j].Lo), min(a[i].Hi, b[j].Hi); lo <= hi {
			out = append(out, Range{lo, hi})
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// union sorts rs and merges overlapping and adjacent ranges in place.
func union(rs []Range) []Range {
	if len(rs) == 0 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		// r.Lo >= last.Lo, so r.Lo-1 cannot wrap when it is evaluated.
		if r.Lo <= last.Hi || r.Lo-1 == last.Hi {
			last.Hi = max(last.Hi, r.Hi)
			continue
		}
		out = append(out, r)
	}
	return out
}

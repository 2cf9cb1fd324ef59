// Package tuple implements fixed-width tuples over typed schemas.
//
// The 1984 paper characterizes a relation by its tuple width L, key width K
// and page size P; all storage and join algorithms in this repository
// operate on the fixed-width binary tuples defined here. Encoding is
// big-endian so that byte-wise comparison of an encoded integer column
// orders the same way as the integers themselves (for non-negative keys).
package tuple

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Kind identifies a column type.
type Kind uint8

// Supported column kinds.
const (
	Int64 Kind = iota + 1
	Float64
	String // fixed-width, NUL padded
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Field describes one column of a schema.
type Field struct {
	Name string
	Kind Kind
	Size int // byte width; ignored (8) for Int64/Float64, required for String
}

func (f Field) width() int {
	switch f.Kind {
	case Int64, Float64:
		return 8
	default:
		return f.Size
	}
}

// Schema is an ordered list of fields with precomputed offsets.
// A Schema is immutable after construction.
type Schema struct {
	fields  []Field
	offsets []int
	width   int
	byName  map[string]int
}

// NewSchema validates the fields and returns a schema.
func NewSchema(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("tuple: schema needs at least one field")
	}
	s := &Schema{
		fields:  append([]Field(nil), fields...),
		offsets: make([]int, len(fields)),
		byName:  make(map[string]int, len(fields)),
	}
	off := 0
	for i, f := range s.fields {
		if f.Name == "" {
			return nil, fmt.Errorf("tuple: field %d has empty name", i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("tuple: duplicate field name %q", f.Name)
		}
		switch f.Kind {
		case Int64, Float64:
		case String:
			if f.Size <= 0 {
				return nil, fmt.Errorf("tuple: string field %q needs positive Size", f.Name)
			}
		default:
			return nil, fmt.Errorf("tuple: field %q has invalid kind %v", f.Name, f.Kind)
		}
		s.byName[f.Name] = i
		s.offsets[i] = off
		off += f.width()
	}
	s.width = off
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Width returns the fixed encoded tuple width in bytes (the paper's L).
func (s *Schema) Width() int { return s.width }

// NumFields returns the number of columns.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field descriptor.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// FieldIndex returns the index of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Offset returns the byte offset of field i within an encoded tuple.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// FieldWidth returns the encoded width of field i.
func (s *Schema) FieldWidth(i int) int { return s.fields[i].width() }

func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Name, f.Kind)
		if f.Kind == String {
			fmt.Fprintf(&b, "(%d)", f.Size)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is an encoded fixed-width row. Tuples are plain byte slices so they
// can be moved between pages with copy, exactly the "move" primitive the
// paper charges for.
type Tuple []byte

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}

// Value is a dynamically typed column value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// IntValue returns an Int64 value.
func IntValue(v int64) Value { return Value{Kind: Int64, I: v} }

// FloatValue returns a Float64 value.
func FloatValue(v float64) Value { return Value{Kind: Float64, F: v} }

// StringValue returns a String value.
func StringValue(v string) Value { return Value{Kind: String, S: v} }

func (v Value) String() string {
	switch v.Kind {
	case Int64:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case String:
		return v.S
	default:
		return "<invalid>"
	}
}

// Compare orders two values of the same kind. It panics if the kinds differ
// or are invalid, which always indicates a planner/schema bug.
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		panic(fmt.Sprintf("tuple: comparing %v with %v", a.Kind, b.Kind))
	}
	switch a.Kind {
	case Int64:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case Float64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case String:
		return strings.Compare(a.S, b.S)
	default:
		panic(fmt.Sprintf("tuple: comparing invalid kind %v", a.Kind))
	}
}

// Encode writes the values into a fresh tuple. The number and kinds of the
// values must match the schema.
func (s *Schema) Encode(values ...Value) (Tuple, error) {
	if len(values) != len(s.fields) {
		return nil, fmt.Errorf("tuple: schema has %d fields, got %d values", len(s.fields), len(values))
	}
	t := make(Tuple, s.width)
	for i, v := range values {
		if err := s.Set(t, i, v); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustEncode is Encode that panics on error, for tests and generators.
func (s *Schema) MustEncode(values ...Value) Tuple {
	t, err := s.Encode(values...)
	if err != nil {
		panic(err)
	}
	return t
}

// Set overwrites field i of t with v.
func (s *Schema) Set(t Tuple, i int, v Value) error {
	f := s.fields[i]
	if v.Kind != f.Kind {
		return fmt.Errorf("tuple: field %q is %v, got %v", f.Name, f.Kind, v.Kind)
	}
	off := s.offsets[i]
	switch f.Kind {
	case Int64:
		// Flip the sign bit so byte-wise comparison matches signed order.
		binary.BigEndian.PutUint64(t[off:], uint64(v.I)^(1<<63))
	case Float64:
		binary.BigEndian.PutUint64(t[off:], math.Float64bits(v.F))
	case String:
		if len(v.S) > f.Size {
			return fmt.Errorf("tuple: string %q exceeds field %q width %d", v.S, f.Name, f.Size)
		}
		dst := t[off : off+f.Size]
		n := copy(dst, v.S)
		for j := n; j < f.Size; j++ {
			dst[j] = 0
		}
	}
	return nil
}

// Get decodes field i of t.
func (s *Schema) Get(t Tuple, i int) Value {
	f := s.fields[i]
	off := s.offsets[i]
	switch f.Kind {
	case Int64:
		return IntValue(int64(binary.BigEndian.Uint64(t[off:]) ^ (1 << 63)))
	case Float64:
		return FloatValue(math.Float64frombits(binary.BigEndian.Uint64(t[off:])))
	case String:
		raw := t[off : off+f.Size]
		if j := bytes.IndexByte(raw, 0); j >= 0 {
			raw = raw[:j]
		}
		return StringValue(string(raw))
	default:
		panic(fmt.Sprintf("tuple: invalid kind %v", f.Kind))
	}
}

// Int returns field i of t, which must be Int64.
func (s *Schema) Int(t Tuple, i int) int64 {
	if s.fields[i].Kind != Int64 {
		panic(fmt.Sprintf("tuple: field %q is %v, not int64", s.fields[i].Name, s.fields[i].Kind))
	}
	return int64(binary.BigEndian.Uint64(t[s.offsets[i]:]) ^ (1 << 63))
}

// KeyBytes returns the raw encoded bytes of field i, suitable for hashing
// and byte-wise ordering (the encoding is order-preserving).
func (s *Schema) KeyBytes(t Tuple, i int) []byte {
	off := s.offsets[i]
	return t[off : off+s.fields[i].width()]
}

// IntKey returns the key bytes of an Int64 field holding v (KeyBytes'
// encoding, which orders bytewise as the values order numerically).
func IntKey(v int64) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(v)^(1<<63))
}

// CompareField orders two tuples by field i without decoding.
func (s *Schema) CompareField(a, b Tuple, i int) int {
	return bytes.Compare(s.KeyBytes(a, i), s.KeyBytes(b, i))
}

// Decode returns all column values of t.
func (s *Schema) Decode(t Tuple) []Value {
	vs := make([]Value, len(s.fields))
	for i := range s.fields {
		vs[i] = s.Get(t, i)
	}
	return vs
}

// Format renders t as a human-readable row.
func (s *Schema) Format(t Tuple) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := range s.fields {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(s.Get(t, i).String())
	}
	b.WriteByte(']')
	return b.String()
}

// Project returns a schema consisting of the given columns of s, and an
// encoder that maps a tuple of s to a tuple of the projected schema.
func (s *Schema) Project(cols []int) (*Schema, func(Tuple) Tuple, error) {
	fields := make([]Field, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(s.fields) {
			return nil, nil, fmt.Errorf("tuple: project column %d out of range", c)
		}
		fields[i] = s.fields[c]
	}
	out, err := NewSchema(fields...)
	if err != nil {
		return nil, nil, err
	}
	proj := func(t Tuple) Tuple {
		p := make(Tuple, out.width)
		for i, c := range cols {
			copy(p[out.offsets[i]:], t[s.offsets[c]:s.offsets[c]+s.fields[c].width()])
		}
		return p
	}
	return out, proj, nil
}

// Concat returns the schema of a joined pair and a combiner. Field names are
// prefixed to stay unique.
func Concat(left, right *Schema, leftPrefix, rightPrefix string) (*Schema, func(l, r Tuple) Tuple, error) {
	fields := make([]Field, 0, len(left.fields)+len(right.fields))
	for _, f := range left.fields {
		f.Name = leftPrefix + f.Name
		fields = append(fields, f)
	}
	for _, f := range right.fields {
		f.Name = rightPrefix + f.Name
		fields = append(fields, f)
	}
	out, err := NewSchema(fields...)
	if err != nil {
		return nil, nil, err
	}
	lw := left.width
	comb := func(l, r Tuple) Tuple {
		t := make(Tuple, out.width)
		copy(t, l)
		copy(t[lw:], r)
		return t
	}
	return out, comb, nil
}

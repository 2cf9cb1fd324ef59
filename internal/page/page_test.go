package page

import (
	"testing"

	"mmdb/internal/tuple"
)

func TestCapacityMatchesPaperWorkload(t *testing.T) {
	// Table 2: 40 tuples of 100 bytes per 4096-byte page.
	if got := CapacityFor(DefaultSize, 100); got != 40 {
		t.Fatalf("capacity = %d, want 40", got)
	}
}

func TestAppendAndRead(t *testing.T) {
	p := New(256, 20)
	if p.Capacity() != (256-4)/20 {
		t.Fatalf("capacity = %d", p.Capacity())
	}
	mk := func(b byte) tuple.Tuple {
		t := make(tuple.Tuple, 20)
		for i := range t {
			t[i] = b
		}
		return t
	}
	n := 0
	for p.Append(mk(byte(n))) {
		n++
		if n > p.Capacity() {
			t.Fatal("appended beyond capacity")
		}
	}
	if n != p.Capacity() || p.Count() != n {
		t.Fatalf("filled %d of %d", n, p.Capacity())
	}
	for i := 0; i < n; i++ {
		if got := p.Tuple(i); got[0] != byte(i) {
			t.Fatalf("tuple %d = %x", i, got[0])
		}
		if got := p.At(i); got[0] != byte(i) || len(got) != 20 || cap(got) != 20 {
			t.Fatalf("At(%d) = %x (len %d, cap %d)", i, got[0], len(got), cap(got))
		}
	}
	p.Reset()
	if p.Count() != 0 {
		t.Fatal("reset did not empty the page")
	}
}

func TestWrapValidatesHeader(t *testing.T) {
	p := New(128, 20)
	p.Append(make(tuple.Tuple, 20))
	q := Wrap(p.Bytes(), 20)
	if q.Count() != 1 {
		t.Fatalf("wrapped count = %d", q.Count())
	}
	bad := make([]byte, 128)
	bad[3] = 0xFF // absurd count
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt header accepted")
		}
	}()
	Wrap(bad, 20)
}

func TestGeometryPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(16, 20) }, // tuple wider than page
		func() { New(256, 0) }, // zero width
		func() {
			p := New(256, 20)
			p.Append(make(tuple.Tuple, 8)) // wrong width
		},
		func() {
			p := New(256, 20)
			p.Tuple(0) // out of range
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

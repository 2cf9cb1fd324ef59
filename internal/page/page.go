// Package page implements the fixed-width slotted page layout used by heap
// files, sort runs, hash partitions and B+-tree leaves.
//
// Layout: a 4-byte big-endian tuple count followed by densely packed
// fixed-width tuples. With a 4 KB page and a 100-byte tuple this matches
// the paper's 40 tuples/page workload (Table 2).
package page

import (
	"encoding/binary"
	"fmt"

	"mmdb/internal/tuple"
)

// DefaultSize is the paper's page size P (4096 bytes).
const DefaultSize = 4096

// headerSize is the per-page bookkeeping overhead.
const headerSize = 4

// TuplePage is a view over one page image holding fixed-width tuples.
// It does not own the byte slice.
type TuplePage struct {
	data  []byte
	width int
}

// New initializes an empty tuple page of the given total size for tuples of
// the given width.
func New(pageSize, width int) TuplePage {
	p := TuplePage{data: make([]byte, pageSize), width: width}
	p.checkGeometry()
	return p
}

// Wrap interprets an existing page image (for example one read from a
// simio.Space) as a tuple page.
func Wrap(data []byte, width int) TuplePage {
	p := TuplePage{data: data, width: width}
	p.checkGeometry()
	if n := p.Count(); n > p.Capacity() {
		panic(fmt.Sprintf("page: corrupt page header: count %d exceeds capacity %d", n, p.Capacity()))
	}
	return p
}

func (p TuplePage) checkGeometry() {
	if p.width <= 0 {
		panic("page: tuple width must be positive")
	}
	if CapacityFor(len(p.data), p.width) < 1 {
		panic(fmt.Sprintf("page: tuple width %d does not fit page size %d", p.width, len(p.data)))
	}
}

// CapacityFor returns how many tuples of the given width fit a page of the
// given size.
func CapacityFor(pageSize, width int) int {
	return (pageSize - headerSize) / width
}

// Bytes returns the underlying page image.
func (p TuplePage) Bytes() []byte { return p.data }

// Capacity returns the maximum number of tuples the page can hold.
func (p TuplePage) Capacity() int { return CapacityFor(len(p.data), p.width) }

// Count returns the number of tuples currently on the page.
func (p TuplePage) Count() int {
	return int(binary.BigEndian.Uint32(p.data))
}

func (p TuplePage) setCount(n int) {
	binary.BigEndian.PutUint32(p.data, uint32(n))
}

// Reset empties the page.
func (p TuplePage) Reset() {
	p.setCount(0)
}

// Append adds t to the page. It reports false when the page is full.
func (p TuplePage) Append(t tuple.Tuple) bool {
	if len(t) != p.width {
		panic(fmt.Sprintf("page: appending %d-byte tuple to %d-byte slots", len(t), p.width))
	}
	n := p.Count()
	if n >= p.Capacity() {
		return false
	}
	copy(p.data[SlotOffset(n, p.width):], t)
	p.setCount(n + 1)
	return true
}

// Tuple returns the i-th tuple on the page as a view into the page image.
// Callers that retain the tuple past the page's lifetime must Clone it.
func (p TuplePage) Tuple(i int) tuple.Tuple {
	if i < 0 || i >= p.Count() {
		panic(fmt.Sprintf("page: tuple index %d out of range [0,%d)", i, p.Count()))
	}
	off := SlotOffset(i, p.width)
	return tuple.Tuple(p.data[off : off+p.width : off+p.width])
}

// At is slot i's tuple view, for i below Count: Tuple without its range
// check, for a per-row loop that already knows the page's count.
func (p TuplePage) At(i int) tuple.Tuple {
	off := SlotOffset(i, p.width)
	return tuple.Tuple(p.data[off : off+p.width : off+p.width])
}

// Set overwrites the i-th tuple in place.
func (p TuplePage) Set(i int, t tuple.Tuple) {
	if len(t) != p.width {
		panic(fmt.Sprintf("page: setting %d-byte tuple in %d-byte slots", len(t), p.width))
	}
	copy(p.Tuple(i), t)
}

// SlotOffset returns the byte offset of slot i in the page image.
func SlotOffset(i, width int) int { return headerSize + i*width }

// Package heap implements unordered paged relation storage (heap files)
// over the simulated disk: the base representation of the paper's relations
// R and S, and of the temporary files (sort runs, hash partitions,
// passed-over tuple files) the join algorithms create.
package heap

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"mmdb/internal/fault"
	"mmdb/internal/page"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// File is a paged sequence of fixed-width tuples. Appends are buffered one
// page at a time; Flush writes that tail page, and later appends keep
// filling it in place, so every page but the last is full. Mutation
// (Append, Insert, Delete, Flush, Drop, Rewrite) is not safe for
// concurrent use, but read-only Scans may run concurrently — the parallel
// join workers rely on this when each scans its own partition file.
//
// Every tuple has an address, its RID, that stays put until the tuple is
// deleted. Deleted slots are not marked in the page image, so a page's
// capacity depends on the schema alone: they are recorded in a live-slot
// map beside the pages, scans skip them, and Insert refills them before it
// appends.
type File struct {
	disk   *simio.Disk
	space  *simio.Space
	schema *tuple.Schema
	*state // shared by every OnDisk handle
}

// state is the part of a heap file that is not page images: the append
// buffer, the live count and the dead slots.
type state struct {
	cur    page.TuplePage
	onDisk bool // cur is the image of the space's last page (Flush wrote it)
	dirty  bool // cur changed since that write
	tuples int64
	dead   map[int32][]uint64 // page -> bitmap of its dead slots
	free   []RID              // the dead slots, most recently freed last
}

// RID is a tuple's address: its page and its slot within the page.
type RID struct {
	Page, Slot int32
}

// RIDWidth is the size of an encoded RID: the payload an index stores.
const RIDWidth = 8

// Put encodes r into b[:RIDWidth]. Encoded RIDs order as storage order.
func (r RID) Put(b []byte) {
	binary.BigEndian.PutUint32(b, uint32(r.Page))
	binary.BigEndian.PutUint32(b[4:], uint32(r.Slot))
}

// DecodeRID is the inverse of RID.Put.
func DecodeRID(b []byte) RID {
	return RID{Page: int32(binary.BigEndian.Uint32(b)), Slot: int32(binary.BigEndian.Uint32(b[4:]))}
}

// Compare orders RIDs as storage order: -1, 0 or +1 as r is before, at or
// after o.
func (r RID) Compare(o RID) int {
	if c := cmp.Compare(r.Page, o.Page); c != 0 {
		return c
	}
	return cmp.Compare(r.Slot, o.Slot)
}

// Create makes an empty heap file named name on disk.
func Create(disk *simio.Disk, name string, schema *tuple.Schema) (*File, error) {
	space, err := disk.Create(name)
	if err != nil {
		return nil, err
	}
	// One allocation for the handle and its state: operators create a
	// file per sort run and hash partition.
	fs := new(struct {
		f  File
		st state
	})
	fs.st.cur = page.New(disk.PageSize(), schema.Width())
	fs.f = File{disk: disk, space: space, schema: schema, state: &fs.st}
	return &fs.f, nil
}

// MustCreate is Create that panics on error.
func MustCreate(disk *simio.Disk, name string, schema *tuple.Schema) *File {
	f, err := Create(disk, name, schema)
	if err != nil {
		panic(err)
	}
	return f
}

// Schema returns the file's tuple schema.
func (f *File) Schema() *tuple.Schema { return f.schema }

// OnDisk returns a handle on the same heap file whose IO charges through d
// — a View of the file's own disk, for a concurrent statement's private
// cost accounting (a session's, or an experiment query's). Handles share
// the page storage, the append buffer and the live-slot map; the caller
// must ensure at most one handle mutates the file, and never concurrently
// with reads through the others (the engine's relation-level S/X locks
// provide this).
func (f *File) OnDisk(d *simio.Disk) (*File, error) {
	space, err := d.Open(f.space.Name())
	if err != nil {
		return nil, err
	}
	return &File{disk: d, space: space, schema: f.schema, state: f.state}, nil
}

// Disk returns the disk the file lives on.
func (f *File) Disk() *simio.Disk { return f.disk }

// Name returns the underlying space name.
func (f *File) Name() string { return f.space.Name() }

// NumTuples returns the number of live tuples in the file (including
// buffered ones).
func (f *File) NumTuples() int64 { return f.tuples }

// NumPages returns the number of pages the file occupies, counting a
// non-empty append buffer as one page (the paper's |R|).
func (f *File) NumPages() int {
	n := f.space.NumPages()
	if !f.onDisk && f.cur.Count() > 0 {
		n++
	}
	return n
}

// TuplesPerPage returns the page capacity in tuples (the paper's ||R||/|R|).
func (f *File) TuplesPerPage() int { return f.cur.Capacity() }

// Append adds t to the end of the file. Full pages are written with the
// given access kind.
func (f *File) Append(t tuple.Tuple, a simio.Access) error {
	if err := f.checkWidth(t); err != nil {
		return err
	}
	if !f.cur.Append(t) {
		if !f.onDisk || f.dirty {
			if err := f.writeCur(a); err != nil {
				return err
			}
		}
		f.cur.Reset()
		f.onDisk = false
		f.cur.Append(t)
	}
	f.dirty = f.onDisk
	f.tuples++
	return nil
}

func (f *File) checkWidth(t tuple.Tuple) error {
	if len(t) != f.schema.Width() {
		return fmt.Errorf("heap: tuple width %d does not match schema width %d", len(t), f.schema.Width())
	}
	return nil
}

// Insert stores t, uncharged, and returns its address: the most recently
// freed slot if the file has one, else a new slot at the end.
func (f *File) Insert(t tuple.Tuple) (RID, error) {
	if err := f.checkWidth(t); err != nil {
		return RID{}, err
	}
	n := len(f.free)
	if n == 0 {
		if err := f.Append(t, simio.Uncharged); err != nil {
			return RID{}, err
		}
		return RID{Page: int32(f.curPage()), Slot: int32(f.cur.Count() - 1)}, nil
	}
	rid := f.free[n-1]
	if int(rid.Page) == f.curPage() {
		f.cur.Set(int(rid.Slot), t)
		f.dirty = f.onDisk
	} else if err := f.space.WriteAt(int(rid.Page), page.SlotOffset(int(rid.Slot), len(t)), t, simio.Uncharged); err != nil {
		return RID{}, err
	}
	f.free = f.free[:n-1]
	bits := f.dead[rid.Page]
	bits[rid.Slot/64] &^= 1 << (rid.Slot % 64)
	if allZero(bits) {
		delete(f.dead, rid.Page)
	}
	f.tuples++
	return rid, nil
}

func allZero(bits []uint64) bool {
	for _, w := range bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// curPage is the page number the append buffer holds.
func (f *File) curPage() int {
	if f.onDisk {
		return f.space.NumPages() - 1
	}
	return f.space.NumPages()
}

// Delete frees the slot at rid; scans skip it until Insert reuses it.
// Deletion is uncharged and leaves the page image as it is.
func (f *File) Delete(rid RID) error {
	if !f.live(rid) {
		return fmt.Errorf("heap: delete of %v in %q: no live tuple there", rid, f.Name())
	}
	if f.dead == nil {
		f.dead = make(map[int32][]uint64)
	}
	bits := f.dead[rid.Page]
	if bits == nil {
		bits = make([]uint64, (f.cur.Capacity()+63)/64)
		f.dead[rid.Page] = bits
	}
	bits[rid.Slot/64] |= 1 << (rid.Slot % 64)
	f.free = append(f.free, rid)
	f.tuples--
	return nil
}

// live reports whether rid addresses a live tuple. Every page but the last
// is full, and the last is the append buffer unless that is empty.
func (f *File) live(rid RID) bool {
	p, s := int(rid.Page), int(rid.Slot)
	last := f.NumPages() - 1
	count := f.cur.Capacity()
	if p == f.curPage() {
		count = f.cur.Count()
	}
	if p < 0 || p > last || s < 0 || s >= count {
		return false
	}
	return !isDead(f.dead[rid.Page], s)
}

func isDead(bits []uint64, slot int) bool {
	return bits != nil && bits[slot/64]&(1<<(slot%64)) != 0
}

// Fetch returns a copy of the live tuple at rid, uncharged.
func (f *File) Fetch(rid RID) (tuple.Tuple, error) {
	if !f.live(rid) {
		return nil, fmt.Errorf("heap: fetch of %v in %q: no live tuple there", rid, f.Name())
	}
	if int(rid.Page) == f.curPage() {
		return f.cur.Tuple(int(rid.Slot)).Clone(), nil
	}
	t := make(tuple.Tuple, f.schema.Width())
	err := f.space.ReadAt(int(rid.Page), page.SlotOffset(int(rid.Slot), len(t)), t, simio.Uncharged)
	return t, err
}

// Flush writes the append buffer's page, in place if an earlier Flush
// already wrote it. Appends after a Flush keep filling the same page.
func (f *File) Flush(a simio.Access) error {
	if f.cur.Count() == 0 || (f.onDisk && !f.dirty) {
		return nil
	}
	return f.writeCur(a)
}

// writeCur writes the append buffer to disk as the file's last page.
// Injected transient device faults are absorbed by bounded retry with
// virtual-time backoff; anything else (permanent failures, plain injected
// errors) propagates immediately.
func (f *File) writeCur(a simio.Access) error {
	err := fault.Retry(f.disk.Clock(), 0, func() error {
		if f.onDisk {
			return f.space.Write(f.space.NumPages()-1, f.cur.Bytes(), a)
		}
		_, e := f.space.Append(f.cur.Bytes(), a)
		return e
	})
	if err != nil {
		return err
	}
	f.onDisk, f.dirty = true, false
	return nil
}

// ReadPage returns the n-th page of the file: the stored page image, not
// a copy (simio.Space.Read). The append buffer, while it holds tuples no
// write has reached, is addressable as page NumPages()-1 and never charges
// IO. Like writeCur, injected transient faults are absorbed by bounded
// retry. The page may hold dead slots; Scan skips them.
//
// The page stays as it is while no one mutates the file: a base
// relation's reader holds a shared intent and its writers an exclusive
// one, and a temporary file (a sort run, a hash partition) is written
// only before it is read. A Flush after appends rewrites the last page in
// place, and Insert refills freed slots in place, so a view must not be
// held across a mutation, and the caller must never write through it.
func (f *File) ReadPage(n int, a simio.Access) (page.TuplePage, error) {
	flushed := f.space.NumPages()
	if f.dirty && n == flushed-1 {
		return f.cur, nil
	}
	if n < flushed {
		var data []byte
		err := fault.Retry(f.disk.Clock(), 0, func() error {
			d, e := f.space.Read(n, a)
			data = d
			return e
		})
		if err != nil {
			return page.TuplePage{}, err
		}
		return page.Wrap(data, f.schema.Width()), nil
	}
	if n == flushed && !f.onDisk && f.cur.Count() > 0 {
		return f.cur, nil
	}
	return page.TuplePage{}, fmt.Errorf("heap: page %d out of range in %q", n, f.Name())
}

// Scan iterates every live tuple in file order, reading each page with
// the given access kind, until fn returns false. The tuple views passed to
// fn point into the stored pages (ReadPage): they stay valid only while
// the file is not mutated, so Clone a tuple that outlives the caller's
// intent or the call.
func (f *File) Scan(a simio.Access, fn func(t tuple.Tuple) bool) error {
	return f.ScanRange(0, f.NumPages(), a, fn)
}

// ScanRange iterates the live tuples of pages [start, end) in file order,
// until fn returns false. The chunked sort's formation workers each scan
// their own disjoint page range concurrently; the tuple views are Scan's.
func (f *File) ScanRange(start, end int, a simio.Access, fn func(t tuple.Tuple) bool) error {
	return f.scan(start, end, a, func(_ RID, t tuple.Tuple) bool { return fn(t) })
}

// ScanRIDs is Scan that also passes each tuple's address.
func (f *File) ScanRIDs(a simio.Access, fn func(rid RID, t tuple.Tuple) bool) error {
	return f.scan(0, f.NumPages(), a, fn)
}

// scan calls fn with each live slot's address and tuple view on pages
// [start, end), until fn returns false.
func (f *File) scan(start, end int, a simio.Access, fn func(rid RID, t tuple.Tuple) bool) error {
	return f.ScanPages(start, end, a, func(p Page) bool {
		for j, n := 0, p.Count(); j < n; j++ {
			if p.Live(j) && !fn(RID{Page: p.N, Slot: int32(j)}, p.At(j)) {
				return false
			}
		}
		return true
	})
}

// Page is one page of a scan: its number, its image (ReadPage's view of
// the stored page) and which of its slots are live.
type Page struct {
	page.TuplePage
	N    int32
	dead []uint64
}

// Live reports whether slot j holds a live tuple.
func (p Page) Live(j int) bool { return !isDead(p.dead, j) }

// ScanPages is the one page walk every scan wraps: it reads pages [start,
// end) in file order with access a and calls fn with each, until fn
// returns false. A reader that works a page at a time (the engine's
// filtered read, which charges its predicate per page) walks the slots
// itself, skipping those that are not Live.
func (f *File) ScanPages(start, end int, a simio.Access, fn func(p Page) bool) error {
	if n := f.NumPages(); end > n {
		end = n
	}
	for i := start; i < end; i++ {
		p, err := f.ReadPage(i, a)
		if err != nil {
			return err
		}
		var dead []uint64
		if len(f.dead) > 0 {
			dead = f.dead[int32(i)]
		}
		if !fn(Page{TuplePage: p, N: int32(i), dead: dead}) {
			return nil
		}
	}
	return nil
}

// CopyTo copies the file into dst, an empty file of the same schema,
// uncharged and page for page: the same page images, append buffer, dead
// slots and free-slot order, so every RID addresses the same tuple in both
// files and the next Insert lands in the same slot in each.
func (f *File) CopyTo(dst *File) error {
	if dst.schema.Width() != f.schema.Width() || dst.disk.PageSize() != f.disk.PageSize() || dst.NumPages() != 0 {
		return fmt.Errorf("heap: copy of %q into %q: destination is not an empty file of the same geometry", f.Name(), dst.Name())
	}
	for i, n := 0, f.space.NumPages(); i < n; i++ {
		data, err := f.space.Read(i, simio.Uncharged)
		if err != nil {
			return err
		}
		if _, err := dst.space.Append(data, simio.Uncharged); err != nil {
			return err
		}
	}
	copy(dst.cur.Bytes(), f.cur.Bytes())
	dst.onDisk, dst.dirty, dst.tuples = f.onDisk, f.dirty, f.tuples
	dst.free = append([]RID(nil), f.free...)
	dst.dead = make(map[int32][]uint64, len(f.dead))
	for p, bits := range f.dead {
		dst.dead[p] = append([]uint64(nil), bits...)
	}
	return nil
}

// Drop removes the file's pages from the disk.
func (f *File) Drop() {
	f.space.Truncate()
	f.disk.Remove(f.Name())
	f.reset()
}

// reset empties everything but the page images.
func (f *File) reset() {
	f.cur.Reset()
	f.onDisk, f.dirty = false, false
	f.tuples = 0
	f.dead, f.free = nil, nil
}

// Rewrite is the explicit vacuum: it streams every live tuple through fn
// and compacts the file in place, dropping dead slots and with them every
// RID. fn returns the (possibly replaced) tuple and whether to keep it. A
// kept tuple of the wrong width fails the rewrite with the file untouched.
// The rewrite is uncharged — maintenance, not part of any paper
// experiment. The engine never calls it (a DELETE frees slots in place);
// its one caller outside tests is the benchmark's heap.rewrite_ms kernel.
func (f *File) Rewrite(fn func(t tuple.Tuple) (tuple.Tuple, bool)) error {
	var kept []tuple.Tuple
	var bad error
	err := f.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		out, keep := fn(t)
		if keep && len(out) != f.schema.Width() {
			bad = fmt.Errorf("heap: rewrite produced a %d-byte tuple, want %d", len(out), f.schema.Width())
		} else if keep {
			kept = append(kept, out.Clone())
		}
		return bad == nil
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return err
	}
	f.space.Truncate()
	f.reset()
	for _, t := range kept {
		if err := f.Append(t, simio.Uncharged); err != nil {
			return err
		}
	}
	return f.Flush(simio.Uncharged)
}

// Load appends all tuples, then flushes; a convenience for test and
// workload setup (uncharged, like the paper's initial relation reads).
func (f *File) Load(tuples []tuple.Tuple) error {
	for _, t := range tuples {
		if err := f.Append(t, simio.Uncharged); err != nil {
			return err
		}
	}
	return f.Flush(simio.Uncharged)
}

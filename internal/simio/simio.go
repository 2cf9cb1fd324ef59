// Package simio provides a simulated page-oriented disk.
//
// The disk stores page images in memory and charges every access to a
// cost.Clock as either a sequential or a random IO operation, following the
// IOseq/IOrand model of the paper (§3.2). Algorithms that the paper
// excludes from its cost accounting (the initial read of the base
// relations, the final write of the join result) use Uncharged access.
package simio

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mmdb/internal/cost"
)

// Access classifies a page operation for cost accounting.
type Access int

// Access kinds.
const (
	Seq       Access = iota // charged at IOseq
	Rand                    // charged at IOrand
	Uncharged               // not charged (costs common to all algorithms)
)

func (a Access) String() string {
	switch a {
	case Seq:
		return "seq"
	case Rand:
		return "rand"
	case Uncharged:
		return "uncharged"
	default:
		return fmt.Sprintf("Access(%d)", int(a))
	}
}

// Disk is a collection of named page spaces sharing one virtual clock.
// The disk (and each Space) is safe for concurrent use; parallel partition
// workers read and drop disjoint spaces, and the per-access cost charges
// go to the lock-free clock.
//
// A Disk value is a *view* onto shared page storage: View returns a second
// handle on the same spaces that charges a different clock. The session
// layer gives every admitted query its own view + clock, which is what
// keeps per-query counters bit-identical under concurrency — each query's
// charges land on its private clock and are merged into the global one at
// session close. Views are per concurrent statement only: an operator's
// parallel workers share its one clock rather than each charging a view.
type Disk struct {
	store *diskStore
	clock *cost.Clock
}

// diskStore is the storage shared by every view of one disk: the space
// registry and the device-level fault-injection state.
type diskStore struct {
	mu       sync.Mutex
	pageSize int
	spaces   map[string]*spaceData

	// injector, when non-nil, is consulted on every charged IO. The
	// atomic pointer keeps the common unarmed path free of locks.
	injector atomic.Pointer[injectorRef]
}

// injectorRef boxes an Injector so the interface value can live behind an
// atomic pointer.
type injectorRef struct{ inj Injector }

// Outcome is an injector's verdict for one charged IO operation.
type Outcome struct {
	// Err, when non-nil, fails the access; the space wraps it with
	// context so errors.Is still reaches the injector's sentinel.
	Err error
	// Stall charges that many extra IO operations of the same kind
	// before the access proceeds — a latency inflation, not a failure.
	Stall int64
}

// Injector decides the fate of every charged IO operation on a disk.
// Uncharged accesses are exempt. Implementations must be safe for
// concurrent use: parallel partition workers issue IO from many
// goroutines. The canonical implementation with seeded transient/
// permanent/stall schedules lives in internal/fault; this package keeps
// only the consultation hook to avoid an import cycle.
type Injector interface {
	ChargedIO(space string, a Access) Outcome
}

// SetInjector installs inj as the disk's fault injector, consulted on
// every charged IO of every space. Pass nil to disarm. The injector is
// device state, shared by all views of the disk.
func (d *Disk) SetInjector(inj Injector) {
	if inj == nil {
		d.store.injector.Store(nil)
		return
	}
	d.store.injector.Store(&injectorRef{inj: inj})
}

// ErrInjected marks an injected device failure.
var ErrInjected = errors.New("simio: injected device failure")

// NewDisk creates a disk with the given page size charging to clock.
func NewDisk(clock *cost.Clock, pageSize int) *Disk {
	if pageSize <= 0 {
		panic("simio: page size must be positive")
	}
	return &Disk{
		clock: clock,
		store: &diskStore{
			pageSize: pageSize,
			spaces:   make(map[string]*spaceData),
		},
	}
}

// View returns a handle on the same page storage that charges all IO to
// clock instead of the disk's own clock. Spaces created or opened through
// the view live in the shared registry (names are global), but their
// charged accesses land on the view's clock.
func (d *Disk) View(clock *cost.Clock) *Disk {
	return &Disk{store: d.store, clock: clock}
}

// PageSize returns the disk's page size in bytes.
func (d *Disk) PageSize() int { return d.store.pageSize }

// Clock returns the clock the disk charges to.
func (d *Disk) Clock() *cost.Clock { return d.clock }

// Create makes a new empty space. It fails if the name is taken.
func (d *Disk) Create(name string) (*Space, error) {
	d.store.mu.Lock()
	defer d.store.mu.Unlock()
	if _, ok := d.store.spaces[name]; ok {
		return nil, fmt.Errorf("simio: space %q already exists", name)
	}
	data := &spaceData{}
	d.store.spaces[name] = data
	return &Space{name: name, disk: d, data: data}, nil
}

// MustCreate is Create that panics on error.
func (d *Disk) MustCreate(name string) *Space {
	s, err := d.Create(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Open returns an existing space. The returned handle charges IO through
// d's clock, so opening one space through two views yields handles that
// share pages but charge different clocks.
func (d *Disk) Open(name string) (*Space, error) {
	d.store.mu.Lock()
	defer d.store.mu.Unlock()
	data, ok := d.store.spaces[name]
	if !ok {
		return nil, fmt.Errorf("simio: space %q does not exist", name)
	}
	return &Space{name: name, disk: d, data: data}, nil
}

// Remove deletes a space and releases its pages.
func (d *Disk) Remove(name string) {
	d.store.mu.Lock()
	defer d.store.mu.Unlock()
	delete(d.store.spaces, name)
}

// Spaces returns the names of all spaces in sorted order.
func (d *Disk) Spaces() []string {
	d.store.mu.Lock()
	defer d.store.mu.Unlock()
	names := make([]string, 0, len(d.store.spaces))
	for n := range d.store.spaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// spaceData is the page storage shared by all handles on one space.
type spaceData struct {
	mu    sync.Mutex
	pages [][]byte
}

// Space is a file of fixed-size pages. A Space handle is bound to the disk
// view it was created or opened through; its charged accesses go to that
// view's clock while the page data itself is shared with every other
// handle on the same name.
type Space struct {
	name string
	disk *Disk
	data *spaceData
}

// Name returns the space name.
func (s *Space) Name() string { return s.name }

// NumPages returns the number of pages in the space.
func (s *Space) NumPages() int {
	s.data.mu.Lock()
	defer s.data.mu.Unlock()
	return len(s.data.pages)
}

// Append writes data as a new page at the end of the space and returns its
// page number. The data is copied; short data is zero padded.
func (s *Space) Append(data []byte, a Access) (int, error) {
	if len(data) > s.disk.store.pageSize {
		return 0, fmt.Errorf("simio: page data %d bytes exceeds page size %d", len(data), s.disk.store.pageSize)
	}
	if err := s.charge(a); err != nil {
		return 0, err
	}
	p := make([]byte, s.disk.store.pageSize)
	copy(p, data)
	s.data.mu.Lock()
	s.data.pages = append(s.data.pages, p)
	n := len(s.data.pages) - 1
	s.data.mu.Unlock()
	return n, nil
}

// Write overwrites page n in place.
func (s *Space) Write(n int, data []byte, a Access) error {
	if len(data) > s.disk.store.pageSize {
		return fmt.Errorf("simio: page data %d bytes exceeds page size %d", len(data), s.disk.store.pageSize)
	}
	if err := s.charge(a); err != nil {
		return err
	}
	s.data.mu.Lock()
	if n < 0 || n >= len(s.data.pages) {
		s.data.mu.Unlock()
		return fmt.Errorf("simio: write to page %d of %q (have %d pages)", n, s.name, len(s.data.pages))
	}
	p := s.data.pages[n]
	copy(p, data)
	for i := len(data); i < len(p); i++ {
		p[i] = 0
	}
	s.data.mu.Unlock()
	return nil
}

// Read returns page n's stored image, not a copy: the disk is memory
// resident, so a read is a view of the page, and a later Write or WriteAt
// of the page shows through it. The caller must not modify the image, and
// may rely on it only while no one writes the page (docs/ARCHITECTURE.md,
// "Page lifetime").
func (s *Space) Read(n int, a Access) ([]byte, error) {
	if err := s.charge(a); err != nil {
		return nil, err
	}
	s.data.mu.Lock()
	defer s.data.mu.Unlock()
	if n < 0 || n >= len(s.data.pages) {
		return nil, fmt.Errorf("simio: read of page %d of %q (have %d pages)", n, s.name, len(s.data.pages))
	}
	return s.data.pages[n], nil
}

// ReadAt copies len(dst) bytes of page n, starting at byte off, into dst:
// one page access, without copying the rest of the page.
func (s *Space) ReadAt(n, off int, dst []byte, a Access) error {
	if err := s.charge(a); err != nil {
		return err
	}
	s.data.mu.Lock()
	defer s.data.mu.Unlock()
	if n < 0 || n >= len(s.data.pages) || off < 0 || off+len(dst) > s.disk.store.pageSize {
		return fmt.Errorf("simio: read of %d bytes at %d of page %d of %q (have %d pages)", len(dst), off, n, s.name, len(s.data.pages))
	}
	copy(dst, s.data.pages[n][off:])
	return nil
}

// WriteAt overwrites len(src) bytes of page n, starting at byte off: one
// page access that leaves the rest of the page as it is.
func (s *Space) WriteAt(n, off int, src []byte, a Access) error {
	if err := s.charge(a); err != nil {
		return err
	}
	s.data.mu.Lock()
	defer s.data.mu.Unlock()
	if n < 0 || n >= len(s.data.pages) || off < 0 || off+len(src) > s.disk.store.pageSize {
		return fmt.Errorf("simio: write of %d bytes at %d of page %d of %q (have %d pages)", len(src), off, n, s.name, len(s.data.pages))
	}
	copy(s.data.pages[n][off:], src)
	return nil
}

// Truncate drops all pages, leaving an empty space.
func (s *Space) Truncate() {
	s.data.mu.Lock()
	s.data.pages = nil
	s.data.mu.Unlock()
}

func (s *Space) charge(a Access) error {
	switch a {
	case Seq, Rand:
		if ref := s.disk.store.injector.Load(); ref != nil {
			out := ref.inj.ChargedIO(s.name, a)
			if out.Stall > 0 {
				if a == Seq {
					s.disk.clock.SeqIOs(out.Stall)
				} else {
					s.disk.clock.RandIOs(out.Stall)
				}
			}
			if out.Err != nil {
				return fmt.Errorf("simio: %s IO on %q: %w", a, s.name, out.Err)
			}
		}
		if a == Seq {
			s.disk.clock.SeqIOs(1)
		} else {
			s.disk.clock.RandIOs(1)
		}
	case Uncharged:
	default:
		panic(fmt.Sprintf("simio: invalid access kind %d", int(a)))
	}
	return nil
}

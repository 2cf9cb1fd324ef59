// Package catalog maintains the relation registry: named heap files with
// schemas, per-column statistics for the planner, and secondary indexes
// (B+-tree or AVL, the two §2 access methods behind one interface).
package catalog

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"mmdb/internal/avl"
	"mmdb/internal/btree"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// IndexKind selects the access method of an index.
type IndexKind int

// Index kinds.
const (
	BTree IndexKind = iota // the disk-oriented default (§2's conclusion)
	AVL                    // the main-memory alternative
)

func (k IndexKind) String() string {
	if k == AVL {
		return "avl"
	}
	return "btree"
}

// Index is the common face of the two access methods. An index maps a
// column's key to the addresses (RIDs) of the rows carrying it; the rows
// themselves live only in the heap file.
type Index interface {
	// Kind returns the access method.
	Kind() IndexKind
	// Insert adds rid under key.
	Insert(key []byte, rid heap.RID)
	// Delete removes the entry (key, rid) and reports whether it existed.
	Delete(key []byte, rid heap.RID) bool
	// Search returns the RIDs stored under key.
	Search(key []byte) []heap.RID
	// Ascend walks entries with key >= start in key order until fn
	// returns false; nil start walks everything.
	Ascend(start []byte, fn func(key []byte, rid heap.RID) bool)
	// Len returns the number of entries.
	Len() int
}

type btreeIndex struct{ t *btree.Tree }

func (b btreeIndex) Kind() IndexKind { return BTree }
func (b btreeIndex) Insert(key []byte, rid heap.RID) {
	var p [heap.RIDWidth]byte
	rid.Put(p[:])
	b.t.Insert(key, p[:])
}
func (b btreeIndex) Delete(key []byte, rid heap.RID) bool {
	var p [heap.RIDWidth]byte
	rid.Put(p[:])
	return b.t.DeleteEntry(key, p[:])
}
func (b btreeIndex) Search(key []byte) []heap.RID {
	return decodeRIDs(b.t.Search(key, nil))
}
func (b btreeIndex) Ascend(start []byte, fn func([]byte, heap.RID) bool) {
	b.t.AscendRange(start, nil, func(key []byte, p tuple.Tuple) bool {
		return fn(key, heap.DecodeRID(p))
	})
}
func (b btreeIndex) Len() int { return b.t.NumTuples() }

type avlIndex struct{ t *avl.Tree }

func (a avlIndex) Kind() IndexKind { return AVL }
func (a avlIndex) Insert(key []byte, rid heap.RID) {
	p := make(tuple.Tuple, heap.RIDWidth)
	rid.Put(p)
	a.t.Insert(key, p)
}
func (a avlIndex) Delete(key []byte, rid heap.RID) bool {
	var p [heap.RIDWidth]byte
	rid.Put(p[:])
	return a.t.DeleteEntry(key, p[:])
}
func (a avlIndex) Search(key []byte) []heap.RID {
	return decodeRIDs(a.t.Search(key, nil))
}
func (a avlIndex) Ascend(start []byte, fn func([]byte, heap.RID) bool) {
	a.t.Ascend(start, nil, func(key []byte, vals []tuple.Tuple) bool {
		for _, v := range vals {
			if !fn(key, heap.DecodeRID(v)) {
				return false
			}
		}
		return true
	})
}
func (a avlIndex) Len() int { return a.t.NumTuples() }

func decodeRIDs(payloads []tuple.Tuple) []heap.RID {
	if len(payloads) == 0 {
		return nil
	}
	out := make([]heap.RID, len(payloads))
	for i, p := range payloads {
		out[i] = heap.DecodeRID(p)
	}
	return out
}

// Relation is one cataloged table. The index and histogram registries are
// guarded by an internal RW mutex so planners reading them race-free
// against DDL building new ones; the heap file itself is protected by the
// engine's relation-level S/X locks, not here.
type Relation struct {
	Name string
	File *heap.File

	mu         sync.RWMutex
	indexes    map[int]Index      // by column
	histograms map[int]*Histogram // by column (see histogram.go)
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *tuple.Schema { return r.File.Schema() }

// Index returns the index on col, if any.
func (r *Relation) Index(col int) (Index, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ix, ok := r.indexes[col]
	return ix, ok
}

// IndexedColumns returns the indexed columns in ascending order.
func (r *Relation) IndexedColumns() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []int
	for c := range r.indexes {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Stats summarizes a relation for the planner.
type Stats struct {
	Pages         int
	Tuples        int64
	TuplesPerPage int
	Distinct      map[int]int64 // distinct values per column (computed on demand)
}

// shardCount is the number of independently locked registry stripes. Name
// lookups hash to a stripe, so concurrent queries touching different
// relations (and usually even the same one — lookups only take read locks)
// never contend on a single catalog mutex.
const shardCount = 16

type catShard struct {
	mu   sync.RWMutex
	rels map[string]*Relation
}

// Catalog is the registry, sharded behind striped RW locks: safe for
// concurrent lookups, creates, adopts and drops.
type Catalog struct {
	disk   *simio.Disk
	shards [shardCount]catShard
}

// New creates an empty catalog on disk.
func New(disk *simio.Disk) *Catalog {
	c := &Catalog{disk: disk}
	for i := range c.shards {
		c.shards[i].rels = make(map[string]*Relation)
	}
	return c
}

// Disk returns the underlying disk.
func (c *Catalog) Disk() *simio.Disk { return c.disk }

// ResourceID maps a relation name to the lock-table resource id used for
// relation-level S/X intents. FNV-1a over the name: stable across runs, so
// virtual-clock experiments that record lock traces stay reproducible.
func ResourceID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

func (c *Catalog) shardOf(name string) *catShard {
	return &c.shards[ResourceID(name)%shardCount]
}

// Create registers a new empty relation.
func (c *Catalog) Create(name string, schema *tuple.Schema) (*Relation, error) {
	sh := c.shardOf(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.rels[name]; ok {
		return nil, fmt.Errorf("catalog: relation %q already exists", name)
	}
	f, err := heap.Create(c.disk, name, schema)
	if err != nil {
		return nil, err
	}
	r := &Relation{Name: name, File: f, indexes: make(map[int]Index)}
	sh.rels[name] = r
	return r, nil
}

// Adopt registers an existing heap file (e.g. one produced by the workload
// generator).
func (c *Catalog) Adopt(f *heap.File) (*Relation, error) {
	sh := c.shardOf(f.Name())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.rels[f.Name()]; ok {
		return nil, fmt.Errorf("catalog: relation %q already exists", f.Name())
	}
	r := &Relation{Name: f.Name(), File: f, indexes: make(map[int]Index)}
	sh.rels[f.Name()] = r
	return r, nil
}

// Get looks a relation up.
func (c *Catalog) Get(name string) (*Relation, error) {
	sh := c.shardOf(name)
	sh.mu.RLock()
	r, ok := sh.rels[name]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("catalog: relation %q does not exist", name)
	}
	return r, nil
}

// Names returns the registered relation names in sorted order.
func (c *Catalog) Names() []string {
	var out []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for n := range sh.rels {
			out = append(out, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Drop removes a relation and its storage.
func (c *Catalog) Drop(name string) error {
	sh := c.shardOf(name)
	sh.mu.Lock()
	r, ok := sh.rels[name]
	if ok {
		delete(sh.rels, name)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("catalog: relation %q does not exist", name)
	}
	r.File.Drop()
	return nil
}

// BuildIndex constructs an index on col over the rows' RIDs. The relation is scanned uncharged
// (index construction cost is not part of any §2/§3 experiment; the
// experiments charge traversals explicitly).
func (c *Catalog) BuildIndex(name string, col int, kind IndexKind) (Index, error) {
	r, err := c.Get(name)
	if err != nil {
		return nil, err
	}
	schema := r.Schema()
	if col < 0 || col >= schema.NumFields() {
		return nil, fmt.Errorf("catalog: column %d out of range for %q", col, name)
	}
	var ix Index
	switch kind {
	case BTree:
		t, err := btree.New(btree.Config{
			PageSize:   c.disk.PageSize(),
			KeyWidth:   schema.FieldWidth(col),
			TupleWidth: heap.RIDWidth,
		})
		if err != nil {
			return nil, err
		}
		ix = btreeIndex{t: t}
	case AVL:
		ix = avlIndex{t: &avl.Tree{}}
	default:
		return nil, fmt.Errorf("catalog: unknown index kind %d", int(kind))
	}
	err = r.File.ScanRIDs(simio.Uncharged, func(rid heap.RID, t tuple.Tuple) bool {
		ix.Insert(schema.KeyBytes(t, col), rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.indexes[col] = ix
	r.mu.Unlock()
	return ix, nil
}

// Stats computes planner statistics. Distinct counts are exact (hash-set
// based) and computed for the listed columns only.
func (c *Catalog) Stats(name string, distinctCols ...int) (Stats, error) {
	r, err := c.Get(name)
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Pages:         r.File.NumPages(),
		Tuples:        r.File.NumTuples(),
		TuplesPerPage: r.File.TuplesPerPage(),
		Distinct:      make(map[int]int64),
	}
	if len(distinctCols) == 0 {
		return s, nil
	}
	schema := r.Schema()
	sets := make([]map[string]struct{}, len(distinctCols))
	for i := range sets {
		sets[i] = make(map[string]struct{})
	}
	err = r.File.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		for i, col := range distinctCols {
			sets[i][string(schema.KeyBytes(t, col))] = struct{}{}
		}
		return true
	})
	if err != nil {
		return Stats{}, err
	}
	for i, col := range distinctCols {
		s.Distinct[col] = int64(len(sets[i]))
	}
	return s, nil
}

// Package btree implements the page-structured B+-tree of §2 of the paper:
// the standard disk access method it compares the AVL tree against.
//
// Geometry follows the paper exactly: with page size P, key width K and
// pointer width B, an interior node holds up to P/(K+B) children and a
// leaf holds up to P/L tuples of width L. Nodes are kept as in-memory
// structures carrying page IDs so the Table 1 experiments can replay
// traversals through a buffer pool; Yao's observation that nodes average
// 69% full emerges from random insertion and is also available directly as
// a bulk-load fill factor.
package btree

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"mmdb/internal/page"
	"mmdb/internal/tuple"
)

// NodeID identifies a tree page for buffer-pool simulation.
type NodeID int64

// VisitFunc observes a page inspection during a search or scan.
type VisitFunc func(NodeID)

// YaoFill is the average node occupancy of a B-tree under random
// insertions [YAO78], used as the default bulk-load fill factor.
const YaoFill = 0.69

// Config fixes the tree geometry.
type Config struct {
	PageSize     int // the paper's P (bytes)
	KeyWidth     int // the paper's K (bytes)
	PointerWidth int // the paper's B (bytes); 0 means 4
	TupleWidth   int // the paper's L (bytes)
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = page.DefaultSize
	}
	if c.PointerWidth == 0 {
		c.PointerWidth = 4
	}
	return c
}

// Fanout returns the maximum number of children of an interior node.
func (c Config) Fanout() int {
	return c.PageSize / (c.KeyWidth + c.PointerWidth)
}

// LeafCapacity returns the maximum number of tuples per leaf.
func (c Config) LeafCapacity() int {
	return c.PageSize / c.TupleWidth
}

func (c Config) validate() error {
	if c.KeyWidth <= 0 || c.TupleWidth <= 0 {
		return fmt.Errorf("btree: KeyWidth and TupleWidth must be positive: %+v", c)
	}
	if c.Fanout() < 3 {
		return fmt.Errorf("btree: fanout %d too small (page %d, key %d, pointer %d)",
			c.Fanout(), c.PageSize, c.KeyWidth, c.PointerWidth)
	}
	if c.LeafCapacity() < 1 {
		return fmt.Errorf("btree: tuple width %d exceeds page size %d", c.TupleWidth, c.PageSize)
	}
	return nil
}

type treeNode interface {
	nodeID() NodeID
}

// leaf keeps its entries packed in one byte array, each a key followed by
// its tuple, as on the page the paper draws: no slice header per entry.
type leaf struct {
	id   NodeID
	n    int    // entries
	data []byte // n entries of KeyWidth+TupleWidth bytes, in key order
	next *leaf
}

func (l *leaf) nodeID() NodeID { return l.id }

type interior struct {
	id       NodeID
	keys     [][]byte // keys[i] = smallest key reachable under children[i+1]
	children []treeNode
}

func (n *interior) nodeID() NodeID { return n.id }

// Tree is a B+-tree over fixed-width tuples keyed by an order-preserving
// byte string. Duplicate keys are allowed. Reads (Search, AscendRange) may
// run concurrently with each other; a mutation needs the tree to itself.
type Tree struct {
	cfg       Config
	root      treeNode
	height    int // levels including the leaf level; 0 when empty
	tuples    int
	leaves    int
	interiors int
	nextPage  NodeID
	comps     atomic.Int64
	kw, ew    int // key width and leaf entry width (key + tuple)
}

// New creates an empty tree.
func New(cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tree{cfg: cfg, kw: cfg.KeyWidth, ew: cfg.KeyWidth + cfg.TupleWidth}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the tree geometry.
func (t *Tree) Config() Config { return t.cfg }

// NumTuples returns the number of stored tuples.
func (t *Tree) NumTuples() int { return t.tuples }

// NumLeaves returns the number of leaf pages.
func (t *Tree) NumLeaves() int { return t.leaves }

// NumPages returns the total number of pages (leaves + interior), the
// paper's S'.
func (t *Tree) NumPages() int { return t.leaves + t.interiors }

// Height returns the number of levels, counting the leaf level.
func (t *Tree) Height() int { return t.height }

// Comparisons returns the number of key comparisons since construction or
// the last ResetComparisons.
func (t *Tree) Comparisons() int64 { return t.comps.Load() }

// ResetComparisons zeroes the comparison counter.
func (t *Tree) ResetComparisons() { t.comps.Store(0) }

func (t *Tree) newLeaf() *leaf {
	t.leaves++
	id := t.nextPage
	t.nextPage++
	return &leaf{id: id}
}

func (t *Tree) newInterior() *interior {
	t.interiors++
	id := t.nextPage
	t.nextPage++
	return &interior{id: id}
}

// compare counts one key comparison in *n, the calling operation's tally.
// Each exported operation adds its tally to the tree's counter once, as
// it returns, so concurrent readers never write a shared word per
// comparison.
func compare(n *int64, a, b []byte) int {
	*n++
	return bytes.Compare(a, b)
}

// key returns leaf entry i's key, a view into the leaf.
func (t *Tree) key(l *leaf, i int) []byte {
	o := i * t.ew
	return l.data[o : o+t.kw : o+t.kw]
}

// tup returns leaf entry i's tuple, a view into the leaf.
func (t *Tree) tup(l *leaf, i int) tuple.Tuple {
	o := i * t.ew
	return tuple.Tuple(l.data[o+t.kw : o+t.ew : o+t.ew])
}

// put writes key and tup as leaf entry i.
func (t *Tree) put(l *leaf, i int, key []byte, tup tuple.Tuple) {
	o := i * t.ew
	copy(l.data[o:], key)
	copy(l.data[o+t.kw:o+t.ew], tup)
}

// removeEntries deletes leaf entries [i, j).
func (t *Tree) removeEntries(l *leaf, i, j int) {
	l.data = append(l.data[:i*t.ew], l.data[j*t.ew:]...)
	l.n -= j - i
}

// searchLeaf is searchKeys over a leaf's packed keys, counting the same
// comparisons.
func (t *Tree) searchLeaf(l *leaf, key []byte, lower bool, n *int64) int {
	lo, hi := 0, l.n
	for lo < hi {
		mid := (lo + hi) / 2
		c := compare(n, t.key(l, mid), key)
		if c < 0 || (!lower && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds a copy of tup under key.
func (t *Tree) Insert(key []byte, tup tuple.Tuple) {
	if len(key) != t.cfg.KeyWidth {
		panic(fmt.Sprintf("btree: key width %d, configured %d", len(key), t.cfg.KeyWidth))
	}
	if len(tup) != t.cfg.TupleWidth {
		panic(fmt.Sprintf("btree: tuple width %d, configured %d", len(tup), t.cfg.TupleWidth))
	}
	if t.root == nil {
		l := t.newLeaf()
		l.data = make([]byte, t.ew)
		l.n = 1
		t.put(l, 0, key, tup)
		t.root = l
		t.height = 1
		t.tuples = 1
		return
	}
	var n int64
	split, sepKey := t.insert(t.root, key, tup, &n)
	t.comps.Add(n)
	t.tuples++
	if split != nil {
		r := t.newInterior()
		r.keys = [][]byte{sepKey}
		r.children = []treeNode{t.root, split}
		t.root = r
		t.height++
	}
}

// insert descends to the leaf, inserting; on split it returns the new right
// sibling and the separator key (smallest key of the right sibling).
func (t *Tree) insert(n treeNode, key []byte, tup tuple.Tuple, comps *int64) (treeNode, []byte) {
	switch n := n.(type) {
	case *leaf:
		i := t.searchLeaf(n, key, false, comps)
		n.data = append(n.data, make([]byte, t.ew)...)
		copy(n.data[(i+1)*t.ew:], n.data[i*t.ew:])
		t.put(n, i, key, tup)
		n.n++
		if n.n <= t.cfg.LeafCapacity() {
			return nil, nil
		}
		// Both halves get arrays of their own size, so a leaf that stops
		// growing (the left one, under ascending inserts) holds no slack.
		mid := n.n / 2
		right := t.newLeaf()
		right.data = bytes.Clone(n.data[mid*t.ew:])
		right.n = n.n - mid
		n.data = bytes.Clone(n.data[:mid*t.ew])
		n.n = mid
		right.next = n.next
		n.next = right
		return right, bytes.Clone(t.key(right, 0))
	case *interior:
		ci := t.childIndex(n, key, comps)
		split, sepKey := t.insert(n.children[ci], key, tup, comps)
		if split == nil {
			return nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sepKey
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = split
		if len(n.children) <= t.cfg.Fanout() {
			return nil, nil
		}
		mid := len(n.children) / 2
		right := t.newInterior()
		up := n.keys[mid-1]
		right.keys = append(right.keys, n.keys[mid:]...)
		right.children = append(right.children, n.children[mid:]...)
		n.keys = n.keys[: mid-1 : mid-1]
		n.children = n.children[:mid:mid]
		return right, up
	default:
		panic("btree: unknown node type")
	}
}

// searchKeys binary-searches keys for key. With lower=true it returns the
// first index i with keys[i] >= key; otherwise the first i with
// keys[i] > key. Comparisons are counted.
func (t *Tree) searchKeys(keys [][]byte, key []byte, lower bool, n *int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		c := compare(n, keys[mid], key)
		if c < 0 || (!lower && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child of n covers key. Keys equal to a separator
// descend left; searches compensate by scanning forward along the leaf
// chain, so duplicates that straddle a split are still found.
func (t *Tree) childIndex(n *interior, key []byte, comps *int64) int {
	return t.searchKeys(n.keys, key, true, comps)
}

// Search returns all tuples stored under key, as views into the tree that
// stay valid until its next mutation. Each inspected page is reported to
// visit (which may be nil).
func (t *Tree) Search(key []byte, visit VisitFunc) []tuple.Tuple {
	if t.root == nil {
		return nil
	}
	var comps int64
	defer func() { t.comps.Add(comps) }()
	n := t.root
	for {
		if visit != nil {
			visit(n.nodeID())
		}
		in, ok := n.(*interior)
		if !ok {
			break
		}
		n = in.children[t.childIndex(in, key, &comps)]
	}
	l := n.(*leaf)
	var out []tuple.Tuple
	i := t.searchLeaf(l, key, true, &comps)
	for {
		for ; i < l.n; i++ {
			if compare(&comps, t.key(l, i), key) != 0 {
				return out
			}
			out = append(out, t.tup(l, i))
		}
		if l.next == nil {
			return out
		}
		l = l.next
		if visit != nil {
			visit(l.id)
		}
		i = 0
	}
}

// AscendRange walks tuples with key >= start in key order, calling fn until
// it returns false; the key and tuple are views valid during the call. A
// nil start walks from the smallest key. Each touched page (descent path
// plus every leaf visited) is reported to visit.
func (t *Tree) AscendRange(start []byte, visit VisitFunc, fn func(key []byte, tup tuple.Tuple) bool) {
	if t.root == nil {
		return
	}
	var comps int64
	defer func() { t.comps.Add(comps) }()
	n := t.root
	for {
		if visit != nil {
			visit(n.nodeID())
		}
		in, ok := n.(*interior)
		if !ok {
			break
		}
		if start == nil {
			n = in.children[0]
		} else {
			n = in.children[t.childIndex(in, start, &comps)]
		}
	}
	l := n.(*leaf)
	i := 0
	if start != nil {
		i = t.searchLeaf(l, start, true, &comps)
	}
	for {
		for ; i < l.n; i++ {
			if !fn(t.key(l, i), t.tup(l, i)) {
				return
			}
		}
		if l.next == nil {
			return
		}
		l = l.next
		if visit != nil {
			visit(l.id)
		}
		i = 0
	}
}

// Delete removes all tuples stored under key and reports how many were
// removed. Leaves are allowed to underflow (lazy deletion); structure and
// search correctness are preserved.
func (t *Tree) Delete(key []byte) int {
	if t.root == nil {
		return 0
	}
	var comps int64
	defer func() { t.comps.Add(comps) }()
	removed := 0
	for l := t.leafFor(key, &comps); l != nil; l = l.next {
		i := t.searchLeaf(l, key, true, &comps)
		j := i
		for j < l.n && compare(&comps, t.key(l, j), key) == 0 {
			j++
		}
		if j > i {
			removed += j - i
			t.removeEntries(l, i, j)
		}
		if i < l.n {
			break // a key greater than the target remains; duplicates cannot continue
		}
	}
	t.tuples -= removed
	return removed
}

// DeleteEntry removes one entry stored under key whose tuple equals tup —
// one row's entry in a non-unique index — and reports whether it found
// one. Leaves underflow lazily, as in Delete.
func (t *Tree) DeleteEntry(key []byte, tup tuple.Tuple) bool {
	if t.root == nil {
		return false
	}
	var comps int64
	defer func() { t.comps.Add(comps) }()
	for l := t.leafFor(key, &comps); l != nil; l = l.next {
		for i := t.searchLeaf(l, key, true, &comps); i < l.n; i++ {
			if compare(&comps, t.key(l, i), key) != 0 {
				return false
			}
			if bytes.Equal(t.tup(l, i), tup) {
				t.removeEntries(l, i, i+1)
				t.tuples--
				return true
			}
		}
	}
	return false
}

// leafFor descends to the leftmost leaf that can hold key.
func (t *Tree) leafFor(key []byte, comps *int64) *leaf {
	n := t.root
	for {
		in, ok := n.(*interior)
		if !ok {
			return n.(*leaf)
		}
		n = in.children[t.childIndex(in, key, comps)]
	}
}

// BulkLoad builds a tree from tuples already sorted by key, packing leaves
// and interior nodes to the given fill factor (0 means YaoFill). It
// replaces the tree contents.
func (t *Tree) BulkLoad(keys [][]byte, tups []tuple.Tuple, fill float64) error {
	if len(keys) != len(tups) {
		return fmt.Errorf("btree: %d keys but %d tuples", len(keys), len(tups))
	}
	if fill == 0 {
		fill = YaoFill
	}
	if fill <= 0 || fill > 1 {
		return fmt.Errorf("btree: fill factor %g out of (0,1]", fill)
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) > 0 {
			return fmt.Errorf("btree: bulk load input not sorted at %d", i)
		}
	}
	t.root, t.height, t.tuples, t.leaves, t.interiors, t.nextPage = nil, 0, 0, 0, 0, 0
	if len(keys) == 0 {
		return nil
	}
	perLeaf := int(float64(t.cfg.LeafCapacity())*fill + 0.5)
	if perLeaf < 1 {
		perLeaf = 1
	}
	var level []treeNode
	var seps [][]byte // smallest key under each node in level
	var prev *leaf
	for i := 0; i < len(keys); i += perLeaf {
		j := i + perLeaf
		if j > len(keys) {
			j = len(keys)
		}
		l := t.newLeaf()
		l.data = make([]byte, (j-i)*t.ew)
		l.n = j - i
		for k := i; k < j; k++ {
			t.put(l, k-i, keys[k], tups[k])
		}
		if prev != nil {
			prev.next = l
		}
		prev = l
		level = append(level, l)
		seps = append(seps, bytes.Clone(t.key(l, 0)))
	}
	t.tuples = len(keys)
	t.height = 1
	perNode := int(float64(t.cfg.Fanout())*fill + 0.5)
	if perNode < 2 {
		perNode = 2
	}
	for len(level) > 1 {
		var up []treeNode
		var upSeps [][]byte
		for i := 0; i < len(level); i += perNode {
			j := i + perNode
			if j > len(level) {
				j = len(level)
			}
			if j-i == 1 && len(up) > 0 {
				// Avoid a one-child node: fold into the previous sibling.
				last := up[len(up)-1].(*interior)
				last.keys = append(last.keys, seps[i])
				last.children = append(last.children, level[i])
				continue
			}
			n := t.newInterior()
			n.children = append(n.children, level[i:j]...)
			n.keys = append(n.keys, seps[i+1:j]...)
			up = append(up, n)
			upSeps = append(upSeps, seps[i])
		}
		level, seps = up, upSeps
		t.height++
	}
	t.root = level[0]
	return nil
}

// CheckInvariants verifies ordering, uniform leaf depth, separator bounds
// and the leaf chain. Intended for tests.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		if t.tuples != 0 || t.height != 0 {
			return fmt.Errorf("btree: empty root but tuples=%d height=%d", t.tuples, t.height)
		}
		return nil
	}
	depth := -1
	count := 0
	var lastLeaf *leaf
	var lastKey []byte
	var walk func(n treeNode, d int, lo, hi []byte) error
	walk = func(n treeNode, d int, lo, hi []byte) error {
		switch n := n.(type) {
		case *leaf:
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("btree: leaf at depth %d, expected %d", d, depth)
			}
			if len(n.data) != n.n*t.ew {
				return fmt.Errorf("btree: leaf with %d entries in %d bytes", n.n, len(n.data))
			}
			if n.n > t.cfg.LeafCapacity() {
				return fmt.Errorf("btree: overfull leaf (%d > %d)", n.n, t.cfg.LeafCapacity())
			}
			for i := 0; i < n.n; i++ {
				k := t.key(n, i)
				if lastKey != nil && bytes.Compare(lastKey, k) > 0 {
					return fmt.Errorf("btree: keys out of order: %x then %x", lastKey, k)
				}
				if lo != nil && bytes.Compare(k, lo) < 0 {
					return fmt.Errorf("btree: key %x below separator %x", k, lo)
				}
				if hi != nil && bytes.Compare(k, hi) > 0 {
					return fmt.Errorf("btree: key %x above separator %x", k, hi)
				}
				lastKey = k
				count++
			}
			if lastLeaf != nil && lastLeaf.next != n {
				return fmt.Errorf("btree: broken leaf chain")
			}
			lastLeaf = n
			return nil
		case *interior:
			if len(n.children) != len(n.keys)+1 {
				return fmt.Errorf("btree: interior with %d children, %d keys", len(n.children), len(n.keys))
			}
			if len(n.children) > t.cfg.Fanout() {
				return fmt.Errorf("btree: overfull interior (%d > %d)", len(n.children), t.cfg.Fanout())
			}
			for i, c := range n.children {
				clo, chi := lo, hi
				if i > 0 {
					clo = n.keys[i-1]
				}
				if i < len(n.keys) {
					chi = n.keys[i]
				}
				if err := walk(c, d+1, clo, chi); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("btree: unknown node type %T", n)
		}
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if depth != t.height {
		return fmt.Errorf("btree: stored height %d, actual %d", t.height, depth)
	}
	if count != t.tuples {
		return fmt.Errorf("btree: stored tuples %d, reachable %d", t.tuples, count)
	}
	if lastLeaf != nil && lastLeaf.next != nil {
		return fmt.Errorf("btree: leaf chain extends past last leaf")
	}
	return nil
}

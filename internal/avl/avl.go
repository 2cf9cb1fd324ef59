// Package avl implements the height-balanced binary (AVL) tree the paper
// evaluates as a main-memory access method (§2).
//
// Keys are order-preserving byte strings (see tuple.Schema.KeyBytes); each
// distinct key holds the list of tuples carrying it. Search and scan
// operations can report every node they visit, which the Table 1
// experiments map onto pages to measure fault rates: an AVL tree has no
// page structure, so without special precautions each of the
// C = log2(|R|) + 0.25 inspected nodes lies on a different page.
package avl

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"mmdb/internal/tuple"
)

// NodeID identifies a tree node for page-placement simulation. IDs are
// assigned in allocation order and are never reused.
type NodeID int64

// VisitFunc observes a node inspection during a search or scan.
type VisitFunc func(NodeID)

type node struct {
	id          NodeID
	key         []byte
	vals        []tuple.Tuple
	left, right *node
	height      int
}

func (n *node) balance() int {
	return height(n.left) - height(n.right)
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func (n *node) fix() {
	lh, rh := height(n.left), height(n.right)
	if lh > rh {
		n.height = lh + 1
	} else {
		n.height = rh + 1
	}
}

// Tree is an AVL tree mapping byte-string keys to tuples.
// The zero value is an empty tree. Reads (Search, Ascend) may run
// concurrently with each other; a mutation needs the tree to itself.
// Every operation tallies its key comparisons locally and adds the tally
// to the tree's counter once, so concurrent readers never write a shared
// word per comparison.
type Tree struct {
	root   *node
	keys   int
	tuples int
	nextID NodeID
	comps  atomic.Int64
}

// Len returns the number of distinct keys.
func (t *Tree) Len() int { return t.keys }

// NumTuples returns the number of stored tuples.
func (t *Tree) NumTuples() int { return t.tuples }

// NumNodes returns the number of allocated nodes (== Len; exposed for the
// page placement model, which sizes S from the node count).
func (t *Tree) NumNodes() int { return t.keys }

// Height returns the tree height (0 for empty).
func (t *Tree) Height() int { return height(t.root) }

// Comparisons returns the total number of key comparisons performed by
// Insert/Delete/Search/Ascend since construction or the last ResetComparisons.
func (t *Tree) Comparisons() int64 { return t.comps.Load() }

// ResetComparisons zeroes the comparison counter.
func (t *Tree) ResetComparisons() { t.comps.Store(0) }

// Insert adds tup under key. Duplicate keys chain their tuples on one node.
func (t *Tree) Insert(key []byte, tup tuple.Tuple) {
	var comps int64
	t.root = t.insert(t.root, key, tup, &comps)
	t.comps.Add(comps)
	t.tuples++
}

func (t *Tree) insert(n *node, key []byte, tup tuple.Tuple, comps *int64) *node {
	if n == nil {
		t.keys++
		id := t.nextID
		t.nextID++
		return &node{id: id, key: append([]byte(nil), key...), vals: []tuple.Tuple{tup}, height: 1}
	}
	*comps++
	switch c := bytes.Compare(key, n.key); {
	case c < 0:
		n.left = t.insert(n.left, key, tup, comps)
	case c > 0:
		n.right = t.insert(n.right, key, tup, comps)
	default:
		n.vals = append(n.vals, tup)
		return n
	}
	return rebalance(n)
}

// Delete removes every tuple stored under key and reports whether the key
// was present.
func (t *Tree) Delete(key []byte) bool {
	var removed int
	var comps int64
	t.root, removed = t.delete(t.root, key, &comps)
	t.comps.Add(comps)
	if removed == 0 {
		return false
	}
	t.keys--
	t.tuples -= removed
	return true
}

func (t *Tree) delete(n *node, key []byte, comps *int64) (*node, int) {
	if n == nil {
		return nil, 0
	}
	*comps++
	var removed int
	switch c := bytes.Compare(key, n.key); {
	case c < 0:
		n.left, removed = t.delete(n.left, key, comps)
	case c > 0:
		n.right, removed = t.delete(n.right, key, comps)
	default:
		removed = len(n.vals)
		switch {
		case n.left == nil:
			return n.right, removed
		case n.right == nil:
			return n.left, removed
		default:
			// Replace with the in-order successor's payload, then delete
			// the successor from the right subtree.
			succ := n.right
			for succ.left != nil {
				succ = succ.left
			}
			n.key = succ.key
			n.vals = succ.vals
			var sub int
			n.right, sub = t.deleteMin(n.right)
			_ = sub
		}
	}
	if removed == 0 {
		return n, 0
	}
	return rebalance(n), removed
}

// DeleteEntry removes one tuple equal to tup stored under key — one row's
// entry in a non-unique index — and reports whether it found one. The node
// goes when its last tuple does.
func (t *Tree) DeleteEntry(key []byte, tup tuple.Tuple) bool {
	var comps int64
	defer func() { t.comps.Add(comps) }()
	n := t.root
	for n != nil {
		comps++
		switch c := bytes.Compare(key, n.key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			for i, v := range n.vals {
				if !bytes.Equal(v, tup) {
					continue
				}
				if len(n.vals) == 1 {
					return t.Delete(key)
				}
				n.vals = append(n.vals[:i], n.vals[i+1:]...)
				t.tuples--
				return true
			}
			return false
		}
	}
	return false
}

func (t *Tree) deleteMin(n *node) (*node, int) {
	if n.left == nil {
		return n.right, len(n.vals)
	}
	var removed int
	n.left, removed = t.deleteMin(n.left)
	return rebalance(n), removed
}

// Search returns the tuples stored under key, or nil. Every inspected node
// is reported to visit (which may be nil).
func (t *Tree) Search(key []byte, visit VisitFunc) []tuple.Tuple {
	var comps int64
	defer func() { t.comps.Add(comps) }()
	n := t.root
	for n != nil {
		if visit != nil {
			visit(n.id)
		}
		comps++
		switch c := bytes.Compare(key, n.key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.vals
		}
	}
	return nil
}

// Ascend walks keys >= start in order, calling fn with each node's key and
// tuples until fn returns false or the tree is exhausted. A nil start walks
// the whole tree. Every touched node is reported to visit.
func (t *Tree) Ascend(start []byte, visit VisitFunc, fn func(key []byte, vals []tuple.Tuple) bool) {
	var comps int64
	t.ascend(t.root, start, visit, fn, &comps)
	t.comps.Add(comps)
}

func (t *Tree) ascend(n *node, start []byte, visit VisitFunc, fn func([]byte, []tuple.Tuple) bool, comps *int64) bool {
	if n == nil {
		return true
	}
	if visit != nil {
		visit(n.id)
	}
	inRange := true
	if start != nil {
		*comps++
		inRange = bytes.Compare(n.key, start) >= 0
	}
	if inRange {
		if !t.ascend(n.left, start, visit, fn, comps) {
			return false
		}
		if !fn(n.key, n.vals) {
			return false
		}
		return t.ascend(n.right, start, visit, fn, comps)
	}
	return t.ascend(n.right, start, visit, fn, comps)
}

// Min returns the smallest key and its tuples, or nil for an empty tree.
func (t *Tree) Min() ([]byte, []tuple.Tuple) {
	n := t.root
	if n == nil {
		return nil, nil
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, n.vals
}

// CheckInvariants verifies the BST ordering and AVL balance properties.
// It is intended for tests and returns a descriptive error on violation.
func (t *Tree) CheckInvariants() error {
	keys := 0
	_, err := check(t.root, nil, nil, &keys)
	if err != nil {
		return err
	}
	if keys != t.keys {
		return fmt.Errorf("avl: size %d but %d reachable keys", t.keys, keys)
	}
	return nil
}

func check(n *node, lo, hi []byte, keys *int) (int, error) {
	if n == nil {
		return 0, nil
	}
	*keys++
	if lo != nil && bytes.Compare(n.key, lo) <= 0 {
		return 0, fmt.Errorf("avl: key %x not greater than lower bound %x", n.key, lo)
	}
	if hi != nil && bytes.Compare(n.key, hi) >= 0 {
		return 0, fmt.Errorf("avl: key %x not less than upper bound %x", n.key, hi)
	}
	lh, err := check(n.left, lo, n.key, keys)
	if err != nil {
		return 0, err
	}
	rh, err := check(n.right, n.key, hi, keys)
	if err != nil {
		return 0, err
	}
	h := lh + 1
	if rh >= lh {
		h = rh + 1
	}
	if h != n.height {
		return 0, fmt.Errorf("avl: node %x stored height %d, actual %d", n.key, n.height, h)
	}
	if d := lh - rh; d < -1 || d > 1 {
		return 0, fmt.Errorf("avl: node %x unbalanced (left %d, right %d)", n.key, lh, rh)
	}
	return h, nil
}

func rebalance(n *node) *node {
	n.fix()
	switch b := n.balance(); {
	case b > 1:
		if n.left.balance() < 0 {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case b < -1:
		if n.right.balance() > 0 {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}

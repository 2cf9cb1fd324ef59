package planner

import (
	"fmt"
	"sync/atomic"

	"mmdb/internal/heap"
	"mmdb/internal/join"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// ExecSource is the storage binding of a table: its heap file plus the
// column each join class maps to.
type ExecSource struct {
	File      *heap.File
	ClassCols map[int]int // join class -> column index in the table schema
}

var execSeq atomic.Uint64

// Execute runs the plan's joins over the tables' bound heap files, each
// step under spec's memory and execution settings (M, LiveM, F,
// Parallelism, SortChunks; Execute fills in the step's inputs). Steps
// below the root write their output to an intermediate, uncharged (the §3
// convention) and dropped once the next step has read it. The root step
// materializes nothing: root receives its two inputs — the left sub-plan
// (the build-first plan order's tables but the last, each table's columns
// contiguous) and the last table — and returns the emit their joined
// pairs stream to, as (left, right).
func Execute(q Query, p *Plan, spec join.Spec, root func(left, right *heap.File) (join.Emit, error)) error {
	if p.Root == nil || p.Root.leaf() {
		return fmt.Errorf("planner: plan has no join to execute")
	}
	_, err := execJoin(q, p.Root, spec, root)
	return err
}

// execJoin runs join node n — its left sub-plan materialized first, its
// right input a leaf — streaming the pairs to the emit sink returns for
// the two inputs. It returns the class→column map of the pairs
// concatenated left then right. A materialized left input is dropped on
// return, on error too.
func execJoin(q Query, n *Node, spec join.Spec, sink func(left, right *heap.File) (join.Emit, error)) (map[int]int, error) {
	left, leftCols, drop, err := materialize(q, n.Left, spec)
	if err != nil {
		return nil, err
	}
	defer drop()
	right, rightCols, err := leaf(q, n.Right)
	if err != nil {
		return nil, err
	}
	classes := connecting(q, maskOf(n.Left), n.Right)
	if len(classes) == 0 {
		return nil, fmt.Errorf("planner: executing a Cartesian product is not supported")
	}
	if len(classes) > 1 {
		return nil, fmt.Errorf("planner: join step touches %d attribute classes; execution supports single-attribute steps", len(classes))
	}
	cl := classes[0]
	lc, ok := leftCols[cl]
	if !ok {
		return nil, fmt.Errorf("planner: left side lacks a column for class %d", cl)
	}
	rc, ok := rightCols[cl]
	if !ok {
		return nil, fmt.Errorf("planner: right side lacks a column for class %d", cl)
	}
	emit, err := sink(left, right)
	if err != nil {
		return nil, err
	}

	// Build side is the smaller input, as the algorithms assume |R|<=|S|.
	spec.R, spec.S, spec.RCol, spec.SCol = left, right, lc, rc
	swapped := right.NumPages() < left.NumPages()
	if swapped {
		spec.R, spec.S, spec.RCol, spec.SCol = right, left, rc, lc
	}
	if _, err := join.Run(n.Algorithm, spec, func(r, s tuple.Tuple) {
		if swapped {
			emit(s, r)
		} else {
			emit(r, s)
		}
	}); err != nil {
		return nil, err
	}

	// Secondary join classes on this step degrade to post-filters; with
	// single-attribute equi-joins per step (our queries) there are none.
	outCols := make(map[int]int, len(leftCols)+len(rightCols))
	for c, i := range leftCols {
		outCols[c] = i
	}
	lw := left.Schema().NumFields()
	for c, i := range rightCols {
		if _, dup := outCols[c]; !dup {
			outCols[c] = lw + i
		}
	}
	return outCols, nil
}

// materialize returns node n's output as a file with its class→column
// map: a leaf's bound file, or a join's pairs concatenated into a fresh
// intermediate, written uncharged, which drop removes.
func materialize(q Query, n *Node, spec join.Spec) (*heap.File, map[int]int, func(), error) {
	if n.leaf() {
		f, cols, err := leaf(q, n.Table)
		return f, cols, func() {}, err
	}
	var out *heap.File
	var appendErr error
	cols, err := execJoin(q, n, spec, func(left, right *heap.File) (join.Emit, error) {
		schema, combine, err := tuple.Concat(left.Schema(), right.Schema(), "l.", "r.")
		if err != nil {
			return nil, err
		}
		if out, err = heap.Create(left.Disk(), fmt.Sprintf("plan.join.%d", execSeq.Add(1)), schema); err != nil {
			return nil, err
		}
		return func(l, r tuple.Tuple) {
			if appendErr == nil {
				appendErr = out.Append(combine(l, r), simio.Uncharged)
			}
		}, nil
	})
	if err == nil {
		err = appendErr
	}
	if err == nil {
		err = out.Flush(simio.Uncharged)
	}
	if err != nil {
		if out != nil {
			out.Drop()
		}
		return nil, nil, nil, err
	}
	return out, cols, out.Drop, nil
}

// leaf returns table ti's bound file and class→column map.
func leaf(q Query, ti int) (*heap.File, map[int]int, error) {
	t := q.Tables[ti]
	if t.Rel.File == nil {
		return nil, nil, fmt.Errorf("planner: table %s has no storage binding", t.Name)
	}
	return t.Rel.File, t.Rel.ClassCols, nil
}

// maskOf reconstructs the table subset a sub-plan covers.
func maskOf(n *Node) int {
	if n == nil {
		return 0
	}
	if n.leaf() {
		return 1 << n.Table
	}
	return maskOf(n.Left) | 1<<n.Right
}

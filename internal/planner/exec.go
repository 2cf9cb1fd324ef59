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

// Execute runs the plan against the tables' bound heap files, returning
// the materialized result. Intermediate results are written uncharged (the
// §3 convention); the joins themselves charge the disk's clock normally.
func Execute(q Query, p *Plan) (*heap.File, error) {
	q = q.withDefaults()
	res, _, _, err := execNode(q, p.Root)
	return res, err
}

// execNode returns the node's materialized output, the class→column map
// of its output schema, and whether the output is an intermediate this
// execution created (a join output or a filtered leaf copy) rather than a
// base relation's file. A join step drops its intermediate inputs once it
// has consumed them, on error returns too, so only the root output
// outlives Execute.
func execNode(q Query, n *Node) (*heap.File, map[int]int, bool, error) {
	if n == nil {
		return nil, nil, false, fmt.Errorf("planner: nil plan node")
	}
	if n.leaf() {
		return execLeaf(q, n.Table)
	}
	left, leftCols, leftOwned, err := execNode(q, n.Left)
	if err != nil {
		return nil, nil, false, err
	}
	if leftOwned {
		defer left.Drop()
	}
	right, rightCols, rightOwned, err := execLeaf(q, n.Right)
	if err != nil {
		return nil, nil, false, err
	}
	if rightOwned {
		defer right.Drop()
	}
	out, outCols, err := joinStep(q, n, left, right, leftCols, rightCols)
	return out, outCols, err == nil, err
}

// joinStep materializes one join of the plan into a fresh file.
func joinStep(q Query, n *Node, left, right *heap.File, leftCols, rightCols map[int]int) (*heap.File, map[int]int, error) {
	classes := connecting(q, maskOf(n.Left), n.Right)
	if len(classes) == 0 {
		return nil, nil, fmt.Errorf("planner: executing a Cartesian product is not supported")
	}
	if len(classes) > 1 {
		return nil, nil, fmt.Errorf("planner: join step touches %d attribute classes; execution supports single-attribute steps", len(classes))
	}
	cl := classes[0]
	lc, ok := leftCols[cl]
	if !ok {
		return nil, nil, fmt.Errorf("planner: left side lacks a column for class %d", cl)
	}
	rc, ok := rightCols[cl]
	if !ok {
		return nil, nil, fmt.Errorf("planner: right side lacks a column for class %d", cl)
	}

	// Build side is the smaller input, as the algorithms assume |R|<=|S|.
	rFile, sFile := left, right
	rCol, sCol := lc, rc
	swapped := false
	if sFile.NumPages() < rFile.NumPages() {
		rFile, sFile = sFile, rFile
		rCol, sCol = rc, lc
		swapped = true
	}

	outSchema, combine, err := tuple.Concat(left.Schema(), right.Schema(), "l.", "r.")
	if err != nil {
		return nil, nil, err
	}
	disk := left.Disk()
	out, err := heap.Create(disk, fmt.Sprintf("plan.join.%d", execSeq.Add(1)), outSchema)
	if err != nil {
		return nil, nil, err
	}
	spec := join.Spec{R: rFile, S: sFile, RCol: rCol, SCol: sCol, M: q.M, F: q.Params.F, Parallelism: q.Parallelism, SortChunks: q.SortChunks}
	var emitErr error
	_, err = join.Run(n.Algorithm, spec, func(r, s tuple.Tuple) {
		l, rr := r, s
		if swapped {
			l, rr = s, r
		}
		if e := out.Append(combine(l, rr), simio.Uncharged); e != nil && emitErr == nil {
			emitErr = e
		}
	})
	if err == nil {
		err = emitErr
	}
	if err == nil {
		err = out.Flush(simio.Uncharged)
	}
	if err != nil {
		out.Drop()
		return nil, nil, err
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
	return out, outCols, nil
}

// execLeaf binds a table: its base file when no selection is pushed onto
// it, otherwise an owned (uncharged) copy of the rows that pass.
func execLeaf(q Query, ti int) (*heap.File, map[int]int, bool, error) {
	t := q.Tables[ti]
	if t.Rel.File == nil {
		return nil, nil, false, fmt.Errorf("planner: table %s has no storage binding", t.Name)
	}
	cols := t.Rel.ClassCols
	if t.Filter == nil {
		return t.Rel.File, cols, false, nil
	}
	disk := t.Rel.File.Disk()
	out, err := heap.Create(disk, fmt.Sprintf("plan.scan.%d", execSeq.Add(1)), t.Rel.File.Schema())
	if err != nil {
		return nil, nil, false, err
	}
	scanErr := t.Rel.File.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
		if t.Filter(tp) {
			err = out.Append(tp.Clone(), simio.Uncharged)
		}
		return err == nil
	})
	if err == nil {
		err = scanErr
	}
	if err == nil {
		err = out.Flush(simio.Uncharged)
	}
	if err != nil {
		out.Drop()
		return nil, nil, false, err
	}
	return out, cols, true, nil
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

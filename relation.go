package mmdb

import (
	"fmt"
	"slices"

	"mmdb/internal/catalog"
	"mmdb/internal/expr"
	"mmdb/internal/heap"
	"mmdb/internal/lock"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// IndexKind selects an access method (§2).
type IndexKind = catalog.IndexKind

// Access methods.
const (
	BTree = catalog.BTree
	AVL   = catalog.AVL
)

// Relation is a handle on a cataloged table.
type Relation struct {
	db  *Database
	rel *catalog.Relation
	// applier marks the replication applier's own handle: its intents
	// lock through applierCtx (which a read-only database's write guard
	// admits) and its mutations never ship onward.
	applier bool
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.rel.Name }

// withIntent runs fn holding a one-shot relation-level intent: Shared for
// reads, Exclusive for mutations and index builds. This is what lets
// loads and point operations interleave safely with admitted queries —
// a query's shared intent holds off a concurrent DELETE freeing the slots
// it scans, and vice versa.
func (r *Relation) withIntent(mode lock.Mode, fn func() error) error {
	unlock, err := r.db.lockRelations(lockCtx(r.applier), mode, r.Name())
	if err != nil {
		return err
	}
	defer unlock()
	return fn()
}

// ship forwards a mutation made through this handle to the cluster.
func (r *Relation) ship(op shipOp) error { return r.db.shipOp(r.applier, op) }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.rel.Schema() }

// NumTuples returns the cardinality.
func (r *Relation) NumTuples() int64 { return r.rel.File.NumTuples() }

// NumPages returns the paper's |R|.
func (r *Relation) NumPages() int { return r.rel.File.NumPages() }

// Insert encodes and appends one row, maintaining any indexes. Loading is
// uncharged on the virtual clock, matching the paper's convention of
// excluding initial relation reads from experiment costs.
func (r *Relation) Insert(values ...Value) error {
	t, err := r.Schema().Encode(values...)
	if err != nil {
		return err
	}
	return r.InsertTuple(t)
}

// InsertTuple appends an encoded row, maintaining any indexes.
func (r *Relation) InsertTuple(t Tuple) error {
	return r.withIntent(lock.Exclusive, func() error { return r.insertLocked(t) })
}

// insertLocked is InsertTuple's body; the caller holds the exclusive
// intent.
func (r *Relation) insertLocked(t Tuple) error {
	rid, err := r.rel.File.Insert(t)
	if err != nil {
		return err
	}
	schema := r.Schema()
	for _, col := range r.rel.IndexedColumns() {
		ix, _ := r.rel.Index(col)
		ix.Insert(schema.KeyBytes(t, col), rid)
	}
	// Ship inside the intent so replication order is the primary's
	// serialization order (likewise in every mutation below). A
	// refused ship — this node was demoted mid-call — fails the
	// statement: the write is not acknowledged.
	return r.ship(shipOp{kind: opInsert, rel: r.Name(), tuple: t})
}

// insertRows is one INSERT statement: every row appended and shipped, then
// the flush, all under one exclusive intent. A promotion fence admits the
// whole statement or none of it, so a statement refused as not-primary has
// shipped nothing a client retry could duplicate.
func (r *Relation) insertRows(rows [][]Value) error {
	return r.withIntent(lock.Exclusive, func() error {
		for _, row := range rows {
			t, err := r.Schema().Encode(row...)
			if err != nil {
				return err
			}
			if err := r.insertLocked(t); err != nil {
				return err
			}
		}
		return r.flushLocked()
	})
}

// Flush writes any buffered partial page.
func (r *Relation) Flush() error {
	return r.withIntent(lock.Exclusive, r.flushLocked)
}

// flushLocked is Flush's body; the caller holds the exclusive intent.
func (r *Relation) flushLocked() error {
	if err := r.rel.File.Flush(simio.Uncharged); err != nil {
		return err
	}
	return r.ship(shipOp{kind: opFlush, rel: r.Name()})
}

// Scan iterates all tuples in storage order until fn returns false. The
// scan charges sequential IO per page, like the paper's case-2 access.
func (r *Relation) Scan(fn func(Tuple) bool) error {
	return r.withIntent(lock.Shared, func() error {
		return r.rel.File.Scan(simio.Seq, fn)
	})
}

// CreateIndex builds an index on the named column.
func (r *Relation) CreateIndex(column string, kind IndexKind) error {
	col := r.Schema().FieldIndex(column)
	if col < 0 {
		return fmt.Errorf("mmdb: relation %q has no column %q", r.Name(), column)
	}
	return r.withIntent(lock.Exclusive, func() error {
		if _, err := r.db.cat.BuildIndex(r.Name(), col, kind); err != nil {
			return err
		}
		return r.ship(shipOp{kind: opIndex, rel: r.Name(), column: column, ixKind: kind})
	})
}

// Lookup returns all rows whose column equals v, in storage order, using
// an index when one exists (charging comparisons per §2's cost model and
// fetching each row by its RID) and falling back to a charged sequential
// scan otherwise.
func (r *Relation) Lookup(column string, v Value) ([]Tuple, error) {
	schema := r.Schema()
	col := schema.FieldIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("mmdb: relation %q has no column %q", r.Name(), column)
	}
	probe := make(Tuple, schema.Width())
	if err := schema.Set(probe, col, v); err != nil {
		return nil, err
	}
	key := schema.KeyBytes(probe, col)
	var out []Tuple
	err := r.withIntent(lock.Shared, func() error {
		if ix, ok := r.rel.Index(col); ok {
			rids := ix.Search(key)
			// Charge one comparison per level-equivalent; the indexes count
			// their own comparisons internally for the Table 1 experiments,
			// while engine-level lookups charge the clock here.
			r.db.clock.Comps(int64(len(rids) + 1))
			slices.SortFunc(rids, heap.RID.Compare)
			out = make([]Tuple, len(rids))
			for i, rid := range rids {
				t, err := r.rel.File.Fetch(rid)
				if err != nil {
					return err
				}
				out[i] = t
			}
			return nil
		}
		return r.rel.File.Scan(simio.Seq, func(t tuple.Tuple) bool {
			r.db.clock.Comps(1)
			if schema.CompareField(t, probe, col) == 0 {
				out = append(out, t.Clone())
			}
			return true
		})
	})
	return out, err
}

// deleteWhere removes every row matching p, returning the count; a nil p
// removes every row. The victims are found by the reads' access path
// (readWhere), uncharged; each victim's slot is freed in place, in
// storage order, and its entry deleted from every index; no other row
// moves.
func (r *Relation) deleteWhere(p expr.Predicate) (int64, error) {
	var removed int64
	err := r.withIntent(lock.Exclusive, func() error {
		f, schema := r.rel.File, r.Schema()
		w := schema.Width()
		var rids []heap.RID
		var rows []byte // the victims, packed: index keys come from here
		err := readWhere(r.rel, f, newFilter(p, schema), r.db.opts.Params, nil, func(rid heap.RID, t Tuple) bool {
			rids = append(rids, rid)
			rows = append(rows, t...)
			return true
		})
		if err != nil {
			return err
		}
		cols := r.rel.IndexedColumns()
		for i, rid := range rids {
			row := Tuple(rows[i*w : (i+1)*w])
			for _, col := range cols {
				ix, _ := r.rel.Index(col)
				if !ix.Delete(schema.KeyBytes(row, col), rid) {
					return fmt.Errorf("mmdb: %s: index on column %d has no entry for row %v", r.Name(), col, rid)
				}
			}
			if err := f.Delete(rid); err != nil {
				return err
			}
			removed++
		}
		if err := r.ship(shipOp{kind: opDeleteWhere, rel: r.Name(), pred: p}); err != nil {
			removed = 0
			return err
		}
		return nil
	})
	return removed, err
}

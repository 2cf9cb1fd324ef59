// Package agg implements the §3.9 hash-based algorithms for the remaining
// relational operations: grouped aggregate functions and projection with
// duplicate elimination.
//
// When the result (one tuple per group) fits in memory, a one-pass hashing
// algorithm wins: every incoming tuple is hashed on the grouping attribute.
// When it does not, the operator falls back to hybrid-hash style
// partitioning — grouping identical values is the same problem as joining
// on them, so the partitioning machinery is shared with the join package.
package agg

import (
	"context"
	"fmt"
	"sync/atomic"

	"mmdb/internal/exec"
	"mmdb/internal/hashjoin"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// spillSeq uniquifies spill-partition prefixes so two concurrent
// aggregates over the same relation never collide on space names.
var spillSeq atomic.Uint64

// Func identifies an aggregate function.
type Func int

// Aggregate functions.
const (
	Count Func = iota
	Sum
	Min
	Max
	Avg
)

// String returns the function's lowercase name.
func (f Func) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// Group is one output row of an aggregate.
type Group struct {
	Key   tuple.Value
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// Value returns the aggregate under f.
func (g Group) Value(f Func) float64 {
	switch f {
	case Count:
		return float64(g.Count)
	case Sum:
		return float64(g.Sum)
	case Min:
		return float64(g.Min)
	case Max:
		return float64(g.Max)
	case Avg:
		if g.Count == 0 {
			return 0
		}
		return float64(g.Sum) / float64(g.Count)
	default:
		panic(fmt.Sprintf("agg: invalid func %d", int(f)))
	}
}

// Spec describes a grouped aggregate over an int64 value column.
type Spec struct {
	Input    *heap.File
	GroupCol int // grouping attribute
	ValueCol int // aggregated attribute (must be Int64); Distinct runs with none (-1)
	M        int // pages of memory
	F        float64
	// Parallelism bounds the worker goroutines used to aggregate spilled
	// hash partitions concurrently (the partitions are disjoint in group
	// keys, so their group tables never interact). 0 or 1 means serial,
	// negative means GOMAXPROCS. Counters and the order of Groups are
	// identical at every setting: each group table emits its groups in
	// the order their keys first appear in its input, and spilled
	// partitions follow the resident groups in partition-index order.
	Parallelism int
}

func (s Spec) withDefaults() Spec {
	if s.F == 0 {
		s.F = 1.2
	}
	return s
}

// Result carries the output groups and execution shape.
type Result struct {
	Groups     []Group
	Passes     int // 1 = pure one-pass hashing
	Partitions int
}

// Hash executes the aggregate. If the group table overflows memory the
// input is hash-partitioned to disk (hybrid style: the resident fraction
// aggregates on the fly) and each partition is aggregated recursively.
func Hash(spec Spec) (*Result, error) {
	if spec.Input != nil {
		schema := spec.Input.Schema()
		if spec.ValueCol < 0 || spec.ValueCol >= schema.NumFields() || schema.Field(spec.ValueCol).Kind != tuple.Int64 {
			return nil, fmt.Errorf("agg: value column must be an int64 field")
		}
	}
	return run(spec)
}

// run validates everything but the value column and runs the aggregate.
func run(spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	if spec.Input == nil {
		return nil, fmt.Errorf("agg: nil input")
	}
	schema := spec.Input.Schema()
	if spec.GroupCol < 0 || spec.GroupCol >= schema.NumFields() {
		return nil, fmt.Errorf("agg: group column %d out of range", spec.GroupCol)
	}
	if spec.M < 2 {
		return nil, fmt.Errorf("agg: need at least 2 pages of memory")
	}
	res := &Result{Passes: 1}
	if err := aggregate(spec, spec.Input, simio.Uncharged, 0, res); err != nil {
		return nil, err
	}
	return res, nil
}

// value returns t's aggregated attribute, or 0 when the spec has none.
func (s Spec) value(schema *tuple.Schema, t tuple.Tuple) int64 {
	if s.ValueCol < 0 {
		return 0
	}
	return schema.Int(t, s.ValueCol)
}

// groupsPerPage estimates how many groups fit one page; a group is a key
// plus four counters.
func groupsPerPage(spec Spec) int {
	schema := spec.Input.Schema()
	size := schema.FieldWidth(spec.GroupCol) + 32
	return spec.Input.Disk().PageSize() / size
}

func aggregate(spec Spec, in *heap.File, access simio.Access, level uint32, res *Result) error {
	clock := in.Disk().Clock()
	schema := in.Schema()
	capacity := max(1, int(float64(spec.M*groupsPerPage(spec))/spec.F))
	hasher := hashjoin.NewFastHasher(clock, level)

	// The group table is the engine's hash table over records of the group
	// key and the index of its Group in res.Groups, so groups come out in
	// first-appearance order. It starts empty and grows (uncharged) as
	// groups arrive; the records are carved from arenas that double.
	keyField := schema.Field(spec.GroupCol)
	keyField.Name = "key"
	recSchema := tuple.MustSchema(keyField, tuple.Field{Name: "group", Kind: tuple.Int64})
	table := hashjoin.NewKernelTable(clock, recSchema, 0, 0)
	var arena []byte

	// Overflow partitions are created lazily on first overflow.
	var parts *hashjoin.Partitioner
	var splitter *hashjoin.Splitter

	scanErr := in.Scan(access, func(t tuple.Tuple) bool {
		key := schema.KeyBytes(t, spec.GroupCol)
		h := hasher.Hash(key)
		// Probe the group table (one comparison per candidate, as in the
		// join probes).
		if rec := table.Find(h, key); rec != nil {
			g := &res.Groups[recSchema.Int(rec, 1)]
			v := spec.value(schema, t)
			g.Count++
			g.Sum += v
			if v < g.Min {
				g.Min = v
			}
			if v > g.Max {
				g.Max = v
			}
			return true
		}
		if n := table.Len(); n < capacity {
			w := recSchema.Width()
			if len(arena)+w > cap(arena) {
				arena = make([]byte, 0, w*min(capacity-n, max(64, n)))
			}
			rec := arena[len(arena) : len(arena)+w : len(arena)+w]
			arena = arena[:len(arena)+w]
			copy(rec, key)
			_ = recSchema.Set(rec, 1, tuple.IntValue(int64(len(res.Groups))))
			table.Insert(h, rec)
			v := spec.value(schema, t)
			res.Groups = append(res.Groups, Group{Key: schema.Get(t, spec.GroupCol), Count: 1, Sum: v, Min: v, Max: v})
			return true
		}
		// Result exceeds memory ("probably a very unlikely event", §3.9):
		// spill the tuple to a hash partition for a later pass.
		var err error
		if parts == nil {
			b := min(max(spec.M-1, 1), 64)
			splitter = hashjoin.Uniform(b)
			flush := simio.Rand
			if b == 1 {
				flush = simio.Seq
			}
			parts, err = hashjoin.NewPartitioner(in.Disk(), clock, schema,
				fmt.Sprintf("%s.agg%d.%d", in.Name(), level, spillSeq.Add(1)), b, flush)
			if err != nil {
				return false
			}
			res.Partitions += b
		}
		err = parts.Add(splitter.Partition(h), t)
		return err == nil
	})
	if scanErr != nil {
		return scanErr
	}

	if parts == nil {
		return nil
	}
	out, err := parts.Close()
	if err != nil {
		return err
	}
	if int(level)+2 > res.Passes {
		res.Passes = int(level) + 2
	}

	// The spilled partitions hold disjoint group keys, so each can be
	// aggregated by its own worker into a local Result. Locals are kept in
	// a partition-indexed slice and merged in index order after the
	// fan-in, so Groups come out in the same order at every width. Deeper
	// recursion inside a worker runs on one worker — the top-level
	// fan-out already saturates the pool.
	sub := spec
	sub.Parallelism = 1
	locals := make([]Result, len(out))
	err = exec.NewPool(spec.Parallelism).ForEach(context.Background(), len(out), func(_ context.Context, i int) error {
		pr := out[i]
		defer pr.File.Drop()
		if pr.Tuples == 0 {
			return nil
		}
		return aggregate(sub, pr.File, simio.Seq, level+1, &locals[i])
	})
	if err != nil {
		return err
	}
	for _, local := range locals {
		res.Groups = append(res.Groups, local.Groups...)
		res.Partitions += local.Partitions
		if local.Passes > res.Passes {
			res.Passes = local.Passes
		}
	}
	return nil
}

// Distinct performs projection with duplicate elimination on one column
// (§3.9: "in projection we are grouping identical tuples"): it is the hash
// aggregate with no value column, so a column of any kind is held to the
// memory grant, spills to hash partitions when its values overflow it, and
// aggregates those partitions on up to parallelism workers. Values come
// back in the aggregate's group order: first appearance, then spilled
// partitions in partition order.
func Distinct(in *heap.File, col int, m int, f float64, parallelism int) ([]tuple.Value, error) {
	res, err := run(Spec{Input: in, GroupCol: col, ValueCol: -1, M: m, F: f, Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	vals := make([]tuple.Value, len(res.Groups))
	for i, g := range res.Groups {
		vals[i] = g.Key
	}
	return vals, nil
}

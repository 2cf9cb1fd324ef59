package join

import (
	"context"
	"fmt"
	"sync"

	"mmdb/internal/exec"
	"mmdb/internal/hashjoin"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// graceHash is the GRACE hash join of §3.6 [KITS83]: phase one partitions
// both relations into B buckets on disk using one output buffer page per
// bucket; phase two joins each bucket pair with an in-memory hash table
// (the paper substitutes hashing for GRACE's hardware sorter to keep the
// comparison fair, and so do we).
//
// The paper partitions into |M| sets; GraceParts overrides that default.
// Bucket-pair joins that overflow memory recurse with a fresh hash.
func graceHash(spec Spec, emit Emit, res *Result) error {
	disk := spec.R.Disk()
	clock := disk.Clock()
	b := spec.GraceParts
	if b == 0 {
		// §3.6 partitions into |M| sets. On small relations that many
		// buckets waste most of every page (each bucket's last page is
		// partial — a fragmentation effect the paper's model ignores), so
		// the default uses just enough buckets for each R_i to fit in
		// memory, with 4x slack for hash skew, capped at |M|. Pass
		// GraceParts=|M| for the paper's literal choice.
		need := int(ceilDiv(int64(float64(spec.R.NumPages())*spec.F), int64(spec.M)))
		b = 4 * need
		if b < 2 {
			b = 2
		}
		if b > spec.M {
			b = spec.M
		}
	}
	if b < 1 {
		return fmt.Errorf("join: grace needs at least one partition")
	}
	res.Partitions = b
	res.Passes = 2
	prefix := tmpPrefix(GraceHash)

	flush := simio.Rand
	if b == 1 {
		flush = simio.Seq
	}
	hasher := hashjoin.NewFastHasher(clock, 0)
	splitter := hashjoin.Uniform(b)

	// Phase one: partition R and S. The two scans write to disjoint
	// partition files, so they overlap when the pool has more than one
	// worker; with one worker Gather runs them inline, R first, exactly
	// as the serial engine did.
	pool := exec.NewPool(spec.Parallelism)
	ctx := context.Background()
	var rParts, sParts []hashjoin.PartitionResult
	err := pool.Gather(ctx,
		func(context.Context) error {
			var err error
			rParts, err = partitionFile(spec.R, spec.RCol, hasher, splitter, prefix+".r", flush, simio.Uncharged)
			return err
		},
		func(context.Context) error {
			var err error
			sParts, err = partitionFile(spec.S, spec.SCol, hasher, splitter, prefix+".s", flush, simio.Uncharged)
			return err
		},
	)
	if err != nil {
		return err
	}

	// Phase two: the bucket pairs are independent (§3.6 joins each R_i
	// against its S_i and nothing else), so they fan out across the pool.
	// Each worker accumulates pass depth into a local Result merged under
	// a lock; every clock charge is already lock-free and commutative.
	return joinPartitionPairs(pool, ctx, spec, rParts, sParts, emit, res)
}

// joinPartitionPairs joins rParts[i] with sParts[i] for every i across the
// pool's workers, merging each pair's recursion depth into res. A
// one-worker pool runs the pairs inline, in index order.
func joinPartitionPairs(pool *exec.Pool, ctx context.Context, spec Spec,
	rParts, sParts []hashjoin.PartitionResult, emit Emit, res *Result) error {

	var mu sync.Mutex
	return pool.ForEach(ctx, len(rParts), func(_ context.Context, i int) error {
		local := Result{}
		if err := joinPartitionPair(spec, rParts[i].File, sParts[i].File, 1, emit, &local); err != nil {
			return err
		}
		mu.Lock()
		if local.Passes > res.Passes {
			res.Passes = local.Passes
		}
		mu.Unlock()
		return nil
	})
}

// partitionFile hashes every tuple of f and distributes it into the
// splitter's buckets, charging one hash and one move per tuple and the
// flush access kind per page written (§3.6 steps 1–2).
func partitionFile(f *heap.File, col int, hasher hashjoin.Hasher, splitter *hashjoin.Splitter,
	prefix string, flush, input simio.Access) ([]hashjoin.PartitionResult, error) {

	p, err := hashjoin.NewPartitioner(f.Disk(), f.Disk().Clock(), f.Schema(), prefix, splitter.NumPartitions(), flush)
	if err != nil {
		return nil, err
	}
	schema := f.Schema()
	scanErr := f.Scan(input, func(t tuple.Tuple) bool {
		h := hasher.Hash(schema.KeyBytes(t, col))
		err = p.Add(splitter.Partition(h), t)
		return err == nil
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if err != nil {
		return nil, err
	}
	return p.Close()
}

// joinPartitionPair joins one bucket pair (§3.6 steps 3–4, §3.7 steps 3–4):
// read R_i sequentially into an in-memory hash table, then stream S_i
// against it. If R_i's hash table would not fit in memory — the paper's
// "if we err slightly" case — the pair is recursively repartitioned with a
// fresh hash, adding an extra pass for the overflow tuples (§3.3).
func joinPartitionPair(spec Spec, rf, sf *heap.File, level uint32, emit Emit, res *Result) error {
	defer rf.Drop()
	defer sf.Drop()
	if rf.NumTuples() == 0 || sf.NumTuples() == 0 {
		return nil
	}
	// Size the bucket table to the grant as of now — a shrunk grant makes
	// oversized buckets recurse rather than overcommit memory.
	capacity := tableCapacity(spec.liveM(), rf, spec.F)

	if rf.NumTuples() <= int64(capacity) {
		// The bucket fits: one hash pass with b = 0 at this level.
		_, _, err := hashPass{r: rf, s: sf, in: simio.Seq, level: level, expect: int(rf.NumTuples())}.run(spec, emit, res)
		return err
	}

	// A bucket dominated by one key value cannot be split by any hash;
	// after a few fruitless levels fall back to joining it in chunks.
	const maxRecursion = 8
	if level >= maxRecursion {
		return chunkedJoin(spec, rf, sf, level, capacity, emit)
	}

	// Overflow: repartition this pair with a fresh hash and recurse.
	sub := int(ceilDiv(rf.NumTuples(), int64(capacity))) + 1
	if sub > spec.M {
		sub = spec.M
	}
	if res.Passes < int(level)+2 {
		res.Passes = int(level) + 2
	}
	flush := simio.Rand
	if sub == 1 {
		flush = simio.Seq
	}
	hasher := hashjoin.NewFastHasher(spec.R.Disk().Clock(), level)
	splitter := hashjoin.Uniform(sub)
	prefix := fmt.Sprintf("%s.ovf%d", rf.Name(), level)
	rParts, err := partitionFile(rf, spec.RCol, hasher, splitter, prefix+".r", flush, simio.Seq)
	if err != nil {
		return err
	}
	sParts, err := partitionFile(sf, spec.SCol, hasher, splitter, prefix+".s", flush, simio.Seq)
	if err != nil {
		return err
	}
	for i := range rParts {
		if err := joinPartitionPair(spec, rParts[i].File, sParts[i].File, level+1, emit, res); err != nil {
			return err
		}
	}
	return nil
}

// chunkedJoin joins an unsplittable oversized bucket by building the hash
// table for R_i a memory-load at a time and rescanning S_i for each chunk —
// the same memory-bounded discipline as simple hash, without rewriting the
// inputs.
func chunkedJoin(spec Spec, rf, sf *heap.File, level uint32, capacity int, emit Emit) error {
	clock := spec.R.Disk().Clock()
	rSchema, sSchema := rf.Schema(), sf.Schema()
	hasher := hashjoin.NewFastHasher(clock, level)

	total := rf.NumTuples()
	for start := int64(0); start < total; start += int64(capacity) {
		end := start + int64(capacity)
		table := hashjoin.NewKernelTable(clock, rSchema, spec.RCol, capacity)
		var idx int64
		err := rf.Scan(simio.Seq, func(t tuple.Tuple) bool {
			if idx >= start && idx < end {
				table.Insert(hasher.Hash(rSchema.KeyBytes(t, spec.RCol)), t)
			}
			idx++
			return idx < end
		})
		if err != nil {
			return err
		}
		pr := newProber(table, sSchema, spec.SCol, emit)
		err = sf.Scan(simio.Seq, func(t tuple.Tuple) bool {
			pr.add(hasher.Hash(sSchema.KeyBytes(t, spec.SCol)), t)
			return true
		})
		if err != nil {
			return err
		}
		pr.flush()
	}
	return nil
}

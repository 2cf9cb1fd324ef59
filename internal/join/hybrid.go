package join

import (
	"context"
	"math"

	"mmdb/internal/exec"
	"mmdb/internal/hashjoin"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// hybridHash is the paper's new Hybrid hash join (§3.7). On the first pass
// it keeps a hash table for the fraction q = |R0|/|R| of R that fits in
// the memory left over after reserving B output buffer pages, and streams
// S through it, so only the (1-q) remainder of both relations touches disk.
// The disk partitions are then joined pairwise like GRACE buckets.
//
// B is the smallest partition count such that every non-resident partition
// of R later fits in memory: B = ceil((|R|*F - |M|) / (|M| - 1)).
// When B == 1 partition-buffer flushes are sequential rather than random,
// which reproduces the cost discontinuity the paper notes at
// |M| = |R|*F/2 in Figure 1.
func hybridHash(spec Spec, emit Emit, res *Result) error {
	disk := spec.R.Disk()
	clock := disk.Clock()
	rSchema, sSchema := spec.R.Schema(), spec.S.Schema()
	prefix := tmpPrefix(HybridHash)

	rf := float64(spec.R.NumPages()) * spec.F
	m := float64(spec.M)

	if rf <= m {
		// Degenerate case: all of R fits; hybrid == one-pass simple hash.
		res.Passes = 1
		if spec.LiveM != nil {
			// A live grant can be revoked mid-build; the revocable path is
			// serial so the spill decision is a plain sequential check.
			return residentJoinLive(spec, emit, res)
		}
		if spec.workers() > 1 {
			return residentJoinParallel(spec, emit)
		}
		hasher := hashjoin.NewFastHasher(clock, 0)
		table := hashjoin.NewKernelTable(clock, rSchema, spec.RCol, int(spec.R.NumTuples()))
		err := spec.R.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
			table.Insert(hasher.Hash(rSchema.KeyBytes(t, spec.RCol)), t.Clone())
			return true
		})
		if err != nil {
			return err
		}
		pr := newProber(table, func(t tuple.Tuple) []byte { return sSchema.KeyBytes(t, spec.SCol) },
			func(s, r tuple.Tuple) { emit(r, s) })
		err = spec.S.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
			pr.add(hasher.Hash(sSchema.KeyBytes(t, spec.SCol)), t)
			return true
		})
		if err != nil {
			return err
		}
		pr.flush()
		return nil
	}

	// The paper's minimum is B = ceil((|R|F - |M|)/(|M|-1)), which makes
	// every partition exactly fill memory; real hash splits have variance
	// ("if we err slightly we can always apply the hybrid hash join
	// recursively", §3.3), so size partitions to ~80% of memory by default
	// and avoid the extra pass. Spec.HybridSkew=1 restores the paper's
	// exact formula (the ablation experiment measures the difference).
	skew := spec.HybridSkew
	if skew == 0 {
		skew = 1.25
	}
	b := int(math.Ceil(skew * (rf - m) / (m - 1)))
	if b < 1 {
		b = 1
	}
	if b > spec.M-1 {
		// Memory below sqrt(|R|*F): partitions will overflow and recurse.
		b = spec.M - 1
	}
	res.Partitions = b
	res.Passes = 2

	// q is the fraction of R handled entirely in memory (§3.7).
	q := (m - float64(b)) / rf
	if q < 0 {
		q = 0
	}
	weights := make([]float64, b+1)
	weights[0] = q
	for i := 1; i <= b; i++ {
		weights[i] = (1 - q) / float64(b)
	}
	splitter, err := hashjoin.NewSplitter(weights)
	if err != nil {
		return err
	}
	hasher := hashjoin.NewFastHasher(clock, 0)

	flush := simio.Rand
	if b == 1 {
		// One output buffer: flushes are sequential (the paper's footnote
		// on the IOseq/IOrand switch at 0.5 on the Figure 1 axis).
		flush = simio.Seq
	}

	// Step 1: scan R. R0 builds the in-memory table; R1..RB go to disk.
	// Under a live grant the build set is also tracked in `kept` (sharing
	// the cloned tuples, not copying them) so a mid-query revocation can
	// spill the resident partition to disk and degrade to pure GRACE.
	resident := int(q*float64(spec.R.NumTuples())) + 1
	table := hashjoin.NewKernelTable(clock, rSchema, spec.RCol, resident)
	var kept []hashjoin.Keyed
	var spillR, spillS *heap.File
	perPage := float64(spec.R.TuplesPerPage())
	shrunk := func() bool {
		if spec.LiveM == nil {
			return false
		}
		need := int(math.Ceil(float64(len(kept))*spec.F/perPage)) + b
		return need > spec.liveM()
	}
	spill := func() error {
		res.GraceFallback = true
		var err error
		if spillR, err = heap.Create(disk, prefix+".fb.r", rSchema); err != nil {
			return err
		}
		if spillS, err = heap.Create(disk, prefix+".fb.s", sSchema); err != nil {
			return err
		}
		clock.Moves(int64(len(kept)))
		for _, k := range kept {
			if err := spillR.Append(k.Tuple, simio.Seq); err != nil {
				return err
			}
		}
		kept, table = nil, nil
		return nil
	}
	rPart, err := hashjoin.NewPartitioner(disk, clock, rSchema, prefix+".r", b, flush)
	if err != nil {
		return err
	}
	scanErr := spec.R.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		h := hasher.Hash(rSchema.KeyBytes(t, spec.RCol))
		if p := splitter.Partition(h); p == 0 {
			if table == nil {
				clock.Moves(1)
				err = spillR.Append(t.Clone(), simio.Seq)
				return err == nil
			}
			c := t.Clone()
			table.Insert(h, c)
			if spec.LiveM != nil {
				kept = append(kept, hashjoin.Keyed{Hash: h, Tuple: c})
				if shrunk() {
					err = spill()
				}
			}
		} else {
			err = rPart.Add(p-1, t)
		}
		return err == nil
	})
	if scanErr != nil {
		return scanErr
	}
	if err != nil {
		return err
	}
	rParts, err := rPart.Close()
	if err != nil {
		return err
	}

	// Step 2: scan S. S0 probes the resident table immediately; S1..SB go
	// to disk. If the grant was (or gets) revoked, S0 is spilled instead
	// and joins its R counterpart in the bucket phase — every S0 tuple is
	// matched exactly once either way.
	sPart, err := hashjoin.NewPartitioner(disk, clock, sSchema, prefix+".s", b, flush)
	if err != nil {
		return err
	}
	pr := newProber(table, func(t tuple.Tuple) []byte { return sSchema.KeyBytes(t, spec.SCol) },
		func(s, r tuple.Tuple) { emit(r, s) })
	scanErr = spec.S.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		key := sSchema.KeyBytes(t, spec.SCol)
		h := hasher.Hash(key)
		if p := splitter.Partition(h); p == 0 {
			if table != nil && shrunk() {
				// The revocation point is per-tuple exactly as in the
				// unbatched loop; pending probes were admitted before the
				// grant shrank and must surface before the table goes away.
				pr.flush()
				if err = spill(); err != nil {
					return false
				}
			}
			if table == nil {
				clock.Moves(1)
				err = spillS.Append(t.Clone(), simio.Seq)
				return err == nil
			}
			pr.add(h, t)
		} else {
			err = sPart.Add(p-1, t)
		}
		return err == nil
	})
	if scanErr != nil {
		return scanErr
	}
	if err != nil {
		return err
	}
	pr.flush()
	sParts, err := sPart.Close()
	if err != nil {
		return err
	}
	table, kept = nil, nil // release R0 before the bucket joins
	if spillR != nil {
		if err := spillR.Flush(simio.Seq); err != nil {
			return err
		}
		if err := spillS.Flush(simio.Seq); err != nil {
			return err
		}
		rParts = append(rParts, hashjoin.PartitionResult{File: spillR, Tuples: spillR.NumTuples()})
		sParts = append(sParts, hashjoin.PartitionResult{File: spillS, Tuples: spillS.NumTuples()})
	}

	// Steps 3–4: join the disk partitions pairwise. Like GRACE buckets,
	// the pairs are independent and fan out across the worker pool.
	return joinPartitionPairs(exec.NewPool(spec.Parallelism), context.Background(), spec, rParts, sParts, emit, res)
}

// residentJoinLive is hybrid's degenerate all-of-R-resident case under a
// live memory grant: it builds and probes like the serial path, but tracks
// the build set so a mid-query grant revocation can spill it to disk and
// finish as a single GRACE bucket pair instead of failing.
func residentJoinLive(spec Spec, emit Emit, res *Result) error {
	disk := spec.R.Disk()
	clock := disk.Clock()
	rSchema, sSchema := spec.R.Schema(), spec.S.Schema()
	prefix := tmpPrefix(HybridHash)
	hasher := hashjoin.NewFastHasher(clock, 0)
	perPage := float64(spec.R.TuplesPerPage())

	// Tuple-at-a-time probing, not the batching prober: this path exists
	// to observe a live grant at every tuple boundary, and batching would
	// only defer matches across the boundary being tested.
	table := hashjoin.NewKernelTable(clock, rSchema, spec.RCol, int(spec.R.NumTuples()))
	var kept []hashjoin.Keyed
	var spillR, spillS *heap.File
	shrunk := func() bool {
		need := int(math.Ceil(float64(len(kept)) * spec.F / perPage))
		return need > spec.liveM()
	}
	spill := func() error {
		res.GraceFallback = true
		var err error
		if spillR, err = heap.Create(disk, prefix+".fb.r", rSchema); err != nil {
			return err
		}
		if spillS, err = heap.Create(disk, prefix+".fb.s", sSchema); err != nil {
			return err
		}
		clock.Moves(int64(len(kept)))
		for _, k := range kept {
			if err := spillR.Append(k.Tuple, simio.Seq); err != nil {
				return err
			}
		}
		kept, table = nil, nil
		return nil
	}

	var err error
	scanErr := spec.R.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		if table == nil {
			clock.Moves(1)
			err = spillR.Append(t.Clone(), simio.Seq)
			return err == nil
		}
		h := hasher.Hash(rSchema.KeyBytes(t, spec.RCol))
		c := t.Clone()
		table.Insert(h, c)
		kept = append(kept, hashjoin.Keyed{Hash: h, Tuple: c})
		if shrunk() {
			err = spill()
		}
		return err == nil
	})
	if scanErr != nil {
		return scanErr
	}
	if err != nil {
		return err
	}
	scanErr = spec.S.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		if table != nil && shrunk() {
			if err = spill(); err != nil {
				return false
			}
		}
		if table == nil {
			clock.Moves(1)
			err = spillS.Append(t.Clone(), simio.Seq)
			return err == nil
		}
		key := sSchema.KeyBytes(t, spec.SCol)
		table.Probe(hasher.Hash(key), key, func(r tuple.Tuple) {
			emit(r, t)
		})
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if err != nil {
		return err
	}
	if spillR == nil {
		return nil
	}
	if err := spillR.Flush(simio.Seq); err != nil {
		return err
	}
	if err := spillS.Flush(simio.Seq); err != nil {
		return err
	}
	res.Passes = 2
	return joinPartitionPair(spec, spillR, spillS, 1, emit, res)
}

// residentJoinParallel is the all-of-R-resident case with build and probe
// fanned out over hash shards: the scans stay sequential (hashing is
// charged per tuple on the scanning goroutine, as in the serial path), and
// the tuple moves into the table and the probe comparisons — the CPU terms
// that dominate when no partition IO happens — run on one worker per
// shard. ShardedTable routes by hash bits disjoint from the sub-table and
// slot bits, so the counters tally exactly as in the single-table serial
// run.
func residentJoinParallel(spec Spec, emit Emit) error {
	clock := spec.R.Disk().Clock()
	rSchema, sSchema := spec.R.Schema(), spec.S.Schema()
	hasher := hashjoin.NewFastHasher(clock, 0)
	workers := spec.workers()
	table := hashjoin.NewShardedKernelTable(clock, rSchema, spec.RCol, int(spec.R.NumTuples()), workers)
	ns := table.NumShards()
	pool := exec.NewPool(workers)
	ctx := context.Background()

	build := make([][]hashjoin.Keyed, ns)
	err := spec.R.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		h := hasher.Hash(rSchema.KeyBytes(t, spec.RCol))
		s := table.ShardOf(h)
		build[s] = append(build[s], hashjoin.Keyed{Hash: h, Tuple: t.Clone()})
		return true
	})
	if err != nil {
		return err
	}
	err = pool.ForEach(ctx, ns, func(_ context.Context, i int) error {
		shard := table.Shard(i)
		for _, k := range build[i] {
			shard.Insert(k.Hash, k.Tuple)
		}
		build[i] = nil
		return nil
	})
	if err != nil {
		return err
	}

	probe := make([][]hashjoin.Keyed, ns)
	err = spec.S.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		h := hasher.Hash(sSchema.KeyBytes(t, spec.SCol))
		s := table.ShardOf(h)
		probe[s] = append(probe[s], hashjoin.Keyed{Hash: h, Tuple: t.Clone()})
		return true
	})
	if err != nil {
		return err
	}
	return pool.ForEach(ctx, ns, func(_ context.Context, i int) error {
		// Each shard's probes are already clustered by hash; sweep them in
		// BatchSize-long batches so the shard's sub-tables stay cache-warm.
		// The scratch buffers live per shard table, so shards batch
		// concurrently without sharing state.
		kt := table.Shard(i)
		keyOf := func(t tuple.Tuple) []byte { return sSchema.KeyBytes(t, spec.SCol) }
		bs := kt.BatchSize()
		for lo := 0; lo < len(probe[i]); lo += bs {
			hi := lo + bs
			if hi > len(probe[i]) {
				hi = len(probe[i])
			}
			batch := probe[i][lo:hi]
			kt.ProbeBatch(batch, keyOf, func(j int, r tuple.Tuple) {
				emit(r, batch[j].Tuple)
			})
		}
		probe[i] = nil
		return nil
	})
}

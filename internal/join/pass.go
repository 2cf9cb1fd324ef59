package join

import (
	"math"

	"mmdb/internal/hashjoin"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// hashPass is one build–probe pass of a hash join, the loop §3.5's simple
// hash, §3.7's hybrid hash and every bucket pair that fits in memory share.
// Partition 0 of split — all of R when split is nil — is built into an
// in-memory table and S's partition-0 tuples probe it; partitions 1..b go
// to disk through a Partitioner, one output buffer each, for a later pass
// or bucket join. With b = 0 the pass is one-pass simple hash.
type hashPass struct {
	r, s   *heap.File
	in     simio.Access       // how reading r and s is charged
	level  uint32             // hash function level
	split  *hashjoin.Splitter // nil: b = 0, all of R resident
	expect int                // tuples the resident table is sized for
	prefix string             // name prefix of the pass's disk files
	// live makes the pass consult spec's live grant after every resident
	// insert and before every resident probe; when the grant no longer
	// covers the resident table plus the b output buffers, partition 0 is
	// spilled to one extra disk pair, returned after the b partitions, and
	// res.GraceFallback is set.
	live bool
}

// run executes the pass and returns the disk partition pairs it wrote.
func (p hashPass) run(spec Spec, emit Emit, res *Result) (rParts, sParts []hashjoin.PartitionResult, err error) {
	disk := p.r.Disk()
	clock := disk.Clock()
	rSchema, sSchema := p.r.Schema(), p.s.Schema()
	hasher := hashjoin.NewFastHasher(clock, p.level)
	b := 0
	if p.split != nil {
		b = p.split.NumPartitions() - 1
	}
	flush := simio.Rand
	if b == 1 {
		// One output buffer: flushes are sequential (the paper's footnote
		// on the IOseq/IOrand switch at 0.5 on the Figure 1 axis).
		flush = simio.Seq
	}

	// Under a live grant the build set is also tracked in `kept`, in
	// insertion order and sharing the table's tuples, so a revocation can
	// spill it. With b = 0 nothing routes by hash, so a tuple bound for
	// the spill file is never hashed.
	table := hashjoin.NewKernelTable(clock, rSchema, spec.RCol, p.expect)
	var kept []tuple.Tuple
	var spillR, spillS *heap.File
	perPage := float64(p.r.TuplesPerPage())
	shrunk := func() bool {
		need := int(math.Ceil(float64(len(kept))*spec.F/perPage)) + b
		return need > spec.liveM()
	}
	spill := func() error {
		res.GraceFallback = true
		var err error
		if spillR, err = heap.Create(disk, p.prefix+".fb.r", rSchema); err != nil {
			return err
		}
		if spillS, err = heap.Create(disk, p.prefix+".fb.s", sSchema); err != nil {
			return err
		}
		clock.Moves(int64(len(kept)))
		for _, t := range kept {
			if err := spillR.Append(t, simio.Seq); err != nil {
				return err
			}
		}
		kept, table = nil, nil
		return nil
	}

	// Step 1: scan R. Partition 0 builds the table; the rest go to disk.
	var rPart, sPart *hashjoin.Partitioner
	if b > 0 {
		if rPart, err = hashjoin.NewPartitioner(disk, clock, rSchema, p.prefix+".r", b, flush); err != nil {
			return nil, nil, err
		}
	}
	scanErr := p.r.Scan(p.in, func(t tuple.Tuple) bool {
		var h uint64
		if b > 0 {
			h = hasher.Hash(rSchema.KeyBytes(t, spec.RCol))
			if i := p.split.Partition(h); i > 0 {
				err = rPart.Add(i-1, t)
				return err == nil
			}
		}
		if table == nil {
			clock.Moves(1)
			err = spillR.Append(t, simio.Seq)
			return err == nil
		}
		if b == 0 {
			h = hasher.Hash(rSchema.KeyBytes(t, spec.RCol))
		}
		table.Insert(h, t)
		if p.live {
			kept = append(kept, t)
			if shrunk() {
				err = spill()
			}
		}
		return err == nil
	})
	if err == nil {
		err = scanErr
	}
	if err == nil && rPart != nil {
		rParts, err = rPart.Close()
	}
	if err == nil && b > 0 {
		sPart, err = hashjoin.NewPartitioner(disk, clock, sSchema, p.prefix+".s", b, flush)
	}
	if err != nil {
		return nil, nil, err
	}

	// Step 2: scan S. Partition 0 probes the table; the rest go to disk.
	// A one-part table probes tuple-at-a-time: batching pays off only
	// when it keeps several sub-tables cache-hot, and ProbeBatch charges
	// and emits exactly what sequential Probe calls do. If the grant was
	// (or gets) revoked, partition 0 of S is spilled instead and joins its
	// R counterpart in the bucket phase, so every S tuple is matched once.
	var pr *prober
	if table != nil && table.NumParts() > 1 {
		pr = newProber(table, sSchema, spec.SCol, emit)
	}
	scanErr = p.s.Scan(p.in, func(t tuple.Tuple) bool {
		key := sSchema.KeyBytes(t, spec.SCol)
		var h uint64
		if b > 0 {
			h = hasher.Hash(key)
			if i := p.split.Partition(h); i > 0 {
				err = sPart.Add(i-1, t)
				return err == nil
			}
		}
		if p.live && table != nil && shrunk() {
			// Pending probes were admitted before the grant shrank and
			// must surface before the table goes away.
			if pr != nil {
				pr.flush()
			}
			if err = spill(); err != nil {
				return false
			}
		}
		if table == nil {
			clock.Moves(1)
			err = spillS.Append(t, simio.Seq)
			return err == nil
		}
		if b == 0 {
			h = hasher.Hash(key)
		}
		if pr != nil {
			pr.add(h, t)
		} else {
			table.Probe(h, key, func(r tuple.Tuple) { emit(r, t) })
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, nil, err
	}
	if pr != nil {
		pr.flush()
	}
	if sPart != nil {
		if sParts, err = sPart.Close(); err != nil {
			return nil, nil, err
		}
	}
	if spillR != nil {
		if err := spillR.Flush(simio.Seq); err != nil {
			return nil, nil, err
		}
		if err := spillS.Flush(simio.Seq); err != nil {
			return nil, nil, err
		}
		rParts = append(rParts, hashjoin.PartitionResult{File: spillR, Tuples: spillR.NumTuples()})
		sParts = append(sParts, hashjoin.PartitionResult{File: spillS, Tuples: spillS.NumTuples()})
	}
	return rParts, sParts, nil
}

// prober accumulates a probe loop's tuples into a batch and sweeps them
// with KernelTable.ProbeBatch, which groups probes by destination
// sub-table and warms slot, entry and tuple lines ahead of the compares.
//
// Batching is invisible to the plan: ProbeBatch charges the same
// comparison total as a tuple-at-a-time loop and reports matches in
// ascending probe order with per-probe matches in insertion order, so a
// serial join's emission sequence does not depend on the batch size.
// Batching only defers when within the scan the matches surface, which is
// why callers that can release or spill the table mid-scan must flush
// first.
type prober struct {
	table *hashjoin.KernelTable
	keyOf func(tuple.Tuple) []byte
	emit  Emit
	batch []hashjoin.Keyed
}

func newProber(table *hashjoin.KernelTable, schema *tuple.Schema, col int, emit Emit) *prober {
	n := table.BatchSize()
	return &prober{
		table: table,
		keyOf: func(t tuple.Tuple) []byte { return schema.KeyBytes(t, col) },
		emit:  emit,
		batch: make([]hashjoin.Keyed, 0, n),
	}
}

// add queues one probe tuple, sweeping the batch when it fills. The tuple
// is queued as the scan's view: a scanned page stays as it is while its
// file is not written (docs/ARCHITECTURE.md, "Page lifetime").
func (p *prober) add(h uint64, t tuple.Tuple) {
	p.batch = append(p.batch, hashjoin.Keyed{Hash: h, Tuple: t})
	if len(p.batch) == cap(p.batch) {
		p.flush()
	}
}

// flush drains pending probes. Callers must flush after the probe scan
// completes, and before the table is released or spilled mid-scan.
func (p *prober) flush() {
	p.table.ProbeBatch(p.batch, p.keyOf, func(i int, m tuple.Tuple) {
		p.emit(m, p.batch[i].Tuple)
	})
	p.batch = p.batch[:0]
}

package join

import (
	"fmt"

	"mmdb/internal/hashjoin"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// simpleHash is the multipass simple-hash join of §3.5. Each pass fills
// memory with a hash table for the fraction of R that fits, scans S against
// it, and writes the passed-over tuples of both relations to disk files
// that become the next pass's inputs. The pass count A grows as
// |R|*F / |M|, which is why the algorithm collapses when memory is small.
func simpleHash(spec Spec, emit Emit, res *Result) error {
	disk := spec.R.Disk()
	clock := disk.Clock()
	rSchema, sSchema := spec.R.Schema(), spec.S.Schema()
	prefix := tmpPrefix(SimpleHash)

	rCur, sCur := spec.R, spec.S
	access := simio.Uncharged // the first pass reads the base relations
	for pass := 0; ; pass++ {
		res.Passes = pass + 1
		remaining := rCur.NumTuples()
		if remaining == 0 {
			if pass > 0 {
				rCur.Drop()
				sCur.Drop()
			}
			break
		}
		capacity := tableCapacity(spec.M, rCur, spec.F)
		resident := float64(capacity) / float64(remaining)
		if resident > 1 {
			resident = 1
		}
		hasher := hashjoin.NewFastHasher(clock, uint32(pass))
		var splitter *hashjoin.Splitter
		if resident < 1 {
			var err error
			splitter, err = hashjoin.NewSplitter([]float64{resident, 1 - resident})
			if err != nil {
				return err
			}
		}

		expect := int64(capacity)
		if remaining < expect {
			expect = remaining
		}
		table := hashjoin.NewKernelTable(clock, rSchema, spec.RCol, int(expect))

		var rNext, sNext *heap.File
		if splitter != nil {
			var err error
			rNext, err = heap.Create(disk, fmt.Sprintf("%s.r.%d", prefix, pass+1), rSchema)
			if err != nil {
				return err
			}
			sNext, err = heap.Create(disk, fmt.Sprintf("%s.s.%d", prefix, pass+1), sSchema)
			if err != nil {
				return err
			}
		}

		// Step 1: scan R; resident tuples enter the hash table, the rest
		// are passed over to disk (§3.5 step 1).
		err := rCur.Scan(access, func(t tuple.Tuple) bool {
			h := hasher.Hash(rSchema.KeyBytes(t, spec.RCol))
			if splitter == nil || splitter.Partition(h) == 0 {
				table.Insert(h, t.Clone())
				return true
			}
			clock.Moves(1)
			err := rNext.Append(t.Clone(), simio.Seq)
			return err == nil
		})
		if err != nil {
			return err
		}
		if rNext != nil {
			if err := rNext.Flush(simio.Seq); err != nil {
				return err
			}
		}

		// Step 2: scan S; tuples hashing into the chosen range probe the
		// table, the rest are passed over (§3.5 step 2).
		pr := newProber(table, func(t tuple.Tuple) []byte { return sSchema.KeyBytes(t, spec.SCol) },
			func(s, r tuple.Tuple) { emit(r, s) })
		err = sCur.Scan(access, func(t tuple.Tuple) bool {
			h := hasher.Hash(sSchema.KeyBytes(t, spec.SCol))
			if splitter == nil || splitter.Partition(h) == 0 {
				pr.add(h, t)
				return true
			}
			clock.Moves(1)
			err := sNext.Append(t.Clone(), simio.Seq)
			return err == nil
		})
		if err != nil {
			return err
		}
		pr.flush()
		if sNext != nil {
			if err := sNext.Flush(simio.Seq); err != nil {
				return err
			}
		}

		if pass > 0 {
			rCur.Drop()
			sCur.Drop()
		}
		if splitter == nil {
			break // everything was resident; the algorithm terminates (§3.5 step 3)
		}
		rCur, sCur = rNext, sNext
		access = simio.Seq // passed-over files are read back sequentially
	}
	return nil
}

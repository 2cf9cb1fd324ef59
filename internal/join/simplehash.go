package join

import (
	"fmt"

	"mmdb/internal/hashjoin"
	"mmdb/internal/simio"
)

// simpleHash is the multipass simple-hash join of §3.5. Each pass fills
// memory with a hash table for the fraction of R that fits, scans S against
// it, and writes the passed-over tuples of both relations to disk files
// that become the next pass's inputs: a hash pass with b = 1, whose single
// sequential output buffer charges one move per tuple and IOseq per page.
// The pass count A grows as |R|*F / |M|, which is why the algorithm
// collapses when memory is small.
func simpleHash(spec Spec, emit Emit, res *Result) error {
	prefix := tmpPrefix(SimpleHash)
	pass := hashPass{r: spec.R, s: spec.S, in: simio.Uncharged} // the first pass reads the base relations
	for level := uint32(0); ; level++ {
		res.Passes = int(level) + 1
		var rParts, sParts []hashjoin.PartitionResult
		if remaining := pass.r.NumTuples(); remaining > 0 {
			capacity := tableCapacity(spec.M, pass.r, spec.F)
			pass.level, pass.expect, pass.split = level, min(capacity, int(remaining)), nil
			pass.prefix = fmt.Sprintf("%s.%d", prefix, level+1)
			var err error
			if resident := float64(capacity) / float64(remaining); resident < 1 {
				if pass.split, err = hashjoin.NewSplitter([]float64{resident, 1 - resident}); err != nil {
					return err
				}
			}
			if rParts, sParts, err = pass.run(spec, emit, res); err != nil {
				return err
			}
		}
		if level > 0 {
			pass.r.Drop()
			pass.s.Drop()
		}
		if len(rParts) == 0 {
			return nil // everything was resident; the algorithm terminates (§3.5 step 3)
		}
		pass.r, pass.s, pass.in = rParts[0].File, sParts[0].File, simio.Seq // passed-over files are read back sequentially
	}
}

package join

import (
	"context"
	"math"

	"mmdb/internal/exec"
	"mmdb/internal/hashjoin"
	"mmdb/internal/simio"
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
	rf := float64(spec.R.NumPages()) * spec.F
	m := float64(spec.M)
	res.Passes = 1
	pass := hashPass{r: spec.R, s: spec.S, in: simio.Uncharged, expect: int(spec.R.NumTuples()),
		prefix: tmpPrefix(HybridHash), live: spec.LiveM != nil}

	// When all of R fits, hybrid is one-pass simple hash (q = 1, B = 0):
	// the pass below runs with no splitter and writes no partitions.
	if rf > m {
		// The paper's minimum is B = ceil((|R|F - |M|)/(|M|-1)), which
		// makes every partition exactly fill memory; real hash splits have
		// variance ("if we err slightly we can always apply the hybrid
		// hash join recursively", §3.3), so size partitions to ~80% of
		// memory by default and avoid the extra pass. Spec.HybridSkew=1
		// restores the paper's exact formula (the ablation experiment
		// measures the difference).
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
		var err error
		if pass.split, err = hashjoin.NewSplitter(weights); err != nil {
			return err
		}
		pass.expect = int(q*float64(spec.R.NumTuples())) + 1
	}

	// Steps 1–2: R0 builds the in-memory table and S0 probes it; R1..RB
	// and S1..SB go to disk, as does R0/S0 if the grant is revoked.
	rParts, sParts, err := pass.run(spec, emit, res)
	if err != nil || len(rParts) == 0 {
		return err
	}
	// Steps 3–4: join the disk partitions pairwise. Like GRACE buckets,
	// the pairs are independent and fan out across the worker pool.
	res.Passes = 2
	return joinPartitionPairs(exec.NewPool(spec.Parallelism), context.Background(), spec, rParts, sParts, emit, res)
}

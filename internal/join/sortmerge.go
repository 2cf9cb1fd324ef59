package join

import (
	"bytes"
	"context"
	"fmt"

	"mmdb/internal/exec"
	"mmdb/internal/extsort"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// sortMerge is the standard sort-merge join of §3.4: replacement-selection
// run formation over both relations, a concurrent n-way merge with one
// buffer page per run, and a merging join of the two sorted streams.
//
// Memory is split evenly between the two sorts during run formation; the
// merge needs one page per run, which the paper's assumption
// |M| >= sqrt(|S|*F) guarantees (checked here, since our runs really exist).
func sortMerge(spec Spec, emit Emit, res *Result) error {
	// The priority queue for a relation occupying the full memory holds
	// |M| pages worth of tuples (divided by F for structure overhead).
	// Each relation is sorted with the full memory in turn, as in the
	// paper's phase structure: scan S and produce runs, then do the same
	// for R.
	capR := tableCapacity(spec.M, spec.R, spec.F)
	capS := tableCapacity(spec.M, spec.S, spec.F)
	if capR < 2 || capS < 2 {
		return fmt.Errorf("join: sort-merge needs memory for at least 2 tuples")
	}
	prefix := tmpPrefix(SortMerge)

	// During the merging join every open run of R and S needs one buffer
	// page simultaneously (§3.4 step 2), so each relation's final merge may
	// hold at most |M|/2 runs. Under the paper's |M| >= sqrt(|S|*F)
	// assumption no intermediate merge passes occur.
	fanout := spec.M / 2
	if fanout < 2 {
		fanout = 2
	}
	sortCfg := func(f filePart) extsort.Config {
		return extsort.Config{
			Col:         f.col,
			MemTuples:   f.cap,
			MaxFanout:   fanout,
			Prefix:      f.prefix,
			Input:       simio.Uncharged,
			Chunks:      spec.SortChunks,
			Parallelism: spec.Parallelism,
		}
	}

	// The two relation sorts are independent — separate run namespaces,
	// commutative counter charges — so they overlap on the pool. A serial
	// pool runs them inline in order (R then S), the original phase
	// structure; each sort additionally parallelizes internally per its
	// Chunks/Parallelism config.
	var rStream, sStream extsort.Stream
	var rStats, sStats extsort.Stats
	pool := exec.NewPool(spec.Parallelism)
	err := pool.Gather(context.Background(),
		func(context.Context) error {
			var err error
			rStream, rStats, err = extsort.SortWith(spec.R, sortCfg(filePart{spec.RCol, capR, prefix + ".r"}))
			return err
		},
		func(context.Context) error {
			var err error
			sStream, sStats, err = extsort.SortWith(spec.S, sortCfg(filePart{spec.SCol, capS, prefix + ".s"}))
			return err
		},
	)
	if rStream != nil {
		defer rStream.Close()
	}
	if sStream != nil {
		defer sStream.Close()
	}
	if err != nil {
		return err
	}
	res.Passes = 2 + rStats.MergePasses + sStats.MergePasses
	res.Partitions = rStats.Runs + sStats.Runs
	res.RSort, res.SSort = rStats, sStats

	return mergeJoin(spec, rStream, sStream, emit)
}

// filePart bundles one relation's sort parameters.
type filePart struct {
	col    int
	cap    int
	prefix string
}

// mergeJoin joins two key-ordered streams, buffering each group of
// S-duplicates so every matching R tuple joins with the whole group.
func mergeJoin(spec Spec, rStream, sStream extsort.Stream, emit Emit) error {
	clock := spec.R.Disk().Clock()
	rs, ss := spec.R.Schema(), spec.S.Schema()
	rKey := func(t tuple.Tuple) []byte { return rs.KeyBytes(t, spec.RCol) }
	sKey := func(t tuple.Tuple) []byte { return ss.KeyBytes(t, spec.SCol) }

	r, rok := rStream.Next()
	s, sok := sStream.Next()
	for rok && sok {
		clock.Comps(1)
		switch c := bytes.Compare(rKey(r), sKey(s)); {
		case c < 0:
			r, rok = rStream.Next()
		case c > 0:
			s, sok = sStream.Next()
		default:
			// Gather the S group sharing this key.
			groupKey := append([]byte(nil), sKey(s)...)
			group := []tuple.Tuple{s}
			for {
				s, sok = sStream.Next()
				if !sok {
					break
				}
				clock.Comps(1)
				if !bytes.Equal(sKey(s), groupKey) {
					break
				}
				group = append(group, s)
			}
			// Join every R tuple with this key against the group.
			for rok && bytes.Equal(rKey(r), groupKey) {
				for _, g := range group {
					emit(r, g)
				}
				r, rok = rStream.Next()
				if rok {
					clock.Comps(1)
				}
			}
		}
	}
	if err := rStream.Err(); err != nil {
		return err
	}
	return sStream.Err()
}

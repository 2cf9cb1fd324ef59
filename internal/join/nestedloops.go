package join

import (
	"bytes"

	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// nestedLoops is the brute-force reference join used as a correctness
// oracle in tests and as a sanity baseline. It charges nothing: its role is
// to define the correct answer, not to compete (the paper does not include
// it in Figure 1).
func nestedLoops(spec Spec, emit Emit) error {
	rs := spec.R.Schema()
	ss := spec.S.Schema()
	var rTuples []tuple.Tuple
	err := spec.R.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		rTuples = append(rTuples, t)
		return true
	})
	if err != nil {
		return err
	}
	return spec.S.Scan(simio.Uncharged, func(s tuple.Tuple) bool {
		sk := ss.KeyBytes(s, spec.SCol)
		for _, r := range rTuples {
			if bytes.Equal(rs.KeyBytes(r, spec.RCol), sk) {
				emit(r, s)
			}
		}
		return true
	})
}

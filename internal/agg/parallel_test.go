package agg

// Parallel aggregation determinism: spilled hash partitions aggregated at
// Parallelism=8 must produce the same groups, in the same order, and
// bit-identical counters as the serial run (the partitions hold disjoint keys and counter addition
// commutes). Run under -race this also exercises the worker pool against
// the shared clock and disk.

import (
	"testing"

	"mmdb/internal/cost"
)

func spillRows(n, groups int64) [][2]int64 {
	var rows [][2]int64
	for i := int64(0); i < n; i++ {
		rows = append(rows, [2]int64{i % groups, i})
	}
	return rows
}

func TestParallelSpillMatchesSerialExactly(t *testing.T) {
	rows := spillRows(3000, 700)

	run := func(parallelism int) (*Result, cost.Counters) {
		disk := env()
		f := load(t, disk, "r", rows)
		before := disk.Clock().Counters()
		res, err := Hash(Spec{Input: f, GroupCol: 0, ValueCol: 1, M: 2, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return res, disk.Clock().Counters().Sub(before)
	}

	serial, serialCounters := run(1)
	parallel, parallelCounters := run(8)

	if serial.Passes < 2 {
		t.Fatalf("workload did not spill: passes=%d", serial.Passes)
	}
	if parallel.Passes != serial.Passes || parallel.Partitions != serial.Partitions {
		t.Errorf("shape diverges: parallel passes=%d parts=%d, serial passes=%d parts=%d",
			parallel.Passes, parallel.Partitions, serial.Passes, serial.Partitions)
	}
	if parallelCounters != serialCounters {
		t.Errorf("counters diverge:\n  parallel %v\n  serial   %v", parallelCounters, serialCounters)
	}
	checkGroups(t, parallel.Groups, rows)

	// Groups come out in the same order at every width: each table's in
	// first-appearance order, spilled partitions in partition order.
	if len(parallel.Groups) != len(serial.Groups) {
		t.Fatalf("%d groups in parallel, %d serially", len(parallel.Groups), len(serial.Groups))
	}
	for i := range serial.Groups {
		if serial.Groups[i] != parallel.Groups[i] {
			t.Fatalf("group %d diverges: parallel %+v, serial %+v", i, parallel.Groups[i], serial.Groups[i])
		}
	}
}

func TestParallelDistinctMatchesSerial(t *testing.T) {
	rows := spillRows(2000, 900)

	run := func(parallelism int) []int64 {
		disk := env()
		f := load(t, disk, "r", rows)
		vals, err := Distinct(f, 0, 2, 1.2, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i] = v.I
		}
		return out
	}

	serial := run(1)
	parallel := run(8)
	if len(serial) != 900 || len(parallel) != len(serial) {
		t.Fatalf("distinct counts: serial %d, parallel %d, want 900", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("value %d diverges: %d vs %d", i, parallel[i], serial[i])
		}
	}
}

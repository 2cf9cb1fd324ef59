package main

// Benchmark wrappers, from outside their packages, for the layers
// ROADMAP lists as having no Benchmark* of their own. They share the
// traced pass's fixtures and kernels, so `go test -bench . -benchmem`
// here gives ns/op and allocs/op for the same operations the
// per-layer metrics time:
//
//	go test -run '^$' -bench . -benchmem ./...

import (
	"context"
	"testing"

	"mmdb"
	"mmdb/internal/sql"
	"mmdb/internal/tuple"
	"mmdb/internal/wire"
)

// sink keeps results alive so the compiler cannot drop the calls.
var sink any

// benchEnv is a workload's loaded database, as setUp leaves it.
func benchEnv(b *testing.B, workload string) (*env, *dataset) {
	b.Helper()
	spec := sqlSpecFor(workload, 1)
	d := newDataset(spec.N, spec.Sale, 1)
	e, _, err := setUp(spec, d)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.close)
	return e, d
}

// oneOfEach returns one generated statement per class the mixes
// produce, so the front-door benchmarks see real statement text.
func oneOfEach(d *dataset) []stmt {
	var out []stmt
	seen := map[class]bool{}
	for _, m := range []mix{mixPointRead, mixAnalytic, mixWriter} {
		s := newStream(m, d, 1, 0)
		for i := 0; i < 200; i++ {
			if st := s.next(); !seen[st.Class] {
				seen[st.Class] = true
				out = append(out, st)
			}
		}
	}
	return out
}

func BenchmarkSQLParse(b *testing.B) {
	for _, st := range oneOfEach(newDataset(100_000, true, 1)) {
		st := st
		b.Run(st.Class.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ast, err := sql.Parse(st.SQL)
				if err != nil {
					b.Fatal(err)
				}
				sink = ast
			}
		})
	}
}

func BenchmarkSQLBind(b *testing.B) {
	e, d := benchEnv(b, "analytic_spill")
	for _, st := range oneOfEach(d) {
		ast, err := sql.Parse(st.SQL)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(st.Class.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bound, err := sql.Bind(ast, bindCatalog{e.db})
				if err != nil {
					b.Fatal(err)
				}
				sink = bound
			}
		})
	}
}

// BenchmarkWireRowCodec round-trips one fetch reply's rows — a ROWS
// frame of 100 emp tuples — through the encoder and, as sqlclient
// does, back down to values.
func BenchmarkWireRowCodec(b *testing.B) {
	rows := make([]tuple.Tuple, 100)
	for i := range rows {
		id := int64(i + 1)
		rows[i] = empSchema.MustEncode(mmdb.IntValue(id), mmdb.IntValue(empDept(200, id)), mmdb.IntValue(empSalary(id)))
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = wire.EncodeRows(rows)
		}
	})
	payload := wire.EncodeRows(rows)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := wire.DecodeRows(payload, empSchema)
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range got {
				sink = empSchema.Decode(t)
			}
		}
	})
}

func BenchmarkSessionAdmitRelease(b *testing.B) {
	e, _ := benchEnv(b, "point_read")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := e.db.NewSession(context.Background(), mmdb.WithClass(mmdb.Batch))
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// benchKernel runs one of the traced pass's kernels on the workload's
// fixture, preparing each repetition off the clock.
func benchKernel(b *testing.B, workload, name string) {
	spec := sqlSpecFor(workload, 1)
	fx, err := newFixture(newDataset(spec.N, spec.Sale, 1), spec.MemoryPages/numClients, nil)
	if err != nil {
		b.Fatal(err)
	}
	k := kernelByName[name]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k.prep != nil {
			b.StopTimer()
			if err := k.prep(fx); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := k.run(fx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockTableAcquire is 10 000 uncontended acquire-release
// pairs per op, alternating shared and exclusive.
func BenchmarkLockTableAcquire(b *testing.B) {
	benchKernel(b, "write_mix", "lock.acquire_release_ns")
}
func BenchmarkHeapScan(b *testing.B)    { benchKernel(b, "point_read", "heap.scan_ns_per_tuple") }
func BenchmarkHeapRewrite(b *testing.B) { benchKernel(b, "write_mix", "heap.rewrite_ms") }
func BenchmarkJoinRun(b *testing.B)     { benchKernel(b, "analytic_spill", "join.hybrid_ms") }
func BenchmarkAggHash(b *testing.B)     { benchKernel(b, "analytic_spill", "agg.hash_ms") }

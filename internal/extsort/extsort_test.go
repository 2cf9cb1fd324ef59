package extsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
	"mmdb/internal/workload"
)

func makeFile(t testing.TB, n int, domain int64, seed int64) *heap.File {
	t.Helper()
	clock := cost.NewClock(cost.DefaultParams())
	disk := simio.NewDisk(clock, 256)
	f, err := workload.Generate(disk, workload.RelationSpec{
		Name: "in", Tuples: n, KeyDomain: domain, PayloadWidth: 12, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func drain(t testing.TB, s Stream) []int64 {
	t.Helper()
	var out []int64
	sc := workload.RelationSpec{PayloadWidth: 12}.Schema()
	for {
		tp, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, sc.Int(tp, 0))
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkSorted(t *testing.T, in *heap.File, got []int64) {
	t.Helper()
	var want []int64
	sc := in.Schema()
	in.Scan(simio.Uncharged, func(tp tuple.Tuple) bool {
		want = append(want, sc.Int(tp, 0))
		return true
	})
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestInMemorySort(t *testing.T) {
	f := makeFile(t, 200, 50, 1)
	s, stats, err := SortWith(f, Config{MemTuples: 1000, Prefix: "t", Input: simio.Uncharged})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.InMemory {
		t.Fatal("expected in-memory sort")
	}
	checkSorted(t, f, drain(t, s))
	// No temporary IO at all.
	if c := f.Disk().Clock().Counters(); c.SeqIOs != 0 || c.RandIOs != 0 {
		t.Fatalf("in-memory sort did IO: %+v", c)
	}
}

func TestExternalSortFormsRunsOfTwiceMemory(t *testing.T) {
	const n = 5000
	const mem = 250
	f := makeFile(t, n, 1<<40, 2)
	s, stats, err := SortWith(f, Config{MemTuples: mem, Prefix: "t", Input: simio.Uncharged})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, f, drain(t, s))
	// Replacement selection on random input yields runs averaging twice
	// the queue size [KNUT73], so about n/(2*mem) runs.
	want := float64(n) / (2 * mem)
	if got := float64(stats.Runs); got < want*0.7 || got > want*1.4 {
		t.Fatalf("formed %d runs, expected ≈%.0f (2x-memory runs)", stats.Runs, want)
	}
	if stats.MergePasses != 0 {
		t.Fatalf("unexpected merge passes: %d", stats.MergePasses)
	}
}

func TestSortedInputYieldsOneRun(t *testing.T) {
	// Replacement selection on already-sorted input produces a single run
	// regardless of memory size.
	clock := cost.NewClock(cost.DefaultParams())
	disk := simio.NewDisk(clock, 256)
	sc := workload.RelationSpec{PayloadWidth: 12}.Schema()
	f := heap.MustCreate(disk, "in", sc)
	for i := int64(0); i < 1000; i++ {
		f.Append(sc.MustEncode(tuple.IntValue(i), tuple.StringValue("x")), simio.Uncharged)
	}
	f.Flush(simio.Uncharged)
	_, stats, err := SortWith(f, Config{MemTuples: 10, Prefix: "t", Input: simio.Uncharged})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 1 {
		t.Fatalf("sorted input formed %d runs", stats.Runs)
	}
}

func TestBoundedFanoutTriggersMergePasses(t *testing.T) {
	f := makeFile(t, 4000, 1<<40, 3)
	s, stats, err := SortWith(f, Config{MemTuples: 50, MaxFanout: 4, Prefix: "t", Input: simio.Uncharged})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs <= 4 {
		t.Fatalf("want many initial runs, got %d", stats.Runs)
	}
	if stats.MergePasses == 0 {
		t.Fatal("expected intermediate merge passes with fanout 4")
	}
	if stats.FinalRuns > 4 {
		t.Fatalf("final merge over %d runs exceeds fanout", stats.FinalRuns)
	}
	checkSorted(t, f, drain(t, s))
}

func TestRunIOChargedSeqWriteRandRead(t *testing.T) {
	f := makeFile(t, 2000, 1<<40, 4)
	clock := f.Disk().Clock()
	clock.Reset()
	s, stats, err := SortWith(f, Config{MemTuples: 100, Prefix: "t", Input: simio.Uncharged})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InMemory {
		t.Fatal("expected external sort")
	}
	drain(t, s)
	c := clock.Counters()
	// Every run page is written once (seq) and read once (rand), §3.4.
	if c.SeqIOs == 0 || c.RandIOs == 0 {
		t.Fatalf("IO not charged: %+v", c)
	}
	if diff := c.SeqIOs - c.RandIOs; diff < -int64(stats.Runs) || diff > int64(stats.Runs) {
		t.Fatalf("write/read page counts diverge: %+v", c)
	}
	if c.Comps == 0 || c.Swaps == 0 {
		t.Fatalf("priority queue work not charged: %+v", c)
	}
}

func TestQuickSortEquivalence(t *testing.T) {
	f := func(seed int64, n16, mem8 uint8, dup bool) bool {
		n := int(n16)%300 + 2
		mem := int(mem8)%40 + 2
		domain := int64(1 << 40)
		if dup {
			domain = 7
		}
		file := makeFile(t, n, domain, seed)
		s, _, err := SortWith(file, Config{MemTuples: mem, MaxFanout: 8, Prefix: "q", Input: simio.Uncharged})
		if err != nil {
			t.Log(err)
			return false
		}
		got := drain(t, s)
		if len(got) != n {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

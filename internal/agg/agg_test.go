package agg

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

func env() *simio.Disk {
	return simio.NewDisk(cost.NewClock(cost.DefaultParams()), 256)
}

var aggSchema = tuple.MustSchema(
	tuple.Field{Name: "grp", Kind: tuple.Int64},
	tuple.Field{Name: "val", Kind: tuple.Int64},
)

func load(t testing.TB, disk *simio.Disk, name string, rows [][2]int64) *heap.File {
	t.Helper()
	f, err := heap.Create(disk, name, aggSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := f.Append(aggSchema.MustEncode(tuple.IntValue(r[0]), tuple.IntValue(r[1])), simio.Uncharged); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(simio.Uncharged); err != nil {
		t.Fatal(err)
	}
	return f
}

func oracle(rows [][2]int64) map[int64]Group {
	out := map[int64]Group{}
	for _, r := range rows {
		g, ok := out[r[0]]
		if !ok {
			g = Group{Key: tuple.IntValue(r[0]), Min: r[1], Max: r[1]}
		}
		g.Count++
		g.Sum += r[1]
		if r[1] < g.Min {
			g.Min = r[1]
		}
		if r[1] > g.Max {
			g.Max = r[1]
		}
		out[r[0]] = g
	}
	return out
}

func checkGroups(t *testing.T, got []Group, rows [][2]int64) {
	t.Helper()
	want := oracle(rows)
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for _, g := range got {
		w, ok := want[g.Key.I]
		if !ok {
			t.Fatalf("unexpected group %v", g.Key)
		}
		if g.Count != w.Count || g.Sum != w.Sum || g.Min != w.Min || g.Max != w.Max {
			t.Fatalf("group %v: got %+v want %+v", g.Key, g, w)
		}
	}
}

func TestOnePassAggregate(t *testing.T) {
	disk := env()
	rows := [][2]int64{{1, 10}, {2, 5}, {1, -3}, {3, 7}, {2, 5}}
	f := load(t, disk, "r", rows)
	res, err := Hash(Spec{Input: f, GroupCol: 0, ValueCol: 1, M: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 || res.Partitions != 0 {
		t.Fatalf("expected one pass, got %+v", res)
	}
	checkGroups(t, res.Groups, rows)
	// Derived aggregates.
	for _, g := range res.Groups {
		if g.Key.I == 1 {
			if g.Value(Avg) != 3.5 || g.Value(Count) != 2 || g.Value(Sum) != 7 ||
				g.Value(Min) != -3 || g.Value(Max) != 10 {
				t.Fatalf("derived values wrong: %+v", g)
			}
		}
	}
}

// TestGroupsInFirstAppearanceOrder: a one-pass aggregate returns its
// groups in the order their keys first appear in the input.
func TestGroupsInFirstAppearanceOrder(t *testing.T) {
	var rows [][2]int64
	for i := int64(0); i < 3000; i++ {
		rows = append(rows, [2]int64{(i * 7919) % 1000, i})
	}
	res, err := Hash(Spec{Input: load(t, env(), "r", rows), GroupCol: 0, ValueCol: 1, M: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Fatalf("expected one pass, got %d", res.Passes)
	}
	checkGroups(t, res.Groups, rows)
	for i, g := range res.Groups {
		if want := rows[i][0]; g.Key.I != want {
			t.Fatalf("group %d has key %d, want %d (first appearance)", i, g.Key.I, want)
		}
	}
}

func TestOverflowSpillsAndRecurses(t *testing.T) {
	disk := env()
	var rows [][2]int64
	for i := int64(0); i < 3000; i++ {
		rows = append(rows, [2]int64{i % 700, i})
	}
	f := load(t, disk, "r", rows)
	clock := disk.Clock()
	before := clock.Counters()
	res, err := Hash(Spec{Input: f, GroupCol: 0, ValueCol: 1, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes < 2 {
		t.Fatalf("expected spill passes, got %d", res.Passes)
	}
	delta := clock.Counters().Sub(before)
	if delta.SeqIOs+delta.RandIOs == 0 {
		t.Fatal("overflow did no IO")
	}
	// Pinned to what the stdlib-FNV hasher charged before it was replaced.
	if want := (cost.Counters{Comps: 2300, Hashes: 101500, Moves: 99200, SeqIOs: 13180}); delta != want || res.Passes != 70 {
		t.Fatalf("charges moved: passes %d (want 70)\ngot  %+v\nwant %+v", res.Passes, delta, want)
	}
	checkGroups(t, res.Groups, rows)
}

func TestSpecValidation(t *testing.T) {
	disk := env()
	f := load(t, disk, "r", [][2]int64{{1, 1}})
	bad := []Spec{
		{Input: nil, M: 8},
		{Input: f, GroupCol: 0, ValueCol: 9, M: 8},
		{Input: f, GroupCol: -1, ValueCol: 1, M: 8},
		{Input: f, GroupCol: 0, ValueCol: 1, M: 1},
	}
	for i, s := range bad {
		if _, err := Hash(s); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDistinctInt(t *testing.T) {
	disk := env()
	f := load(t, disk, "r", [][2]int64{{5, 0}, {3, 0}, {5, 0}, {9, 0}, {3, 0}})
	vals, err := Distinct(f, 0, 16, 1.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, v := range vals {
		got = append(got, v.I)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("distinct = %v", got)
	}
	// Pinned to what the stdlib-FNV hasher charged before it was replaced.
	if c, want := disk.Clock().Counters(), (cost.Counters{Comps: 2, Hashes: 5, Moves: 3}); c != want {
		t.Fatalf("charges moved:\ngot  %+v\nwant %+v", c, want)
	}
}

var strSchema = tuple.MustSchema(tuple.Field{Name: "s", Kind: tuple.String, Size: 8})

func loadStrings(t *testing.T, disk *simio.Disk, vals []string) *heap.File {
	t.Helper()
	f, err := heap.Create(disk, "s", strSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := f.Append(strSchema.MustEncode(tuple.StringValue(v)), simio.Uncharged); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(simio.Uncharged); err != nil {
		t.Fatal(err)
	}
	return f
}

// distinctSet runs Distinct and returns its values sorted, failing on a
// repeated value, with the counters the run charged.
func distinctSet(t *testing.T, f *heap.File, m, parallelism int) ([]string, cost.Counters) {
	t.Helper()
	clock := f.Disk().Clock()
	before := clock.Counters()
	vals, err := Distinct(f, 0, m, 1.2, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.S
	}
	sort.Strings(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			t.Fatalf("value %q returned twice", out[i])
		}
	}
	return out, clock.Counters().Sub(before)
}

func TestDistinctString(t *testing.T) {
	f := loadStrings(t, env(), []string{"b", "a", "b", "c", "a"})
	got, _ := distinctSet(t, f, 16, 1)
	if want := []string{"a", "b", "c"}; !slices.Equal(got, want) {
		t.Fatalf("distinct strings = %v, want %v", got, want)
	}
}

// spillStrings is 1 200 rows over 100 distinct strings: 100 value cells
// fit a 64-page grant of 256-byte pages, and overflow a 2-page one.
func spillStrings() []string {
	vals := make([]string, 1200)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%03d", (i*37)%100)
	}
	return vals
}

// TestDistinctStringFitsGrant pins what a string DISTINCT whose values fit
// the grant charges: one hash per row, one comparison per repeated value
// and one move per distinct value, with no partition IO.
func TestDistinctStringFitsGrant(t *testing.T) {
	f := loadStrings(t, env(), spillStrings())
	got, c := distinctSet(t, f, 64, 1)
	if len(got) != 100 {
		t.Fatalf("%d distinct values, want 100", len(got))
	}
	if want := (cost.Counters{Comps: 1100, Hashes: 1200, Moves: 100}); c != want {
		t.Fatalf("charges moved:\ngot  %+v\nwant %+v", c, want)
	}
}

// TestDistinctStringSpills holds a string DISTINCT to a 2-page grant: the
// values that do not fit go to hash partitions, which costs partition IO,
// and the value set is the one the fitting run returns at every width.
func TestDistinctStringSpills(t *testing.T) {
	want, _ := distinctSet(t, loadStrings(t, env(), spillStrings()), 64, 1)
	for _, width := range []int{1, 4} {
		got, c := distinctSet(t, loadStrings(t, env(), spillStrings()), 2, width)
		if !slices.Equal(got, want) {
			t.Fatalf("width %d: spilled distinct = %v, want %v", width, got, want)
		}
		if c.SeqIOs+c.RandIOs == 0 {
			t.Fatalf("width %d: a 2-page grant charged no partition IO: %+v", width, c)
		}
	}
}

// TestQuickAggEqualsOracle: for random rows and tight memory, the hash
// aggregate (possibly spilling) equals the map oracle.
func TestQuickAggEqualsOracle(t *testing.T) {
	f := func(seed int64, n16 uint16, keys8, m8 uint8) bool {
		n := int(n16)%800 + 1
		keys := int64(keys8)%80 + 1
		m := int(m8)%8 + 2
		rows := make([][2]int64, n)
		s := seed
		for i := range rows {
			s = s*6364136223846793005 + 1442695040888963407
			rows[i] = [2]int64{(s >> 3) % keys, (s >> 7) % 1000}
			if rows[i][0] < 0 {
				rows[i][0] = -rows[i][0]
			}
		}
		disk := env()
		file := load(t, disk, "q", rows)
		res, err := Hash(Spec{Input: file, GroupCol: 0, ValueCol: 1, M: m})
		if err != nil {
			t.Log(err)
			return false
		}
		want := oracle(rows)
		if len(res.Groups) != len(want) {
			return false
		}
		for _, g := range res.Groups {
			w := want[g.Key.I]
			if g.Count != w.Count || g.Sum != w.Sum || g.Min != w.Min || g.Max != w.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

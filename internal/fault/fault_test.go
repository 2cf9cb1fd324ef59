package fault

import (
	"errors"
	"testing"
	"time"

	"mmdb/internal/cost"
	"mmdb/internal/simio"
	"mmdb/internal/wal"
)

func newDisk() (*simio.Disk, *cost.Clock) {
	clock := cost.NewClock(cost.DefaultParams())
	return simio.NewDisk(clock, 64), clock
}

func TestTaxonomyWrapsInjected(t *testing.T) {
	for _, err := range []error{ErrTransient, ErrPermanent} {
		if !errors.Is(err, simio.ErrInjected) {
			t.Errorf("%v does not wrap simio.ErrInjected", err)
		}
	}
	if errors.Is(ErrTransient, ErrPermanent) || errors.Is(ErrPermanent, ErrTransient) {
		t.Error("transient and permanent must be distinct")
	}
}

func TestTransientEveryFailsThenSucceeds(t *testing.T) {
	disk, _ := newDisk()
	disk.SetInjector(NewInjector(1).TransientEvery("", 3))
	sp := disk.MustCreate("t")
	var fails, oks int
	for i := 0; i < 12; i++ {
		if _, err := sp.Append([]byte{byte(i)}, simio.Seq); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("IO %d: %v is not transient", i, err)
			}
			fails++
		} else {
			oks++
		}
	}
	if fails != 4 || oks != 8 {
		t.Fatalf("every-3rd schedule over 12 IOs: %d failures, %d successes", fails, oks)
	}
}

func TestRetryAbsorbsTransientsChargesBackoff(t *testing.T) {
	disk, clock := newDisk()
	disk.SetInjector(NewInjector(1).TransientEvery("", 2)) // every 2nd IO fails
	sp := disk.MustCreate("t")
	for i := 0; i < 6; i++ {
		err := Retry(clock, 0, func() error {
			_, e := sp.Append([]byte{byte(i)}, simio.Seq)
			return e
		})
		if err != nil {
			t.Fatalf("append %d not absorbed: %v", i, err)
		}
	}
	// Every 2nd underlying IO fails, so each logical append alternates
	// between clean and fail-once-then-succeed; backoff charges land on
	// the clock as extra sequential IOs.
	c := clock.Counters()
	if c.SeqIOs <= 6 {
		t.Fatalf("expected retry+backoff charges beyond the 6 clean IOs, got %d", c.SeqIOs)
	}
}

func TestRetryFailsFastOnPermanent(t *testing.T) {
	disk, clock := newDisk()
	disk.SetInjector(NewInjector(1).PermanentAfter("", 2))
	sp := disk.MustCreate("t")
	for i := 0; i < 2; i++ {
		if _, err := sp.Append([]byte{1}, simio.Seq); err != nil {
			t.Fatalf("IO %d within budget failed: %v", i, err)
		}
	}
	attempts := 0
	err := Retry(clock, 0, func() error {
		attempts++
		_, e := sp.Append([]byte{1}, simio.Seq)
		return e
	})
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("want permanent failure, got %v", err)
	}
	if attempts != 1 {
		t.Fatalf("permanent fault retried %d times; must fail fast", attempts)
	}
}

func TestTransientBurstExhaustsBoundedRetry(t *testing.T) {
	disk, clock := newDisk()
	// A burst longer than the retry budget: 1 first try + 4 retries all hit
	// the burst, the 6th underlying attempt would succeed but is never made.
	disk.SetInjector(NewInjector(1).TransientBurst("", 1, 10))
	sp := disk.MustCreate("t")
	attempts := 0
	err := Retry(clock, 4, func() error {
		attempts++
		_, e := sp.Append([]byte{1}, simio.Seq)
		return e
	})
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want exhausted transient, got %v", err)
	}
	if attempts != 5 {
		t.Fatalf("bounded retry made %d attempts, want 5", attempts)
	}
}

func TestStallInflatesCounters(t *testing.T) {
	disk, clock := newDisk()
	disk.SetInjector(NewInjector(1).StallEvery("hot", 1, 5))
	hot := disk.MustCreate("hot")
	cold := disk.MustCreate("cold")
	if _, err := cold.Append([]byte{1}, simio.Rand); err != nil {
		t.Fatal(err)
	}
	base := clock.Counters().RandIOs
	if base != 1 {
		t.Fatalf("cold IO charged %d", base)
	}
	if _, err := hot.Append([]byte{1}, simio.Rand); err != nil {
		t.Fatal(err)
	}
	if got := clock.Counters().RandIOs - base; got != 6 {
		t.Fatalf("stalled IO charged %d rand IOs, want 1+5", got)
	}
}

func TestScopePrefixMatching(t *testing.T) {
	disk, _ := newDisk()
	disk.SetInjector(NewInjector(1).PermanentAfter("spill:", 0))
	spill := disk.MustCreate("spill:r:0")
	other := disk.MustCreate("base")
	if _, err := spill.Append([]byte{1}, simio.Seq); !errors.Is(err, ErrPermanent) {
		t.Fatalf("scoped rule missed prefixed space: %v", err)
	}
	if _, err := other.Append([]byte{1}, simio.Seq); err != nil {
		t.Fatalf("scoped rule leaked onto other space: %v", err)
	}
}

func TestProbabilisticScheduleIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		disk, _ := newDisk()
		disk.SetInjector(NewInjector(seed).TransientProb("", 0.3))
		sp := disk.MustCreate("t")
		var verdicts []bool
		for i := 0; i < 64; i++ {
			_, err := sp.Append([]byte{byte(i)}, simio.Seq)
			verdicts = append(verdicts, err != nil)
		}
		return verdicts
	}
	a, b, c := run(7), run(7), run(8)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different verdict sequences")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical verdict sequences (suspicious)")
	}
}

func TestPageWriteTransientRetriedInDevice(t *testing.T) {
	dev := wal.NewDevice("log", 10*time.Millisecond)
	dev.Injector = NewInjector(1).TransientEvery("log", 2)
	t1, ok := dev.Write(0, make([]byte, 8))
	if !ok || t1 != 10*time.Millisecond {
		t.Fatalf("clean write: %v %v", t1, ok)
	}
	// 2nd write hits one transient: service + backoff(5ms) + service.
	t2, ok := dev.Write(t1, make([]byte, 8))
	if !ok {
		t.Fatal("transient write fault must be absorbed by device retry")
	}
	if want := t1 + 25*time.Millisecond; t2 != want {
		t.Fatalf("retried write done at %v, want %v", t2, want)
	}
	if dev.WriteRetries() != 1 {
		t.Fatalf("retries = %d", dev.WriteRetries())
	}
}

// durablePages flattens a log device's crash view at t into its page
// images, in write order.
func durablePages(d *wal.Device, t time.Duration) [][]byte {
	var out [][]byte
	for _, s := range d.DurableSegments(t).Segments {
		out = append(out, s.Pages...)
	}
	return out
}

func TestPageWritePermanentKillsDevice(t *testing.T) {
	dev := wal.NewDevice("log", 10*time.Millisecond)
	dev.EnableSegments(64)
	dev.Injector = NewInjector(1).PermanentAfter("log", 1)
	if _, ok := dev.Write(0, []byte{1}); !ok {
		t.Fatal("first write should succeed")
	}
	if _, ok := dev.Write(0, []byte{2}); ok {
		t.Fatal("write past permanent failure succeeded")
	}
	if !dev.Failed() {
		t.Fatal("device not marked failed")
	}
	if _, ok := dev.Write(0, []byte{3}); ok {
		t.Fatal("dead device accepted a write")
	}
	if got := len(durablePages(dev, time.Hour)); got != 1 {
		t.Fatalf("durable pages after death: %d, want 1", got)
	}
}

func TestTornWriteExposesChecksummedPrefix(t *testing.T) {
	recs := []wal.Record{
		{LSN: 1, Txn: 1, Type: wal.Begin},
		{LSN: 2, Txn: 1, Type: wal.Update, Rec: 7, Old: []byte("old"), New: []byte("new")},
		{LSN: 3, Txn: 1, Type: wal.Commit},
	}
	img, err := wal.EncodePage(recs, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Tear inside the second record: only LSN 1 survives intact.
	cut := recs[0].EncodedSize() + 10

	dev := wal.NewDevice("log", 10*time.Millisecond)
	dev.EnableSegments(64)
	dev.ExposeTorn = true
	dev.Injector = NewInjector(1).TornEvery("log", 1, cut)
	if _, ok := dev.Write(0, img); ok {
		t.Fatal("torn write acknowledged")
	}
	if !dev.Failed() {
		t.Fatal("torn write must kill the device (log broken at this page)")
	}
	pages := durablePages(dev, time.Hour)
	if len(pages) != 1 || len(pages[0]) != cut {
		t.Fatalf("torn exposure: %d pages", len(pages))
	}
	got, intact := wal.DecodePageTail(pages[0])
	if intact {
		t.Fatal("torn page decoded as intact")
	}
	if len(got) != 1 || got[0].LSN != 1 {
		t.Fatalf("decoded %d records from torn prefix", len(got))
	}

	// Without ExposeTorn the page vanishes entirely.
	dev2 := wal.NewDevice("log", 10*time.Millisecond)
	dev2.EnableSegments(64)
	dev2.Injector = NewInjector(1).TornEvery("log", 1, cut)
	dev2.Write(0, img)
	if got := len(durablePages(dev2, time.Hour)); got != 0 {
		t.Fatalf("hidden torn page surfaced: %d", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	disk, _ := newDisk()
	inj := NewInjector(1).TransientEvery("", 2).StallEvery("", 3, 2)
	disk.SetInjector(inj)
	sp := disk.MustCreate("t")
	for i := 0; i < 6; i++ {
		sp.Append([]byte{1}, simio.Seq) //nolint:errcheck — verdicts counted via stats
	}
	s := inj.Stats()
	if s.Consulted != 6 || s.Transient != 3 || s.Stalled != 4 {
		t.Fatalf("stats %+v", s)
	}
}

// TestTransientAtFiresExactlyOnce verifies the one-shot burst: operations
// at..at+burst-1 fail, everything before and after succeeds, and the rule
// never rearms no matter how far the count runs.
func TestTransientAtFiresExactlyOnce(t *testing.T) {
	disk, _ := newDisk()
	inj := NewInjector(1).TransientAt("t", 4, 3)
	disk.SetInjector(inj)
	sp := disk.MustCreate("t")
	var failed []int
	for i := 1; i <= 20; i++ {
		if _, err := sp.Append([]byte{1}, simio.Seq); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("op %d: wrong taxonomy: %v", i, err)
			}
			failed = append(failed, i)
		}
	}
	want := []int{4, 5, 6}
	if len(failed) != len(want) {
		t.Fatalf("failed ops %v, want %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("failed ops %v, want %v", failed, want)
		}
	}
	if s := inj.Stats(); s.Transient != 3 {
		t.Fatalf("stats %+v, want 3 transients", s)
	}
}

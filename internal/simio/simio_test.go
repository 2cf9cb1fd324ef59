package simio

import (
	"testing"

	"mmdb/internal/cost"
)

func newDisk() (*Disk, *cost.Clock) {
	clock := cost.NewClock(cost.DefaultParams())
	return NewDisk(clock, 256), clock
}

func TestCreateOpenRemove(t *testing.T) {
	d, _ := newDisk()
	s, err := d.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("a"); err == nil {
		t.Fatal("duplicate create accepted")
	}
	got, err := d.Open("a")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Open returns a fresh handle sharing the same page storage.
	if got.data != s.data || got.Name() != s.Name() {
		t.Fatalf("open returned a handle on different storage")
	}
	if _, err := d.Open("missing"); err == nil {
		t.Fatal("open of missing space succeeded")
	}
	d.MustCreate("b")
	if names := d.Spaces(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("spaces = %v", names)
	}
	d.Remove("a")
	if _, err := d.Open("a"); err == nil {
		t.Fatal("removed space still opens")
	}
}

func TestReadWriteRoundTripAndPadding(t *testing.T) {
	d, _ := newDisk()
	s := d.MustCreate("x")
	n, err := s.Append([]byte("hello"), Uncharged)
	if err != nil || n != 0 {
		t.Fatalf("append: %d %v", n, err)
	}
	data, err := s.Read(0, Uncharged)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 256 || string(data[:5]) != "hello" || data[5] != 0 {
		t.Fatalf("read back %q", data[:8])
	}
	// Overwrite with shorter data zero-pads the remainder. Read hands out
	// the stored image, so the write shows through the earlier read.
	if err := s.Write(0, []byte("hi"), Uncharged); err != nil {
		t.Fatal(err)
	}
	if string(data[:2]) != "hi" || data[2] != 0 {
		t.Fatalf("overwrite produced %q through the earlier read", data[:8])
	}
	if again, _ := s.Read(0, Uncharged); &again[0] != &data[0] {
		t.Fatal("Read returned a copy, not the stored page")
	}
	if err := s.WriteAt(0, 1, []byte("o"), Uncharged); err != nil {
		t.Fatal(err)
	}
	if string(data[:3]) != "ho\x00" {
		t.Fatalf("WriteAt produced %q through the earlier read", data[:8])
	}
}

func TestBoundsAndOversize(t *testing.T) {
	d, _ := newDisk()
	s := d.MustCreate("x")
	if _, err := s.Read(0, Uncharged); err == nil {
		t.Fatal("read of missing page succeeded")
	}
	if err := s.Write(3, nil, Uncharged); err == nil {
		t.Fatal("write of missing page succeeded")
	}
	if _, err := s.Append(make([]byte, 300), Uncharged); err == nil {
		t.Fatal("oversized append accepted")
	}
}

func TestAccessCharging(t *testing.T) {
	d, clock := newDisk()
	s := d.MustCreate("x")
	s.Append([]byte("a"), Seq)
	s.Append([]byte("b"), Rand)
	s.Read(0, Seq)
	s.Read(1, Uncharged)
	c := clock.Counters()
	if c.SeqIOs != 2 || c.RandIOs != 1 {
		t.Fatalf("counters = %+v", c)
	}
	p := clock.Params()
	want := 2*p.IOSeq + p.IORand
	if clock.Now() != want {
		t.Fatalf("virtual time %v, want %v", clock.Now(), want)
	}
}

func TestTruncate(t *testing.T) {
	d, _ := newDisk()
	s := d.MustCreate("x")
	s.Append([]byte("a"), Uncharged)
	s.Truncate()
	if s.NumPages() != 0 {
		t.Fatal("truncate left pages")
	}
}

func TestAccessString(t *testing.T) {
	if Seq.String() != "seq" || Rand.String() != "rand" || Uncharged.String() != "uncharged" {
		t.Fatal("Access.String broken")
	}
}

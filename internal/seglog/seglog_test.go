package seglog

import (
	"testing"
	"time"
)

const ms = time.Millisecond

func TestCommitPosRoundTrip(t *testing.T) {
	p := CommitPos{Epoch: 7, Seg: 3, Off: 5, Durable: 991, Horizon: 800}
	buf := EncodeCommitPos(p)
	got, ok := DecodeCommitPos(buf)
	if !ok || got != p {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, p)
	}
	// Any torn prefix must fail the CRC frame.
	for n := 0; n < len(buf); n++ {
		if _, ok := DecodeCommitPos(buf[:n]); ok {
			t.Fatalf("torn prefix of %d bytes decoded as valid", n)
		}
	}
	// A flipped byte must fail too.
	buf[12] ^= 0xff
	if _, ok := DecodeCommitPos(buf); ok {
		t.Fatal("corrupt image decoded as valid")
	}
}

func TestSegmentNamingDisjointAcrossDevices(t *testing.T) {
	// log1 is a name-prefix of log10; the "/" separator must keep their
	// segment and meta namespaces disjoint.
	a := SegmentSpace("log1", 0)
	b := SegmentSpace("log10", 0)
	if a == b {
		t.Fatalf("colliding segment names: %q", a)
	}
	if a != "log1/seg-000000" || b != "log10/seg-000000" {
		t.Fatalf("unexpected names %q %q", a, b)
	}
	if MetaSpace("log1") == MetaSpace("log10") {
		t.Fatal("colliding meta names")
	}
	// No segment space of log10 may start with log1's directory prefix
	// in a way that a per-device listing would pick up.
	if got := SegmentSpace("log10", 3); got[:6] == "log1/s" {
		t.Fatalf("log10 segment %q falls inside log1/", got)
	}
}

// appendN appends n one-page writes of 8 bytes each, 10ms apart, each
// carrying a single LSN, starting at lsn0.
func appendN(d *Dir, n int, lsn0 uint64, t0 time.Duration) {
	for i := 0; i < n; i++ {
		start := t0 + time.Duration(i)*10*ms
		img := make([]byte, 8)
		img[0] = byte(lsn0 + uint64(i))
		d.Append(img, lsn0+uint64(i), lsn0+uint64(i), start, start+10*ms, 0, false)
	}
}

func TestRotationAndDurableView(t *testing.T) {
	d := NewDir("log0", 2, 10*ms)
	appendN(d, 5, 1, 0) // segments: [1,2] [3,4] [5...]
	if got := len(d.RotationWindows()); got != 2 {
		t.Fatalf("rotations = %d, want 2", got)
	}
	v := d.DurableView(1*time.Second, false)
	if len(v.Segments) != 3 {
		t.Fatalf("segments = %d, want 3", len(v.Segments))
	}
	if v.Segments[0].FirstLSN != 1 || v.Segments[0].LastLSN != 2 ||
		v.Segments[2].FirstLSN != 5 || v.Segments[2].LastLSN != 5 {
		t.Fatalf("LSN tags wrong: %+v", v.Segments)
	}

	// Crash while page 3 (LSN 3, the first page of segment 1 — a rotation)
	// is mid-write: without torn exposure the log ends at LSN 2.
	v = d.DurableView(25*ms, false)
	if len(v.Segments) != 1 || v.Segments[0].LastLSN != 2 {
		t.Fatalf("mid-rotation crash view = %+v, want only seg0 (LSN 1-2)", v.Segments)
	}
	// With exposure the torn prefix of the rotated page appears, marked.
	v = d.DurableView(25*ms, true)
	if len(v.Segments) != 2 || !v.Segments[1].Torn {
		t.Fatalf("mid-rotation exposed view = %+v, want torn seg1", v.Segments)
	}
}

func TestDurableViewCutsAtLostPage(t *testing.T) {
	d := NewDir("log0", 4, 10*ms)
	appendN(d, 2, 1, 0)
	d.Append([]byte{9}, 3, 3, 20*ms, 0, 0, true) // lost write (device death)
	appendN(d, 1, 4, 30*ms)                      // issued after death; same segment
	v := d.DurableView(1*time.Second, false)
	if len(v.Segments) != 1 || v.Segments[0].LastLSN != 2 {
		t.Fatalf("view past lost page: %+v", v.Segments)
	}
}

func TestPublishAndMetaArbitration(t *testing.T) {
	d := NewDir("log0", 2, 10*ms)
	appendN(d, 4, 1, 0)
	d.Publish(25*ms, 2) // durable: pages with done<=25ms => LSNs 1,2
	v := d.DurableView(40*ms, false)
	if !v.HavePos {
		t.Fatal("no meta after publish")
	}
	if v.Pos.Durable != 2 || v.Pos.Horizon != 2 || v.Pos.Seg != 0 || v.Pos.Off != 2 {
		t.Fatalf("pos = %+v", v.Pos)
	}

	// Second publish goes to the other slot; a crash mid-rewrite must fall
	// back to the first slot's older position.
	d.Publish(45*ms, 4)
	w := d.MetaWindows()
	if len(w) != 2 {
		t.Fatalf("meta windows = %d, want 2", len(w))
	}
	mid := w[1].Start + (w[1].Done-w[1].Start)/2
	v = d.DurableView(mid, false)
	if !v.HavePos || v.Pos.Epoch != 1 || v.Pos.Horizon != 2 {
		t.Fatalf("mid-rewrite arbitration: %+v have=%v, want epoch1 horizon2", v.Pos, v.HavePos)
	}
	// After the rewrite completes the newer epoch wins.
	v = d.DurableView(w[1].Done+ms, false)
	if v.Pos.Epoch != 2 || v.Pos.Horizon != 4 {
		t.Fatalf("post-rewrite pos = %+v", v.Pos)
	}
	// Identical content must not be rewritten.
	d.Publish(200*ms, 4)
	if got := len(d.MetaWindows()); got != 3 {
		// durable frontier advanced between the publishes, so a third write
		// is legitimate; but a fourth with nothing new must not appear.
		d.Publish(210*ms, 4)
		if again := len(d.MetaWindows()); again != got {
			t.Fatalf("identical publish rewrote meta: %d -> %d", got, again)
		}
	}
}

func TestDeleteBelow(t *testing.T) {
	d := NewDir("log0", 2, 10*ms)
	appendN(d, 6, 1, 0) // segs [1,2] [3,4] [5,6]
	// Horizon 4: only segment 0 (LSNs 1-2) qualifies; segment 1 holds LSN 4.
	segs, bytes := d.DeleteBelow(1*time.Second, 4)
	if segs != 1 || bytes != 16 {
		t.Fatalf("DeleteBelow(4) = %d segs %d bytes, want 1, 16", segs, bytes)
	}
	v := d.DurableView(1*time.Second, false)
	if len(v.Segments) != 2 || v.Segments[0].Index != 1 {
		t.Fatalf("post-delete view: %+v", v.Segments)
	}
	// Nothing was ever published, yet the view must carry the horizon the
	// deletion relied on: a segment is unlinked only after it is durable.
	if !v.HavePos || v.Pos.Horizon != 4 {
		t.Fatalf("post-delete view horizon = %d (have=%v), want 4", v.Pos.Horizon, v.HavePos)
	}
	// Horizon 7 would cover the tail, but the tail is never deleted... the
	// last segment [5,6] is full, so it IS deletable; only a non-full tail
	// survives. Check that a non-durable segment is not deleted.
	segs, _ = d.DeleteBelow(35*ms, 7) // at 35ms only seg1's first page (LSN 3) is durable
	if segs != 0 {
		t.Fatalf("deleted %d non-durable segments", segs)
	}
	st := d.Stats()
	if st.SegmentsDeleted != 1 || st.SegmentsCreated != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCompactionLifecycle(t *testing.T) {
	d := NewDir("log0", 2, 10*ms)
	appendN(d, 6, 1, 0) // segs 0,1 full + tail seg 2
	c, ok := d.CompactCandidate(1*time.Second, 5, 2)
	if !ok || c.First != 0 || c.Last != 1 || len(c.Pages) != 4 {
		t.Fatalf("candidate = %+v ok=%v", c, ok)
	}
	done := d.BeginCompaction(c, 1*time.Second, 1)
	if done != 1*time.Second+10*ms {
		t.Fatalf("done = %v", done)
	}
	// While compacting, truncation must not delete the pinned range.
	if segs, _ := d.DeleteBelow(2*time.Second, 100); segs != 0 {
		t.Fatalf("truncation deleted pinned segments: %d", segs)
	}
	// A crash before install sees the original segments.
	v := d.DurableView(done-ms, false)
	if len(v.Segments) != 3 || v.CompactedBytes != 0 {
		t.Fatalf("pre-install view: %d segs, %d compacted bytes", len(v.Segments), v.CompactedBytes)
	}
	d.CommitCompaction(c.First, c.Last, []PageData{{Img: []byte{42, 42}, FirstLSN: 2, LastLSN: 4}}, done)
	v = d.DurableView(done+ms, false)
	if len(v.Segments) != 2 || v.Segments[0].Index != 0 || len(v.Segments[0].Pages) != 1 {
		t.Fatalf("post-install view: %+v", v.Segments)
	}
	if v.CompactedBytes != 4*8-2 {
		t.Fatalf("compacted bytes = %d, want 30", v.CompactedBytes)
	}
	// No further candidate: the replacement is marked compacted and the
	// tail is excluded.
	if _, ok := d.CompactCandidate(2*time.Second, 100, 2); ok {
		t.Fatal("re-offered compacted run")
	}
}

func TestAbortCompactionMarksConsidered(t *testing.T) {
	d := NewDir("log0", 2, 10*ms)
	appendN(d, 6, 1, 0)
	c, ok := d.CompactCandidate(1*time.Second, 5, 2)
	if !ok {
		t.Fatal("no candidate")
	}
	d.BeginCompaction(c, 1*time.Second, 2)
	d.AbortCompaction(c.First, c.Last)
	if _, ok := d.CompactCandidate(2*time.Second, 5, 2); ok {
		t.Fatal("aborted run re-offered")
	}
	// And truncation works again after the abort.
	if segs, _ := d.DeleteBelow(2*time.Second, 5); segs != 2 {
		t.Fatal("truncation still pinned after abort")
	}
}

// TestMetaQueuedRewriteKeepsFinishedImage: a rewrite queued behind the
// meta lane is not on the medium until it starts, so it must not hide the
// finished image its slot still holds. At a crash time t a slot holds the
// last rewrite that started on it before t, torn if it had not finished.
func TestMetaQueuedRewriteKeepsFinishedImage(t *testing.T) {
	for _, tc := range []struct {
		publishes int
		crash     time.Duration
		want      uint64 // epoch
	}{
		// Epoch 1 on slot 1 over [25,35] ms, epoch 2 on slot 0 over
		// [35,45] ms (torn at 40), epoch 3 queued on slot 1 for [45,55] ms.
		{3, 40 * ms, 1},
		// Epochs 1–5 over [25,75] ms: at 60 ms epoch 4 (slot 0) is torn,
		// epoch 3 (slot 1) finished at 55 ms, epoch 5 has not started.
		{5, 60 * ms, 3},
	} {
		d := NewDir("log0", 2, 10*ms)
		appendN(d, 4, 1, 0)
		for i := 0; i < tc.publishes; i++ {
			d.Publish(time.Duration(25+i)*ms, uint64(i+1))
		}
		v := d.DurableView(tc.crash, false)
		if !v.HavePos || v.Pos.Epoch != tc.want || v.Pos.Horizon != tc.want {
			t.Errorf("%d publishes, crash at %v: pos %+v have=%v, want epoch and horizon %d",
				tc.publishes, tc.crash, v.Pos, v.HavePos, tc.want)
		}
	}
}

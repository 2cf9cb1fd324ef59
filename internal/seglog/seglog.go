// Package seglog arranges one log device's page writes into a sequence of
// bounded segment files plus a dual-slot, CRC-framed commit.meta recording
// the durable {segment, offset, LSN} horizon (§5.5/§5.6 of the paper;
// the seg/commit.meta contract of real segmented WALs adapted to simulated
// devices).
//
// Each device owns its own directory: segment spaces are named
// "<device>/seg-NNNNNN" with a "/" separator, so devices log0 and log10
// can never collide or interleave files (a bare prefix match on "log1"
// would also match "log10"). Checkpoint truncation deletes whole segments
// instead of compacting in place, and a background compactor (driven by
// the wal layer) rewrites cold segments keeping only the newest committed
// value per record slot.
package seglog

import (
	"fmt"
	"sort"
	"time"
)

// SegmentSpace names the simio space of one segment file. The "/"
// separator is load-bearing: it keeps device namespaces disjoint even
// when one device name is a prefix of another (log1 vs log10).
func SegmentSpace(device string, index uint64) string {
	return fmt.Sprintf("%s/seg-%06d", device, index)
}

// MetaSpace names the device's commit.meta file.
func MetaSpace(device string) string { return device + "/commit.meta" }

// Window is a virtual-time interval during which a write was in flight —
// exposed so chaos tests can aim crashes at segment rotations, commit.meta
// rewrites, and compaction installs.
type Window struct {
	Start time.Duration
	Done  time.Duration
}

// PageData is one page image tagged with the LSN range of the records it
// carries.
type PageData struct {
	Img      []byte
	FirstLSN uint64
	LastLSN  uint64
}

// segPage mirrors the wal device's page bookkeeping inside a segment.
type segPage struct {
	img      []byte
	firstLSN uint64
	lastLSN  uint64
	start    time.Duration
	done     time.Duration
	torn     int  // >0: only this prefix reached the medium
	lost     bool // the write never completed
}

type segment struct {
	index      uint64
	pages      []segPage
	full       bool // rotated away: no further appends
	compacted  bool // produced by (or already considered for) compaction
	compacting bool // an in-flight compaction run covers this segment
}

func (s *segment) bytes() int64 {
	var n int64
	for _, p := range s.pages {
		n += int64(len(p.img))
	}
	return n
}

// Stats counts directory activity.
type Stats struct {
	SegmentsCreated int64
	SegmentsDeleted int64
	DeletedBytes    int64
	Compactions     int64 // completed compaction runs
	CompactedBytes  int64 // bytes reclaimed by completed compactions
	MetaWrites      int64
}

// compaction is one in-flight or completed compactor run.
type compaction struct {
	first, last uint64 // inclusive segment index range being replaced
	start, done time.Duration
	saved       int64
	installed   bool
}

// Dir is the segment directory of one log device. All methods must be
// called from the simulator's event goroutine; views taken at a crash
// instant t reconstruct exactly what the medium held at t.
type Dir struct {
	device    string
	segPages  int
	writeTime time.Duration // meta/compaction lane service time per page

	segs      []*segment
	nextIndex uint64
	meta      metaState
	// unlinkedBelow is the highest truncation LSN that actually deleted a
	// segment. A segment file is unlinked only after the commit.meta
	// horizon covering it is durable, so a crash view never shows the
	// deletion without at least this horizon (see DurableView).
	unlinkedBelow uint64

	rotations []Window
	compBusy  time.Duration
	comps     []*compaction
	stats     Stats
}

// NewDir creates the directory for a device whose segments hold
// segmentPages page images each. writeTime is the service time of one
// page-sized write on the device's metadata/compaction lane.
func NewDir(device string, segmentPages int, writeTime time.Duration) *Dir {
	if segmentPages < 1 {
		segmentPages = 1
	}
	return &Dir{device: device, segPages: segmentPages, writeTime: writeTime}
}

// Stats returns a snapshot of directory statistics.
func (d *Dir) Stats() Stats { return d.stats }

// Append records one device page write into the current segment, rotating
// to a fresh segment when the current one is full. Rotation is
// torn-write-safe by construction: a segment's first page is an ordinary
// logged page write — if it tears, the per-record CRCs cut the log there
// and the previous segments are untouched. The directory retains img as
// the medium's only copy of the page; the caller must not modify it
// afterwards.
func (d *Dir) Append(img []byte, firstLSN, lastLSN uint64, start, done time.Duration, torn int, lost bool) {
	cur := d.tail()
	if cur == nil || cur.full || len(cur.pages) >= d.segPages {
		if cur != nil {
			cur.full = true
		}
		cur = &segment{index: d.nextIndex}
		d.nextIndex++
		d.segs = append(d.segs, cur)
		d.stats.SegmentsCreated++
		if cur.index > 0 {
			d.rotations = append(d.rotations, Window{Start: start, Done: done})
		}
	}
	cur.pages = append(cur.pages, segPage{
		img: img, firstLSN: firstLSN, lastLSN: lastLSN,
		start: start, done: done, torn: torn, lost: lost,
	})
	if len(cur.pages) >= d.segPages {
		cur.full = true
	}
}

func (d *Dir) tail() *segment {
	if len(d.segs) == 0 {
		return nil
	}
	return d.segs[len(d.segs)-1]
}

// durablePos computes the durable frontier at time now: the last page
// whose write completed, walking segments in order (device page writes
// are FIFO, so completion is a prefix).
func (d *Dir) durablePos(now time.Duration) (seg, off, lsn uint64) {
	if len(d.segs) > 0 {
		seg = d.segs[0].index
	}
	for _, s := range d.segs {
		n := 0
		for _, p := range s.pages {
			if p.lost || p.done > now {
				break
			}
			n++
			lsn = p.lastLSN
		}
		if n > 0 {
			seg, off = s.index, uint64(n)
		}
		if n < len(s.pages) {
			return seg, off, lsn
		}
	}
	return seg, off, lsn
}

// Publish issues a commit.meta rewrite recording the durable frontier at
// now and the engine's current truncation horizon. Identical content is
// not rewritten. The two slots alternate, so a crash mid-rewrite always
// leaves the other slot's older (and still safe: Horizon only grows)
// position intact.
func (d *Dir) Publish(now time.Duration, horizon uint64) {
	seg, off, lsn := d.durablePos(now)
	d.meta.publish(now, CommitPos{Seg: seg, Off: off, Durable: lsn, Horizon: horizon}, d.writeTime)
	d.stats.MetaWrites = int64(len(d.meta.writes))
}

// DeleteBelow deletes leading segments that are full, fully durable by
// now, and whose every record falls below lsn — checkpoint truncation as
// segment-file deletion. Segments covered by an in-flight compaction are
// left for the compactor. It returns the segments and bytes reclaimed.
func (d *Dir) DeleteBelow(now time.Duration, lsn uint64) (segsDeleted int, bytesDeleted int64) {
	i := 0
	for i < len(d.segs) {
		s := d.segs[i]
		if s.compacting || !s.full || !d.segDurable(s, now) || !d.segBelow(s, lsn) {
			break
		}
		segsDeleted++
		bytesDeleted += s.bytes()
		i++
	}
	if i > 0 {
		d.segs = append([]*segment(nil), d.segs[i:]...)
		d.stats.SegmentsDeleted += int64(segsDeleted)
		d.stats.DeletedBytes += bytesDeleted
		if lsn > d.unlinkedBelow {
			d.unlinkedBelow = lsn
		}
	}
	return segsDeleted, bytesDeleted
}

func (d *Dir) segDurable(s *segment, now time.Duration) bool {
	for _, p := range s.pages {
		if p.lost || p.done > now {
			return false
		}
	}
	return true
}

func (d *Dir) segBelow(s *segment, lsn uint64) bool {
	for _, p := range s.pages {
		if p.lastLSN >= lsn {
			return false
		}
	}
	return true
}

// --- compaction support (driven by the wal layer's compactor) ---

// Candidate is a run of cold segments eligible for compaction: full,
// fully durable, every record below the resolved bound, and not the tail.
type Candidate struct {
	First, Last uint64 // inclusive segment index range
	Pages       [][]byte
	Bytes       int64
}

// CompactCandidate finds the first run of at least minSegs consecutive
// eligible segments containing at least one segment not yet considered
// for compaction. bound must not exceed the resolved-transaction bound
// (min over durable LSN + 1 and the first LSN of every transaction whose
// commit or rollback is not yet durable).
func (d *Dir) CompactCandidate(now time.Duration, bound uint64, minSegs int) (Candidate, bool) {
	if minSegs < 1 {
		minSegs = 1
	}
	runStart := -1
	fresh := false
	for i, s := range d.segs {
		eligible := i < len(d.segs)-1 && // never the tail
			s.full && !s.compacting && d.segDurable(s, now) && d.segBelow(s, bound)
		if !eligible {
			if runStart >= 0 && i-runStart >= minSegs && fresh {
				return d.candidate(runStart, i), true
			}
			runStart, fresh = -1, false
			continue
		}
		if runStart < 0 {
			runStart = i
		}
		if !s.compacted {
			fresh = true
		}
	}
	if runStart >= 0 && len(d.segs)-runStart >= minSegs && fresh {
		return d.candidate(runStart, len(d.segs)), true
	}
	return Candidate{}, false
}

func (d *Dir) candidate(lo, hi int) Candidate {
	c := Candidate{First: d.segs[lo].index, Last: d.segs[hi-1].index}
	for _, s := range d.segs[lo:hi] {
		for _, p := range s.pages {
			c.Pages = append(c.Pages, p.img)
			c.Bytes += int64(len(p.img))
		}
	}
	return c
}

// BeginCompaction marks the candidate's segments as being compacted
// (pinning them against truncation) and schedules the rewrite of
// newPages page writes on the device's compaction lane. It returns the
// virtual completion time; the caller installs the result then.
func (d *Dir) BeginCompaction(c Candidate, now time.Duration, newPages int) time.Duration {
	start := now
	if d.compBusy > start {
		start = d.compBusy
	}
	done := start + d.writeTime*time.Duration(newPages)
	d.compBusy = done
	for _, s := range d.segs {
		if s.index >= c.First && s.index <= c.Last {
			s.compacting = true
		}
	}
	d.comps = append(d.comps, &compaction{first: c.First, last: c.Last, start: start, done: done})
	return done
}

// CommitCompaction atomically replaces the candidate's segments with the
// compacted pages, grouped into segments of the directory's page budget
// reusing the replaced index range. A crash before this call sees the old
// segments untouched; a crash after sees only the replacements. pages may
// be empty (everything in the range was stale).
func (d *Dir) CommitCompaction(first, last uint64, pages []PageData, done time.Duration) {
	comp := d.findCompaction(first, last)
	lo, hi := d.indexRange(first, last)
	var oldBytes int64
	for _, s := range d.segs[lo:hi] {
		oldBytes += s.bytes()
	}
	var repl []*segment
	var cur *segment
	idx := first
	for _, pd := range pages {
		if cur == nil || len(cur.pages) >= d.segPages {
			if idx > last {
				// More output than input segments cannot happen (compaction
				// only drops records), but guard the index space anyway.
				idx = last
			}
			cur = &segment{index: idx, full: true, compacted: true}
			idx++
			repl = append(repl, cur)
		}
		cur.pages = append(cur.pages, segPage{
			img: pd.Img, firstLSN: pd.FirstLSN, lastLSN: pd.LastLSN,
			start: comp.start, done: done,
		})
	}
	var newBytes int64
	for _, s := range repl {
		newBytes += s.bytes()
	}
	out := make([]*segment, 0, len(d.segs)-(hi-lo)+len(repl))
	out = append(out, d.segs[:lo]...)
	out = append(out, repl...)
	out = append(out, d.segs[hi:]...)
	d.segs = out
	comp.installed = true
	comp.saved = oldBytes - newBytes
	d.stats.Compactions++
	d.stats.CompactedBytes += comp.saved
}

// AbortCompaction unpins the candidate's segments and marks them as
// considered, so a run with no savings is not retried every tick.
func (d *Dir) AbortCompaction(first, last uint64) {
	lo, hi := d.indexRange(first, last)
	for _, s := range d.segs[lo:hi] {
		s.compacting = false
		s.compacted = true
	}
	if comp := d.findCompaction(first, last); comp != nil {
		comp.installed = true
	}
}

func (d *Dir) findCompaction(first, last uint64) *compaction {
	for i := len(d.comps) - 1; i >= 0; i-- {
		if d.comps[i].first == first && d.comps[i].last == last && !d.comps[i].installed {
			return d.comps[i]
		}
	}
	return nil
}

func (d *Dir) indexRange(first, last uint64) (lo, hi int) {
	lo = sort.Search(len(d.segs), func(i int) bool { return d.segs[i].index >= first })
	hi = sort.Search(len(d.segs), func(i int) bool { return d.segs[i].index > last })
	return lo, hi
}

// CompactedBytesAt returns the bytes reclaimed by compactions completed
// by time t — the telemetry a crash view at t can truthfully report.
func (d *Dir) CompactedBytesAt(t time.Duration) int64 {
	var n int64
	for _, c := range d.comps {
		if c.installed && c.done <= t {
			n += c.saved
		}
	}
	return n
}

// --- crash views ---

// SegmentView is the durable image of one segment at a crash instant.
type SegmentView struct {
	Index    uint64
	Pages    [][]byte
	FirstLSN uint64 // over the surviving pages
	LastLSN  uint64
	Torn     bool // the last page is a checksum-guarded torn prefix
}

// View is the crash-time state of the whole directory: the surviving
// segments in index order plus the arbitrated commit.meta position.
type View struct {
	Device         string
	Segments       []SegmentView
	Pos            CommitPos
	HavePos        bool
	CompactedBytes int64
}

// DurableView reconstructs what a crash at time t finds on the medium.
// Device page writes are FIFO within the log lane, so the first torn,
// in-flight, or lost page ends the recoverable log: later pages of that
// segment and all later segments are dropped. exposeTorn mirrors the wal
// device's ExposeTorn: when set, the surviving prefix of an in-flight or
// torn page is included (the per-record CRCs cut it); when clear the page
// vanishes entirely.
func (d *Dir) DurableView(t time.Duration, exposeTorn bool) View {
	v := View{Device: d.device, CompactedBytes: d.CompactedBytesAt(t)}
	v.Pos, v.HavePos = d.meta.durable(t)
	if d.unlinkedBelow > v.Pos.Horizon {
		// Recovery leans on this: with a transaction's records spread over
		// several devices, the segment holding its commit record may be
		// gone while an update of it survives elsewhere, and only the
		// horizon says that update is resolved and checkpointed.
		v.Pos.Horizon, v.HavePos = d.unlinkedBelow, true
	}
scan:
	for _, s := range d.segs {
		if len(s.pages) == 0 {
			continue
		}
		if s.pages[0].start >= t && s.pages[0].done > t {
			break // segment born after the crash (compaction installed later)
		}
		sv := SegmentView{Index: s.index}
		for _, p := range s.pages {
			switch {
			case p.lost:
				if exposeTorn && p.torn > 0 && p.start < t {
					sv.addPage(p.img[:p.torn], p.firstLSN, p.lastLSN)
					sv.Torn = true
				}
				d.pushSeg(&v, sv)
				break scan
			case p.done <= t:
				sv.addPage(p.img, p.firstLSN, p.lastLSN)
			case exposeTorn && p.start < t:
				frac := float64(t-p.start) / float64(p.done-p.start)
				if n := int(frac * float64(len(p.img))); n > 0 {
					sv.addPage(p.img[:n], p.firstLSN, p.lastLSN)
					sv.Torn = true
				}
				d.pushSeg(&v, sv)
				break scan
			default:
				// In-flight and hidden: the log ends here.
				d.pushSeg(&v, sv)
				break scan
			}
		}
		d.pushSeg(&v, sv)
	}
	return v
}

func (sv *SegmentView) addPage(img []byte, first, last uint64) {
	if len(sv.Pages) == 0 {
		sv.FirstLSN = first
	}
	sv.Pages = append(sv.Pages, img)
	if last > sv.LastLSN {
		sv.LastLSN = last
	}
}

func (d *Dir) pushSeg(v *View, sv SegmentView) {
	if len(sv.Pages) > 0 {
		v.Segments = append(v.Segments, sv)
	}
}

// --- chaos windows ---

// RotationWindows returns the write intervals of each non-initial
// segment's first page — the instants a crash lands "mid-rotation".
func (d *Dir) RotationWindows() []Window {
	return append([]Window(nil), d.rotations...)
}

// MetaWindows returns the commit.meta slot rewrite intervals.
func (d *Dir) MetaWindows() []Window {
	var out []Window
	for _, w := range d.meta.writes {
		out = append(out, w.Window)
	}
	return out
}

// CompactionWindows returns the compaction install intervals.
func (d *Dir) CompactionWindows() []Window {
	var out []Window
	for _, c := range d.comps {
		out = append(out, Window{Start: c.start, Done: c.done})
	}
	return out
}

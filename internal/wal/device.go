package wal

import (
	"time"

	"mmdb/internal/seglog"
)

// DefaultWriteRetries bounds the in-device retries for injected transient
// write faults when Device.MaxRetries is zero.
const DefaultWriteRetries = 4

// WriteFault is an injected verdict for one device page write. The zero
// value is a clean write.
type WriteFault struct {
	// Transient fails the write's service this many times before it
	// succeeds; the device absorbs up to MaxRetries of them with
	// exponential virtual-time backoff. Beyond the bound the device is
	// treated as failing hard (the page is lost and the device dies).
	Transient int
	// Permanent kills the device: this write and every later one never
	// complete.
	Permanent bool
	// Stall adds that many extra service times to the write — latency
	// inflation, not failure.
	Stall int
	// Torn cuts the stored image to a prefix: the device never
	// acknowledges the write, but a crash later exposes the partial page
	// (when ExposeTorn is set). The log is broken at this page.
	Torn bool
	// TornBytes is the surviving prefix length when Torn; 0 means half
	// the image.
	TornBytes int
}

// WriteInjector decides the fate of device page writes; the canonical
// implementation with seeded schedules lives in internal/fault (the
// interface is declared here to avoid an import cycle).
type WriteInjector interface {
	PageWrite(device string) WriteFault
}

// Device models one disk: page writes are serviced serially, each taking
// WriteTime (the paper's 10 ms for a 4096-byte page without a seek). A
// log device (one handed to NewLog) retains its page images in a segment
// directory, so a crash at time t exposes exactly the durable prefix; a
// data device keeps only its queue and write count.
type Device struct {
	Name      string
	WriteTime time.Duration

	// Injector, when non-nil, is consulted once per page write.
	Injector WriteInjector
	// MaxRetries bounds in-device retries of transient write faults;
	// 0 means DefaultWriteRetries.
	MaxRetries int
	// ExposeTorn makes DurableSegments surface the surviving prefix of a
	// page whose write was in flight at the crash instant, and of
	// injected torn writes, instead of hiding those pages entirely —
	// modeling sector-granular torn writes that recovery must detect by
	// checksum. Off by default (the page vanishes, the pre-fault-plane
	// behavior).
	ExposeTorn bool

	busyUntil time.Duration
	written   int
	failed    bool
	retried   int64

	// dir arranges a log device's page writes into bounded segment files
	// with a persisted commit.meta (see internal/seglog); nil on a data
	// device.
	dir *seglog.Dir
}

// NewDevice creates a device with the given service time per page write.
func NewDevice(name string, writeTime time.Duration) *Device {
	return &Device{Name: name, WriteTime: writeTime}
}

// EnableSegments makes d a log device: its page writes are retained in
// bounded segments of segmentPages pages each, with a dual-slot CRC-framed
// commit.meta. NewLog calls it on every device it is given.
// Each device owns its own "<name>/..." namespace, so fragment merge can
// never interleave segment files across devices even when one device name
// prefixes another (log1 vs log10). Idempotent; returns the directory.
func (d *Device) EnableSegments(segmentPages int) *seglog.Dir {
	if d.dir == nil {
		d.dir = seglog.NewDir(d.Name, segmentPages, d.WriteTime)
	}
	return d.dir
}

// SegmentDir returns a log device's segment directory.
func (d *Device) SegmentDir() *seglog.Dir { return d.dir }

// DurableSegments returns the crash view of a log device at time t — the
// fragment it contributes to recovery. A page still being written at t is
// torn: by default it is excluded entirely; with ExposeTorn the prefix
// proportional to the write's progress survives (as does the prefix of an
// injected torn write), and the per-record checksums let recovery cut the
// fragment there.
func (d *Device) DurableSegments(t time.Duration) seglog.View {
	return d.dir.DurableView(t, d.ExposeTorn)
}

// Write queues a page image. The write starts no earlier than `earliest`
// (used to honor commit-group topological ordering) and no earlier than the
// completion of the device's previous write. It returns the completion time
// and whether the write completes at all: ok is false when the device has
// permanently failed or the write was torn — the page never becomes
// durable and the caller must not count on its completion.
func (d *Device) Write(earliest time.Duration, img []byte) (time.Duration, bool) {
	return d.WriteTagged(earliest, img, 0, 0)
}

// WriteTagged is Write carrying the LSN range of the records the page
// holds; a log device records the tags in its segment directory
// so truncation and the recovery horizon can reason about whole segment
// files without decoding them. Untagged callers (checkpoint data pages)
// pass zeros.
func (d *Device) WriteTagged(earliest time.Duration, img []byte, firstLSN, lastLSN LSN) (time.Duration, bool) {
	start := earliest
	if d.busyUntil > start {
		start = d.busyUntil
	}
	// record files the write's fate; the segment directory takes ownership
	// of img (callers hand over a fresh EncodePage buffer).
	record := func(done time.Duration, torn int, lost bool) {
		d.written++
		if d.dir != nil {
			d.dir.Append(img, uint64(firstLSN), uint64(lastLSN), start, done, torn, lost)
		}
	}
	var wf WriteFault
	if d.Injector != nil {
		wf = d.Injector.PageWrite(d.Name)
	}
	if wf.Permanent {
		d.failed = true
	}
	if d.failed {
		record(0, 0, true)
		return 0, false
	}
	retries := d.MaxRetries
	if retries == 0 {
		retries = DefaultWriteRetries
	}
	service := d.WriteTime * time.Duration(1+wf.Stall)
	done := start + service
	if wf.Transient > 0 {
		n := wf.Transient
		if n > retries {
			n = retries
		}
		// Each failed attempt costs a service time plus an exponential
		// virtual-time backoff before the re-issue.
		for i := 0; i < n; i++ {
			done += d.WriteTime / 2 << uint(i)
			done += service
		}
		d.retried += int64(n)
		if wf.Transient > retries {
			// Retry budget exhausted: the device is failing hard.
			d.failed = true
			record(0, 0, true)
			return 0, false
		}
	}
	if wf.Torn {
		tb := wf.TornBytes
		if tb <= 0 || tb >= len(img) {
			tb = len(img) / 2
		}
		if tb < 1 {
			tb = 1
		}
		// The medium holds only a prefix and the write is never
		// acknowledged; the log is broken at this page, so the device is
		// dead from here on.
		d.busyUntil = done
		d.failed = true
		record(done, tb, true)
		return 0, false
	}
	d.busyUntil = done
	record(done, 0, false)
	return done, true
}

// PagesWritten returns the number of page writes issued.
func (d *Device) PagesWritten() int { return d.written }

// BusyUntil returns when the device's queue drains.
func (d *Device) BusyUntil() time.Duration { return d.busyUntil }

// Failed reports whether the device has permanently failed (injected
// permanent fault, exhausted transient retries, or a torn write).
func (d *Device) Failed() bool { return d.failed }

// WriteRetries returns the transient write faults absorbed by in-device
// retry.
func (d *Device) WriteRetries() int64 { return d.retried }

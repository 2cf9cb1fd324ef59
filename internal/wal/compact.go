package wal

import (
	"mmdb/internal/seglog"
)

// This file is the §5.6 log compressor: a background
// compactor that rewrites runs of cold segments — segments whose every
// record lies below the resolved-transaction bound — keeping only the
// newest update per record slot among durably resolved transactions, with
// pre-images stripped (they are only needed to undo, and a durably
// resolved transaction never undoes). Records of transactions whose
// outcome is not yet durable are kept verbatim, as are Commit/End marks
// (analysis must still see every surviving update's outcome). Original
// LSNs are preserved, so the global merge order — and therefore the redo
// result — is unchanged: a dropped update is superseded by a kept, later,
// same-device update to the same slot, and §5.2's commit-group ordering
// guarantees no resolved-committed update ever overwrote an unresolved
// one.

// CompactRecords compacts one device's cold record run. records must be
// in LSN order (true of any consecutive segment range of one device);
// resolved reports whether a transaction's commit or rollback is durable.
func CompactRecords(records []Record, resolved func(TxnID) bool) []Record {
	// Newest resolved update per record slot wins.
	newest := make(map[uint64]int, len(records))
	for i, r := range records {
		if r.Type == Update && resolved(r.Txn) {
			newest[r.Rec] = i
		}
	}
	out := make([]Record, 0, len(records))
	for i, r := range records {
		switch {
		case r.Type == Update && resolved(r.Txn):
			if newest[r.Rec] != i {
				continue // superseded by a later resolved update
			}
			out = append(out, r.WithoutOld())
		case r.Type == Begin && resolved(r.Txn):
			continue // nothing downstream needs a resolved Begin
		default:
			out = append(out, r)
		}
	}
	return out
}

// encodeCompactPages packs compacted records into fresh page images
// tagged with their LSN ranges.
func encodeCompactPages(records []Record, pageSize int) ([]seglog.PageData, error) {
	var out []seglog.PageData
	var cur []Record
	bytes := 0
	payload := pageSize - pageHeader
	flush := func() error {
		if len(cur) == 0 {
			return nil
		}
		img, err := EncodePage(cur, pageSize)
		if err != nil {
			return err
		}
		out = append(out, seglog.PageData{
			Img:      img,
			FirstLSN: uint64(cur[0].LSN),
			LastLSN:  uint64(cur[len(cur)-1].LSN),
		})
		cur, bytes = nil, 0
		return nil
	}
	for _, r := range records {
		if bytes+r.EncodedSize() > payload {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		cur = append(cur, r)
		bytes += r.EncodedSize()
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// kickCompactor schedules a compaction tick CompactEvery from now unless
// one is already pending. Ticks are armed from durability events rather
// than self-rescheduling, so an idle simulation drains instead of
// spinning on an empty compactor loop.
func (l *Log) kickCompactor() {
	if !l.cfg.CompactSegments || !l.compactorIdle {
		return
	}
	l.compactorIdle = false
	l.sim.After(l.cfg.CompactEvery, l.compactTick)
}

// compactTick scans every device for a cold run and schedules
// its rewrite on the device's compaction lane. The original segments stay
// on the medium until the rewrite completes — a crash mid-compaction
// recovers from them unchanged — and are then swapped atomically.
func (l *Log) compactTick() {
	l.compactorIdle = true
	_, bound := l.boundsNow()
	if bound == 0 {
		return
	}
	now := l.sim.Now()
	for _, f := range l.frags {
		dir := f.dev.SegmentDir()
		cand, ok := dir.CompactCandidate(now, uint64(bound), 2)
		if !ok {
			continue
		}
		var recs []Record
		intact := true
		for _, img := range cand.Pages {
			rs, whole := DecodePageTail(img)
			recs = append(recs, rs...)
			if !whole {
				intact = false
				break
			}
		}
		if !intact {
			// Durable full segments should always decode; leave damaged
			// ones for recovery to cut at and stop retrying them.
			dir.AbortCompaction(cand.First, cand.Last)
			continue
		}
		out := CompactRecords(recs, func(t TxnID) bool { return l.resolved[t] })
		pages, err := encodeCompactPages(out, l.cfg.PageSize)
		if err != nil || len(pages) >= len(cand.Pages) {
			dir.AbortCompaction(cand.First, cand.Last)
			continue
		}
		done := dir.BeginCompaction(cand, now, len(pages))
		first, last := cand.First, cand.Last
		l.sim.At(done, func() {
			dir.CommitCompaction(first, last, pages, done)
			l.PublishMeta()
		})
	}
}

// Package wal implements the logging side of §5: log records and 4 KB log
// pages, a log manager with the three commit disciplines the paper
// analyzes (per-transaction flush, group commit via pre-committed
// transactions, and stable-memory commit with log compression), log
// partitioning across several devices with topological ordering of commit
// groups, and the fragment-merge iterator recovery reads the log with.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// TxnID identifies a transaction.
type TxnID uint64

// LSN is a log sequence number, totally ordered across all log fragments.
type LSN uint64

// RecordType distinguishes log record kinds (§5.4's Begin / update /
// End structure plus checkpoint marks).
type RecordType uint8

// Record types.
const (
	Begin RecordType = iota + 1
	Update
	Commit // the commit record whose durability defines commit
	End
	Checkpoint
)

func (t RecordType) String() string {
	switch t {
	case Begin:
		return "begin"
	case Update:
		return "update"
	case Commit:
		return "commit"
	case End:
		return "end"
	case Checkpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one log entry. Update records carry old and new values of the
// modified record (the paper's 360-byte body); Begin/Commit/End carry only
// the header (the 40-byte overhead).
type Record struct {
	LSN  LSN
	Txn  TxnID
	Type RecordType
	Rec  uint64 // record id of the updated object (Update only)
	Old  []byte // pre-image; dropped by stable-memory compression
	New  []byte // post-image
}

const recordHeader = 8 + 8 + 1 + 8 + 2 + 2 // LSN, Txn, Type, Rec, len(Old), len(New)

// recordChecksum is the per-record CRC32 trailer. It makes a torn or
// corrupted log tail detectable: recovery decodes records until the first
// checksum failure and treats that point as end-of-log.
const recordChecksum = 4

// ErrChecksum marks a log record whose stored checksum does not match its
// content — the signature of a torn or corrupted write.
var ErrChecksum = errors.New("wal: record checksum mismatch")

// EncodedSize returns the record's on-log size in bytes.
func (r Record) EncodedSize() int {
	return recordHeader + len(r.Old) + len(r.New) + recordChecksum
}

// WithoutOld returns a copy with the pre-image removed: §5.4's log
// compression ("approximately half of the size of the log stores the old
// values ... only needed if the transaction must be undone").
func (r Record) WithoutOld() Record {
	r.Old = nil
	return r
}

// AppendTo encodes r onto buf and returns the extended slice.
func (r Record) AppendTo(buf []byte) ([]byte, error) {
	if len(r.Old) > 0xffff || len(r.New) > 0xffff {
		return nil, fmt.Errorf("wal: value too large (old=%d new=%d)", len(r.Old), len(r.New))
	}
	var h [recordHeader]byte
	binary.BigEndian.PutUint64(h[0:], uint64(r.LSN))
	binary.BigEndian.PutUint64(h[8:], uint64(r.Txn))
	h[16] = byte(r.Type)
	binary.BigEndian.PutUint64(h[17:], r.Rec)
	binary.BigEndian.PutUint16(h[25:], uint16(len(r.Old)))
	binary.BigEndian.PutUint16(h[27:], uint16(len(r.New)))
	start := len(buf)
	buf = append(buf, h[:]...)
	buf = append(buf, r.Old...)
	buf = append(buf, r.New...)
	var c [recordChecksum]byte
	binary.BigEndian.PutUint32(c[:], crc32.ChecksumIEEE(buf[start:]))
	buf = append(buf, c[:]...)
	return buf, nil
}

// DecodeRecord decodes one record from buf, returning it and the number of
// bytes consumed.
func DecodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < recordHeader {
		return Record{}, 0, fmt.Errorf("wal: truncated record header (%d bytes)", len(buf))
	}
	var r Record
	r.LSN = LSN(binary.BigEndian.Uint64(buf[0:]))
	r.Txn = TxnID(binary.BigEndian.Uint64(buf[8:]))
	r.Type = RecordType(buf[16])
	r.Rec = binary.BigEndian.Uint64(buf[17:])
	oldLen := int(binary.BigEndian.Uint16(buf[25:]))
	newLen := int(binary.BigEndian.Uint16(buf[27:]))
	body := recordHeader + oldLen + newLen
	n := body + recordChecksum
	if len(buf) < n {
		return Record{}, 0, fmt.Errorf("wal: truncated record body (want %d, have %d)", n, len(buf))
	}
	if got, want := crc32.ChecksumIEEE(buf[:body]), binary.BigEndian.Uint32(buf[body:]); got != want {
		return Record{}, 0, fmt.Errorf("wal: LSN %d: %w", r.LSN, ErrChecksum)
	}
	switch r.Type {
	case Begin, Update, Commit, End, Checkpoint:
	default:
		return Record{}, 0, fmt.Errorf("wal: invalid record type %d", buf[16])
	}
	if oldLen > 0 {
		r.Old = append([]byte(nil), buf[recordHeader:recordHeader+oldLen]...)
	}
	if newLen > 0 {
		r.New = append([]byte(nil), buf[recordHeader+oldLen:body]...)
	}
	return r, n, nil
}

// pageHeader is the size of an encoded log page's header (record count,
// payload length); packed records follow. Pages are fixed-size on the
// device.
const pageHeader = 2 + 4

// EncodePage packs records into a page image of the given size.
func EncodePage(records []Record, pageSize int) ([]byte, error) {
	buf := make([]byte, pageHeader, pageSize)
	for _, r := range records {
		var err error
		buf, err = r.AppendTo(buf)
		if err != nil {
			return nil, err
		}
	}
	if len(buf) > pageSize {
		return nil, fmt.Errorf("wal: %d records overflow page (%d > %d bytes)", len(records), len(buf), pageSize)
	}
	binary.BigEndian.PutUint16(buf[0:], uint16(len(records)))
	binary.BigEndian.PutUint32(buf[2:], uint32(len(buf)-pageHeader))
	out := make([]byte, pageSize)
	copy(out, buf)
	return out, nil
}

// DecodePageTail decodes the valid record prefix of a possibly torn or
// corrupt page image. A crash (or an injected torn write) can leave only a
// byte prefix of a log page on the medium; the per-record checksums make
// the damage detectable, so decoding stops at the first structural or
// checksum failure and returns whatever decoded cleanly before it. intact
// reports whether the page's full declared payload decoded — when false,
// the page is the end of its log fragment.
func DecodePageTail(data []byte) (records []Record, intact bool) {
	if len(data) < pageHeader {
		return nil, false
	}
	count := int(binary.BigEndian.Uint16(data[0:]))
	payload := int(binary.BigEndian.Uint32(data[2:]))
	buf := data[pageHeader:]
	whole := payload <= len(buf)
	if whole {
		buf = buf[:payload]
	}
	for i := 0; i < count; i++ {
		r, n, err := DecodeRecord(buf)
		if err != nil {
			return records, false
		}
		records = append(records, r)
		buf = buf[n:]
	}
	return records, whole && len(buf) == 0
}

package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodePageTail feeds the decoder recovery trusts arbitrary page
// images. It must never panic; whatever records it returns must survive a
// re-encode/decode round trip unchanged (a record is either returned whole
// and checksum-clean or not at all); and intact means the declared payload
// decoded to the last byte. The seeds are a whole page, its torn and
// bit-flipped variants, and degenerate headers; CI runs a short -fuzztime
// smoke (see .github/workflows/ci.yml).
func FuzzDecodePageTail(f *testing.F) {
	page, err := EncodePage([]Record{
		{LSN: 1, Txn: 5, Type: Begin},
		{LSN: 2, Txn: 5, Type: Update, Rec: 9, Old: []byte("old"), New: []byte("new")},
		{LSN: 3, Txn: 5, Type: Commit},
		{LSN: 4, Txn: 6, Type: Update, Rec: 1, New: []byte("compressed")},
		{LSN: 5, Txn: 6, Type: End},
		{LSN: 6, Type: Checkpoint},
	}, 512)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), page...)
	flipped[pageHeader+40] ^= 0x01
	for _, seed := range [][]byte{
		page,
		page[:pageHeader+50], // torn inside the second record
		page[:pageHeader],    // header only
		flipped,
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // count and payload far beyond the image
		{0, 1, 0, 0, 0, 0},                   // one record declared, empty payload
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, intact := DecodePageTail(data)
		if len(data) < pageHeader {
			if recs != nil || intact {
				t.Fatalf("sub-header image decoded: %d records, intact=%v", len(recs), intact)
			}
			return
		}
		size := pageHeader
		for _, r := range recs {
			size += r.EncodedSize()
		}
		if size > len(data) {
			t.Fatalf("%d records of %d bytes decoded from a %d-byte image", len(recs), size, len(data))
		}
		if declared := pageHeader + int(binary.BigEndian.Uint32(data[2:])); intact && size != declared {
			t.Fatalf("intact page: records cover %d bytes, header declares %d (trailing bytes)", size, declared)
		}
		img, err := EncodePage(recs, size)
		if err != nil {
			t.Fatalf("re-encoding decoded records: %v", err)
		}
		again, whole := DecodePageTail(img)
		if !whole || len(again) != len(recs) {
			t.Fatalf("re-encoded page decodes to %d records (whole=%v), want %d", len(again), whole, len(recs))
		}
		for i := range recs {
			a, b := recs[i], again[i]
			if a.LSN != b.LSN || a.Txn != b.Txn || a.Type != b.Type || a.Rec != b.Rec ||
				!bytes.Equal(a.Old, b.Old) || !bytes.Equal(a.New, b.New) {
				t.Fatalf("record %d changed across the round trip: %+v vs %+v", i, a, b)
			}
		}
		// The decoded prefix is byte-exact: what was accepted is what the
		// image holds.
		if !bytes.Equal(img[pageHeader:], data[pageHeader:size]) {
			t.Fatal("re-encoded records differ from the accepted bytes")
		}
	})
}

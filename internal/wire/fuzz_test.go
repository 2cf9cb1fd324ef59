package wire

import (
	"bytes"
	"testing"

	"mmdb/internal/tuple"
)

// frameCodecs pairs each payload decoder with its encoder: reencode
// decodes p and, when the decoder accepts it, returns the re-encoding.
// ROWS decodes against the schema the head RESULT payload describes.
var frameCodecs = []struct {
	name     string
	reencode func(p, head []byte) ([]byte, bool)
}{
	{"HELLO", func(p, _ []byte) ([]byte, bool) {
		h, err := DecodeHello(p)
		return EncodeHello(h), err == nil
	}},
	{"WELCOME", func(p, _ []byte) ([]byte, bool) {
		w, err := DecodeWelcome(p)
		return EncodeWelcome(w), err == nil
	}},
	{"QUERY", func(p, _ []byte) ([]byte, bool) {
		q, err := DecodeQuery(p)
		if b := EncodeQuery(q); len(b) == len(p) {
			return b, err == nil // no read-preference tail
		}
		return EncodeQueryV2(q), err == nil
	}},
	{"RESULT", func(p, _ []byte) ([]byte, bool) {
		res, err := DecodeResult(p)
		return EncodeResult(res), err == nil
	}},
	{"ROWS", func(p, head []byte) ([]byte, bool) {
		res, err := DecodeResult(head)
		if err != nil {
			return nil, false
		}
		schema, err := res.Schema()
		if err != nil {
			return nil, false
		}
		rows, err := DecodeRows(p, schema)
		return EncodeRows(rows), err == nil
	}},
	{"DONE", func(p, _ []byte) ([]byte, bool) {
		d, err := DecodeDone(p)
		return EncodeDone(d), err == nil
	}},
	{"ERROR", func(p, _ []byte) ([]byte, bool) {
		e, err := DecodeError(p)
		return EncodeError(e), err == nil
	}},
	{"NOT_PRIMARY", func(p, _ []byte) ([]byte, bool) {
		np, err := DecodeNotPrimary(p)
		return EncodeNotPrimary(np), err == nil
	}},
	{"OVERLOAD", func(p, _ []byte) ([]byte, bool) {
		o, err := DecodeOverload(p)
		return EncodeOverload(o), err == nil
	}},
}

// FuzzDecodeFrame feeds every frame payload decoder — the bytes a server
// reads off a client socket and a client off a server's — arbitrary input.
// The decoder picked by which (mod the nine) must never panic, and a
// payload it accepts must re-encode to exactly its bytes: nothing is
// skipped, defaulted or normalised on the way in. ROWS decode against
// whatever schema the head RESULT payload yields (and must refuse a
// statement result's nil schema). The seeds are one encoded frame of each
// type; CI runs a short -fuzztime smoke (see .github/workflows/ci.yml).
func FuzzDecodeFrame(f *testing.F) {
	rows := Result{Fields: []FieldDesc{{Name: "id", Kind: tuple.Int64}, {Name: "name", Kind: tuple.String, Size: 4}}}
	head := EncodeResult(rows)
	schema, err := rows.Schema()
	if err != nil {
		f.Fatal(err)
	}
	row, err := schema.Encode(tuple.IntValue(7), tuple.StringValue("ab"))
	if err != nil {
		f.Fatal(err)
	}
	query := Query{Class: ClassDefault, MinPages: 16, SQL: "SELECT * FROM emp WHERE id = 7", Pref: PrefBounded, MaxLag: 9}
	for i, payload := range [][]byte{
		EncodeHello(Hello{Version: Version, Class: 1, MinPages: 32}),
		EncodeWelcome(Welcome{Version: Version, Server: "mmdb", Role: RolePrimary, Epoch: 3}),
		EncodeQuery(query),
		EncodeResult(Result{Affected: 2}),
		EncodeRows([]tuple.Tuple{row, row}),
		EncodeDone(Done{RowCount: 2, Counters: [6]int64{1, 2, 3, 4, 5, 6}, ElapsedNS: 7, QueuedNS: 8}),
		EncodeError(ErrorFrame{Code: 7, Msg: "sql: syntax error"}),
		EncodeNotPrimary(NotPrimary{Epoch: 4, Hint: "127.0.0.1:7070", Msg: "not the primary"}),
		EncodeOverload(Overload{Class: 1, Depth: 64, Msg: "overloaded"}),
	} {
		f.Add(byte(i), payload, head)
	}
	f.Add(byte(2), EncodeQueryV2(query), head) // QUERY with its read-preference tail
	f.Add(byte(4), EncodeRows(nil), EncodeResult(Result{Affected: 1}))
	f.Fuzz(func(t *testing.T, which byte, payload, head []byte) {
		c := frameCodecs[int(which)%len(frameCodecs)]
		if c.name == "ROWS" {
			if res, err := DecodeResult(head); err == nil && len(res.Fields) == 0 {
				if _, err := DecodeRows(payload, nil); err == nil {
					t.Fatal("ROWS decoded for a statement result")
				}
			}
		}
		again, ok := c.reencode(payload, head)
		if ok && !bytes.Equal(again, payload) {
			t.Fatalf("%s payload %x re-encodes to %x", c.name, payload, again)
		}
	})
}

package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mmdb/internal/tuple"
)

// TestFrameRoundTrip checks the frame layer itself: length prefix, type
// byte, payload, and the MaxFrame / truncation guards.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := WriteFrame(&buf, TQuery, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	// docs/WIRE.md §2: u32 BE length of (type + payload), type, payload.
	raw := buf.Bytes()
	if want := 4 + 1 + len(payload); len(raw) != want {
		t.Fatalf("frame is %d bytes, want %d", len(raw), want)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != TQuery || !bytes.Equal(got, payload) {
		t.Fatalf("round trip gave type 0x%02X payload %q", typ, got)
	}

	// Empty payload (PING/PONG) round-trips too.
	buf.Reset()
	if err := WriteFrame(&buf, TPing, nil); err != nil {
		t.Fatalf("WriteFrame(empty): %v", err)
	}
	typ, got, err = ReadFrame(&buf)
	if err != nil || typ != TPing || len(got) != 0 {
		t.Fatalf("empty round trip: type 0x%02X payload %v err %v", typ, got, err)
	}

	// Oversize frames are refused on the write side...
	if err := WriteFrame(&bytes.Buffer{}, TRows, make([]byte, MaxFrame)); err == nil {
		t.Fatal("WriteFrame accepted an oversize frame")
	}
	// ...and a hostile length prefix is refused on the read side.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("ReadFrame accepted an out-of-range length")
	}
	// Truncated payloads surface an error, not a short read.
	buf.Reset()
	_ = WriteFrame(&buf, TQuery, payload)
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("ReadFrame accepted a truncated frame")
	}
}

// TestMessageRoundTrips covers every frame type docs/WIRE.md defines
// with an Encode/Decode pair: HELLO, WELCOME, QUERY, RESULT, ROWS,
// DONE, ERROR, OVERLOAD. (PING and PONG carry no payload and are
// exercised by TestFrameRoundTrip and the server test.)
func TestMessageRoundTrips(t *testing.T) {
	hello := Hello{Version: Version, Class: 1, MinPages: 32}
	if got, err := DecodeHello(EncodeHello(hello)); err != nil || got != hello {
		t.Fatalf("HELLO round trip: %+v, %v", got, err)
	}

	welcome := Welcome{Version: Version, Server: "mmdb test", Role: RolePrimary, Epoch: 3}
	if got, err := DecodeWelcome(EncodeWelcome(welcome)); err != nil || got != welcome {
		t.Fatalf("WELCOME round trip: %+v, %v", got, err)
	}

	// A QUERY without the tail decodes with Pref = PrefDefault.
	query := Query{Class: ClassDefault, MinPages: 8, SQL: "SELECT id FROM emp WHERE salary > 41000", Pref: PrefDefault}
	if got, err := DecodeQuery(EncodeQuery(query)); err != nil || got != query {
		t.Fatalf("QUERY round trip: %+v, %v", got, err)
	}

	// The tail round-trips the read preference and LSN bound.
	query2 := Query{Class: ClassDefault, SQL: "SELECT 1", Pref: PrefBounded, MaxLag: 1 << 40}
	if got, err := DecodeQuery(EncodeQueryV2(query2)); err != nil || got != query2 {
		t.Fatalf("QUERY tail round trip: %+v, %v", got, err)
	}

	result := Result{
		Affected: 0,
		Fields: []FieldDesc{
			{Name: "id", Kind: tuple.Int64, Size: 8},
			{Name: "name", Kind: tuple.String, Size: 16},
			{Name: "avg_salary", Kind: tuple.Float64, Size: 8},
		},
	}
	gotRes, err := DecodeResult(EncodeResult(result))
	if err != nil || !reflect.DeepEqual(gotRes, result) {
		t.Fatalf("RESULT round trip: %+v, %v", gotRes, err)
	}
	schema, err := gotRes.Schema()
	if err != nil {
		t.Fatalf("Result.Schema: %v", err)
	}
	if schema.NumFields() != 3 || schema.Width() != 8+16+8 {
		t.Fatalf("reconstructed schema: %d fields, width %d", schema.NumFields(), schema.Width())
	}

	// A statement RESULT has no fields and reconstructs a nil schema.
	stmt := Result{Affected: 42}
	gotStmt, err := DecodeResult(EncodeResult(stmt))
	if err != nil || gotStmt.Affected != 42 || len(gotStmt.Fields) != 0 {
		t.Fatalf("statement RESULT round trip: %+v, %v", gotStmt, err)
	}
	if s, err := gotStmt.Schema(); err != nil || s != nil {
		t.Fatalf("statement schema should be nil, got %v, %v", s, err)
	}

	// ROWS: raw fixed-width tuples against the reconstructed schema.
	rows := make([]tuple.Tuple, 3)
	for i := range rows {
		tt, err := schema.Encode(
			tuple.Value{Kind: tuple.Int64, I: int64(i + 1)},
			tuple.Value{Kind: tuple.String, S: strings.Repeat("x", i+1)},
			tuple.Value{Kind: tuple.Float64, F: float64(i) + 0.5},
		)
		if err != nil {
			t.Fatalf("encode row: %v", err)
		}
		rows[i] = tt
	}
	gotRows, err := DecodeRows(EncodeRows(rows), schema)
	if err != nil || !reflect.DeepEqual(gotRows, rows) {
		t.Fatalf("ROWS round trip: %v, %v", gotRows, err)
	}
	if _, err := DecodeRows(EncodeRows(rows), nil); err == nil {
		t.Fatal("DecodeRows accepted a nil schema")
	}

	done := Done{
		RowCount:  3,
		Counters:  [6]int64{10, 20, 30, 40, 50, 60},
		ElapsedNS: 123456,
		QueuedNS:  789,
	}
	if got, err := DecodeDone(EncodeDone(done)); err != nil || got != done {
		t.Fatalf("DONE round trip: %+v, %v", got, err)
	}

	ef := ErrorFrame{Code: CodeSemantic, Msg: "sql: unknown column (SQL.md §7.4) at byte 7: nope"}
	if got, err := DecodeError(EncodeError(ef)); err != nil || got != ef {
		t.Fatalf("ERROR round trip: %+v, %v", got, err)
	}

	ov := Overload{Class: 1, Depth: 7, Msg: "admission queue full"}
	if got, err := DecodeOverload(EncodeOverload(ov)); err != nil || got != ov {
		t.Fatalf("OVERLOAD round trip: %+v, %v", got, err)
	}
}

// TestDecodeRejectsMalformed checks the reader's sticky-error and
// trailing-byte guards on every decoder: truncations and garbage tails
// must fail loudly, never decode partially.
func TestDecodeRejectsMalformed(t *testing.T) {
	full := map[string][]byte{
		"HELLO":    EncodeHello(Hello{Version: Version, Class: 0, MinPages: 4}),
		"WELCOME":  EncodeWelcome(Welcome{Version: Version, Server: "srv"}),
		"QUERY":    EncodeQuery(Query{Class: 0, MinPages: 0, SQL: "SELECT 1"}),
		"RESULT":   EncodeResult(Result{Fields: []FieldDesc{{Name: "id", Kind: tuple.Int64, Size: 8}}}),
		"DONE":     EncodeDone(Done{RowCount: 1}),
		"ERROR":    EncodeError(ErrorFrame{Code: CodeExec, Msg: "boom"}),
		"OVERLOAD": EncodeOverload(Overload{Class: 1, Depth: 2, Msg: "shed"}),
	}
	decode := map[string]func([]byte) error{
		"HELLO":    func(p []byte) error { _, err := DecodeHello(p); return err },
		"WELCOME":  func(p []byte) error { _, err := DecodeWelcome(p); return err },
		"QUERY":    func(p []byte) error { _, err := DecodeQuery(p); return err },
		"RESULT":   func(p []byte) error { _, err := DecodeResult(p); return err },
		"DONE":     func(p []byte) error { _, err := DecodeDone(p); return err },
		"ERROR":    func(p []byte) error { _, err := DecodeError(p); return err },
		"OVERLOAD": func(p []byte) error { _, err := DecodeOverload(p); return err },
	}
	for name, payload := range full {
		dec := decode[name]
		// Well-formed payload decodes.
		if err := dec(payload); err != nil {
			t.Errorf("%s: full payload failed: %v", name, err)
		}
		// Every strict prefix is a truncation error.
		for cut := 0; cut < len(payload); cut++ {
			if err := dec(payload[:cut]); err == nil {
				t.Errorf("%s: accepted truncation to %d/%d bytes", name, cut, len(payload))
				break
			}
		}
		// Trailing garbage is rejected.
		if err := dec(append(append([]byte{}, payload...), 0xAA)); err == nil {
			t.Errorf("%s: accepted trailing garbage", name)
		}
	}
}

package wire

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mmdb"
)

// newServer starts a wire server over a tiny database and returns a
// connected raw TCP conn that has already completed HELLO/WELCOME.
func newServer(t *testing.T) (*mmdb.Database, *Server, net.Conn) {
	t.Helper()
	db := mmdb.MustOpen(mmdb.Options{MemoryPages: 64, MaxConcurrentQueries: 2})
	emp, err := db.CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
		mmdb.Field{Name: "name", Kind: mmdb.String, Size: 8},
	))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ada", "bob", "cyd", "dee"}
	for i, n := range names {
		if err := emp.Insert(mmdb.IntValue(int64(i+1)), mmdb.IntValue(int64(100*(i+1))), mmdb.StringValue(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := emp.Flush(); err != nil {
		t.Fatal(err)
	}

	srv := &Server{DB: db, Name: "mmdb test"}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteFrame(conn, THello, EncodeHello(Hello{Version: Version, Class: byte(mmdb.Batch)})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != TWelcome {
		t.Fatalf("handshake: type 0x%02X err %v", typ, err)
	}
	w, err := DecodeWelcome(payload)
	if err != nil || w.Version != Version || w.Server != "mmdb test" {
		t.Fatalf("WELCOME %+v err %v", w, err)
	}
	return db, srv, conn
}

// runQuery drives one QUERY round trip at the raw frame level and
// collects the full RESULT/ROWS/DONE (or ERROR/OVERLOAD) response.
func runQuery(t *testing.T, conn net.Conn, q Query) (Result, []mmdb.Tuple, Done, *ErrorFrame, *Overload) {
	t.Helper()
	if err := WriteFrame(conn, TQuery, EncodeQuery(q)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	switch typ {
	case TError:
		e, err := DecodeError(payload)
		if err != nil {
			t.Fatal(err)
		}
		return Result{}, nil, Done{}, &e, nil
	case TOverload:
		o, err := DecodeOverload(payload)
		if err != nil {
			t.Fatal(err)
		}
		return Result{}, nil, Done{}, nil, &o
	case TResult:
	default:
		t.Fatalf("unexpected frame type 0x%02X", typ)
	}
	res, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := res.Schema()
	if err != nil {
		t.Fatal(err)
	}
	var rows []mmdb.Tuple
	for {
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if typ == TDone {
			d, err := DecodeDone(payload)
			if err != nil {
				t.Fatal(err)
			}
			if int(d.RowCount) != len(rows) {
				t.Fatalf("DONE says %d rows, got %d", d.RowCount, len(rows))
			}
			return res, rows, d, nil, nil
		}
		if typ != TRows {
			t.Fatalf("unexpected frame type 0x%02X mid-response", typ)
		}
		batch, err := DecodeRows(payload, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range batch {
			rows = append(rows, mmdb.Tuple(r))
		}
	}
}

// TestServerQuery checks a full statement round trip: the rows and the
// per-query virtual counters that arrive over the wire must be exactly
// the ones a direct Session call produces.
func TestServerQuery(t *testing.T) {
	db, _, conn := newServer(t)
	const q = "SELECT id, name FROM emp WHERE salary >= 200 ORDER BY id DESC"

	direct, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	res, rows, done, ef, ov := runQuery(t, conn, Query{Class: ClassDefault, SQL: q})
	if ef != nil || ov != nil {
		t.Fatalf("query failed: err=%+v overload=%+v", ef, ov)
	}
	if len(res.Fields) != 2 || res.Fields[0].Name != "id" || res.Fields[1].Name != "name" {
		t.Fatalf("result fields %+v", res.Fields)
	}
	if len(rows) != len(direct.Rows) {
		t.Fatalf("wire %d rows, direct %d", len(rows), len(direct.Rows))
	}
	for i := range rows {
		if !bytes.Equal(rows[i], direct.Rows[i]) {
			t.Fatalf("row %d: wire %x direct %x", i, rows[i], direct.Rows[i])
		}
	}
	c := direct.Counters
	if done.Counters != [6]int64{c.Comps, c.Hashes, c.Moves, c.Swaps, c.SeqIOs, c.RandIOs} {
		t.Fatalf("wire counters %v, direct %+v", done.Counters, c)
	}
	if done.Counters == ([6]int64{}) {
		t.Fatal("counters are all zero; the query charged nothing")
	}

	// An INSERT comes back as a statement result with Affected set, and
	// the connection keeps serving afterward.
	res, rows, _, ef, ov = runQuery(t, conn, Query{Class: ClassDefault,
		SQL: "INSERT INTO emp (id, salary, name) VALUES (5, 500, 'eli')"})
	if ef != nil || ov != nil {
		t.Fatalf("insert failed: err=%+v overload=%+v", ef, ov)
	}
	if res.Affected != 1 || len(res.Fields) != 0 || len(rows) != 0 {
		t.Fatalf("insert result %+v rows %d", res, len(rows))
	}
	_, rows, _, ef, _ = runQuery(t, conn, Query{Class: ClassDefault, SQL: "SELECT id FROM emp"})
	if ef != nil || len(rows) != 5 {
		t.Fatalf("after insert: err=%+v rows=%d", ef, len(rows))
	}
}

// TestServerStatementErrors checks the docs/WIRE.md §5 code mapping and
// that statement failures leave the connection usable.
func TestServerStatementErrors(t *testing.T) {
	_, srv, conn := newServer(t)
	cases := []struct {
		sql  string
		code uint16
		frag string
	}{
		{"SELEC id FROM emp", CodeParse, "§7.2"},
		{"SELECT id FROM nope", CodeSemantic, "§7.3"},
		{"SELECT wat FROM emp", CodeSemantic, "§7.4"},
	}
	for _, tc := range cases {
		_, _, _, ef, _ := runQuery(t, conn, Query{Class: ClassDefault, SQL: tc.sql})
		if ef == nil {
			t.Fatalf("%q: expected ERROR frame", tc.sql)
		}
		if ef.Code != tc.code || !strings.Contains(ef.Msg, tc.frag) {
			t.Fatalf("%q: got code %d msg %q", tc.sql, ef.Code, ef.Msg)
		}
	}
	// Connection still works after three failed statements.
	_, rows, _, ef, _ := runQuery(t, conn, Query{Class: ClassDefault, SQL: "SELECT id FROM emp"})
	if ef != nil || len(rows) != 4 {
		t.Fatalf("after errors: err=%+v rows=%d", ef, len(rows))
	}
	if got := srv.Stats().Errors.Load(); got != 3 {
		t.Fatalf("server counted %d errors, want 3", got)
	}
}

// TestServerPingAndProto checks PING/PONG and that protocol violations
// get a CodeProto ERROR and a closed connection.
func TestServerPingAndProto(t *testing.T) {
	_, _, conn := newServer(t)
	if err := WriteFrame(conn, TPing, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != TPong || len(payload) != 0 {
		t.Fatalf("PING: type 0x%02X payload %v err %v", typ, payload, err)
	}

	// A response-type frame from a client is a protocol violation: the
	// server answers CodeProto and hangs up.
	if err := WriteFrame(conn, TWelcome, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = ReadFrame(conn)
	if err != nil || typ != TError {
		t.Fatalf("proto violation: type 0x%02X err %v", typ, err)
	}
	e, err := DecodeError(payload)
	if err != nil || e.Code != CodeProto {
		t.Fatalf("proto violation: %+v err %v", e, err)
	}
	if _, _, err := ReadFrame(conn); err == nil {
		t.Fatal("connection stayed open after protocol violation")
	}
}

// TestServerHelloVersion checks the HELLO version gate: the server speaks
// one version, answers a client at or ahead of it with that version, and
// refuses every older HELLO with a CodeProto error naming the version it
// supports.
func TestServerHelloVersion(t *testing.T) {
	db := mmdb.MustOpen(mmdb.Options{MemoryPages: 16})
	srv := &Server{DB: db}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	for _, client := range []byte{Version, 99} {
		conn := dial()
		if err := WriteFrame(conn, THello, EncodeHello(Hello{Version: client})); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(conn)
		if err != nil || typ != TWelcome {
			t.Fatalf("client v%d: type 0x%02X err %v", client, typ, err)
		}
		w, err := DecodeWelcome(payload)
		if err != nil || w.Version != Version {
			t.Fatalf("client v%d: WELCOME version %d, want %d (err %v)", client, w.Version, Version, err)
		}
	}

	// Every older HELLO is a protocol error and the connection closes.
	supported := fmt.Sprintf("server speaks %d", Version)
	for _, client := range []byte{0, 1, 2} {
		conn := dial()
		if err := WriteFrame(conn, THello, EncodeHello(Hello{Version: client})); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(conn)
		if err != nil || typ != TError {
			t.Fatalf("client v%d: type 0x%02X err %v, want ERROR", client, typ, err)
		}
		e, err := DecodeError(payload)
		if err != nil || e.Code != CodeProto || !strings.Contains(e.Msg, supported) {
			t.Fatalf("client v%d: refusal %+v err %v, want CodeProto naming %q", client, e, err, supported)
		}
		if _, _, err := ReadFrame(conn); err == nil {
			t.Fatalf("client v%d: connection stayed open after version reject", client)
		}
	}
}

// TestServerReplClusterRouting checks the QUERY read-preference tail end
// to end against a cluster-backed server: SELECTs carrying PrefNearest
// land on a replica, writes always land on the primary, and frames
// without the tail keep working and read from the primary.
func TestServerReplClusterRouting(t *testing.T) {
	cluster, err := mmdb.OpenCluster(mmdb.Options{MemoryPages: 64, MaxConcurrentQueries: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	emp, err := cluster.Primary().CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := emp.Insert(mmdb.IntValue(int64(i+1)), mmdb.IntValue(int64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := emp.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}

	srv := &Server{Cluster: cluster, Name: "cluster test"}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, THello, EncodeHello(Hello{Version: Version, Class: byte(mmdb.Batch)})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != TWelcome {
		t.Fatalf("handshake: type 0x%02X err %v", typ, err)
	}
	if w, err := DecodeWelcome(payload); err != nil || w.Version != Version {
		t.Fatalf("WELCOME %+v err %v", w, err)
	}

	// runQueryV2 sends the payload with the read-preference tail.
	runQueryV2 := func(q Query) (Result, []mmdb.Tuple, *ErrorFrame) {
		t.Helper()
		if err := WriteFrame(conn, TQuery, EncodeQueryV2(q)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if typ == TError {
			e, err := DecodeError(payload)
			if err != nil {
				t.Fatal(err)
			}
			return Result{}, nil, &e
		}
		if typ != TResult {
			t.Fatalf("unexpected frame type 0x%02X", typ)
		}
		res, err := DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := res.Schema()
		if err != nil {
			t.Fatal(err)
		}
		var rows []mmdb.Tuple
		for {
			typ, payload, err := ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if typ == TDone {
				return res, rows, nil
			}
			if typ != TRows {
				t.Fatalf("unexpected frame type 0x%02X mid-response", typ)
			}
			batch, err := DecodeRows(payload, schema)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range batch {
				rows = append(rows, mmdb.Tuple(r))
			}
		}
	}

	// A nearest-replica SELECT lands on a replica.
	before := cluster.Metrics().ReplicaReads
	_, rows, ef := runQueryV2(Query{Class: ClassDefault, SQL: "SELECT id FROM emp", Pref: PrefNearest})
	if ef != nil || len(rows) != 8 {
		t.Fatalf("nearest SELECT: err=%+v rows=%d", ef, len(rows))
	}
	if got := cluster.Metrics().ReplicaReads; got <= before {
		t.Fatalf("nearest SELECT did not read a replica (replicaReads %d -> %d)", before, got)
	}

	// A write carrying the same preference still lands on the primary.
	res, _, ef := runQueryV2(Query{Class: ClassDefault,
		SQL: "INSERT INTO emp (id, salary) VALUES (9, 900)", Pref: PrefNearest})
	if ef != nil || res.Affected != 1 {
		t.Fatalf("routed INSERT: err=%+v affected=%d", ef, res.Affected)
	}
	if rel, err := cluster.Primary().Relation("emp"); err != nil || rel.NumTuples() != 9 {
		t.Fatalf("primary after INSERT: err=%v", err)
	}

	// A frame without the tail still decodes and reads the primary.
	beforePrimary := cluster.Metrics().PrimaryReads
	if err := WriteFrame(conn, TQuery, EncodeQuery(Query{Class: ClassDefault, SQL: "SELECT id FROM emp"})); err != nil {
		t.Fatal(err)
	}
	for {
		typ, _, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if typ == TError {
			t.Fatal("tail-less QUERY failed on cluster server")
		}
		if typ == TDone {
			break
		}
	}
	if got := cluster.Metrics().PrimaryReads; got <= beforePrimary {
		t.Fatalf("tail-less SELECT did not read the primary (primaryReads %d -> %d)", beforePrimary, got)
	}

	// An unknown preference byte is a protocol error.
	if err := WriteFrame(conn, TQuery, EncodeQueryV2(Query{Class: ClassDefault, SQL: "SELECT 1", Pref: 7})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = ReadFrame(conn)
	if err != nil || typ != TError {
		t.Fatalf("bad pref: type 0x%02X err %v", typ, err)
	}
	if e, err := DecodeError(payload); err != nil || e.Code != CodeProto || !strings.Contains(e.Msg, "preference") {
		t.Fatalf("bad pref error: %+v err %v", e, err)
	}
}

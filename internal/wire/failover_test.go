package wire

import (
	"context"
	"net"
	"testing"
	"time"

	"mmdb"
)

// TestWelcomeRoleEpochRoundTrip: the WELCOME role/epoch tail survives a
// round trip, and a payload that stops after the server name (the pre-v3
// layout) is a decode error, not a RoleUnknown welcome.
func TestWelcomeRoleEpochRoundTrip(t *testing.T) {
	w := Welcome{Version: Version, Server: "node-a", Role: RoleReplica, Epoch: 7}
	enc := EncodeWelcome(w)
	got, err := DecodeWelcome(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("WELCOME round trip: %+v != %+v", got, w)
	}
	if _, err := DecodeWelcome(enc[:len(enc)-9]); err == nil {
		t.Fatal("WELCOME without the role/epoch tail decoded")
	}
}

// TestNotPrimaryRoundTrip: the NOT_PRIMARY payload codec.
func TestNotPrimaryRoundTrip(t *testing.T) {
	np := NotPrimary{Epoch: 9, Hint: "127.0.0.1:7420", Msg: "mmdb: not the primary"}
	got, err := DecodeNotPrimary(EncodeNotPrimary(np))
	if err != nil {
		t.Fatal(err)
	}
	if got != np {
		t.Fatalf("NOT_PRIMARY round trip: %+v != %+v", got, np)
	}
	if _, err := DecodeNotPrimary([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated NOT_PRIMARY decoded")
	}
}

// nodeHandshake dials a node server and completes HELLO/WELCOME,
// returning the connection and the decoded WELCOME.
func nodeHandshake(t *testing.T, addr string) (net.Conn, Welcome) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteFrame(conn, THello, EncodeHello(Hello{Version: Version, Class: byte(mmdb.Interactive)})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != TWelcome {
		t.Fatalf("handshake: type 0x%02X err %v", typ, err)
	}
	w, err := DecodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	return conn, w
}

// expectFrame sends one QUERY and returns the first response frame.
func expectFrame(t *testing.T, conn net.Conn, sql string) (byte, []byte) {
	t.Helper()
	q := Query{Class: ClassDefault, SQL: sql, Pref: PrefDefault}
	if err := WriteFrame(conn, TQuery, EncodeQueryV2(q)); err != nil {
		t.Fatal(err)
	}
	typ, resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return typ, resp
}

// drainResponse consumes the remaining frames of a successful response.
func drainResponse(t *testing.T, conn net.Conn) {
	t.Helper()
	for {
		typ, _, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if typ == TDone {
			return
		}
	}
}

// TestNodeServersNotPrimary runs one wire server per cluster node —
// "clients route, nodes don't" — and checks the whole failover surface:
// role and epoch in WELCOME, NOT_PRIMARY with a dialable hint (translated
// through Peers) for writes against the replica, reads still served
// there, and the hint flipping after a promotion demotes the old primary
// under its clients.
func TestNodeServersNotPrimary(t *testing.T) {
	cluster, err := mmdb.OpenCluster(mmdb.Options{MemoryPages: 64, MaxConcurrentQueries: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	if _, err := cluster.Primary().CreateRelation("kv", mmdb.MustSchema(
		mmdb.Field{Name: "k", Kind: mmdb.Int64}, mmdb.Field{Name: "v", Kind: mmdb.Int64})); err != nil {
		t.Fatal(err)
	}

	srvP := &Server{Cluster: cluster, Node: "p", Name: "node-p"}
	srvR := &Server{Cluster: cluster, Node: "r0", Name: "node-r0"}
	addrP, err := srvP.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrR, err := srvR.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := map[string]string{"p": addrP.String(), "r0": addrR.String()}
	srvP.Peers, srvR.Peers = peers, peers
	go srvP.Serve()
	go srvR.Serve()
	t.Cleanup(func() { srvP.Close(); srvR.Close() })

	connP, wp := nodeHandshake(t, addrP.String())
	if wp.Role != RolePrimary || wp.Epoch != 1 {
		t.Fatalf("primary WELCOME role %d epoch %d, want primary/1", wp.Role, wp.Epoch)
	}
	connR, wr := nodeHandshake(t, addrR.String())
	if wr.Role != RoleReplica || wr.Epoch != 1 {
		t.Fatalf("replica WELCOME role %d epoch %d, want replica/1", wr.Role, wr.Epoch)
	}

	// A write against the replica node: NOT_PRIMARY with the primary's
	// dialable address, connection stays open for reads.
	typ, payload := expectFrame(t, connR, "INSERT INTO kv VALUES (1, 1)")
	if typ != TNotPrimary {
		t.Fatalf("write on replica answered frame 0x%02X, want NOT_PRIMARY", typ)
	}
	np, err := DecodeNotPrimary(payload)
	if err != nil {
		t.Fatal(err)
	}
	if np.Epoch != 1 || np.Hint != addrP.String() {
		t.Fatalf("NOT_PRIMARY{Epoch: %d, Hint: %q}, want epoch 1 hint %s", np.Epoch, np.Hint, addrP)
	}
	if typ, _ := expectFrame(t, connR, "SELECT COUNT(*) FROM kv"); typ != TResult {
		t.Fatalf("read on replica answered frame 0x%02X after NOT_PRIMARY", typ)
	}
	drainResponse(t, connR)

	// The write lands on the primary node.
	if typ, _ := expectFrame(t, connP, "INSERT INTO kv VALUES (1, 1)"); typ != TResult {
		t.Fatalf("write on primary answered frame 0x%02X", typ)
	}
	drainResponse(t, connP)

	// Promote the replica: the old primary's node server now answers
	// NOT_PRIMARY pointing at the new primary, with the new epoch.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.Promote(ctx, 0); err != nil {
		t.Fatal(err)
	}
	typ, payload = expectFrame(t, connP, "INSERT INTO kv VALUES (3, 3)")
	if typ != TNotPrimary {
		t.Fatalf("write on demoted primary answered frame 0x%02X, want NOT_PRIMARY", typ)
	}
	np, err = DecodeNotPrimary(payload)
	if err != nil {
		t.Fatal(err)
	}
	if np.Epoch != 2 || np.Hint != addrR.String() {
		t.Fatalf("post-promotion NOT_PRIMARY{Epoch: %d, Hint: %q}, want epoch 2 hint %s", np.Epoch, np.Hint, addrR)
	}
	if typ, _ := expectFrame(t, connR, "INSERT INTO kv VALUES (3, 3)"); typ != TResult {
		t.Fatalf("write on new primary answered frame 0x%02X", typ)
	}
	drainResponse(t, connR)
	if srvR.Stats().NotPrimary.Load() == 0 || srvP.Stats().NotPrimary.Load() == 0 {
		t.Fatal("NOT_PRIMARY refusals were not counted")
	}
}

// TestIdleTimeoutReapsSilentConnection: PING keeps a quiet connection
// alive past the idle deadline, and true silence gets it closed in
// bounded time.
func TestIdleTimeoutReapsSilentConnection(t *testing.T) {
	db := mmdb.MustOpen(mmdb.Options{MemoryPages: 64, MaxConcurrentQueries: 2})
	srv := &Server{DB: db, Name: "idle", IdleTimeout: 80 * time.Millisecond}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	conn, _ := nodeHandshake(t, addr.String())
	// Heartbeats under the deadline keep the connection alive well past
	// several idle windows.
	for i := 0; i < 6; i++ {
		time.Sleep(40 * time.Millisecond)
		if err := WriteFrame(conn, TPing, nil); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		if typ, _, err := ReadFrame(conn); err != nil || typ != TPong {
			t.Fatalf("pong %d: type 0x%02X err %v", i, typ, err)
		}
	}
	// Now go silent: the server must reap the connection, surfacing as a
	// read error here — well before this generous deadline.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadFrame(conn); err == nil {
		t.Fatal("silent connection survived the idle timeout")
	}
}

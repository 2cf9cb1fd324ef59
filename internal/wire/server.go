package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mmdb"
	sqlfront "mmdb/internal/sql"
)

// RowBatch is how many result rows a ROWS frame carries at most.
const RowBatch = 256

// Server serves the wire protocol over TCP, multiplexing connections
// onto the engine's session scheduler: every QUERY frame runs in its
// own admitted session under the frame's (or the connection's) query
// class and memory request, so the priority-class admission machinery —
// including ErrOverloaded shedding — operates per statement, end to end.
type Server struct {
	DB   *mmdb.Database
	Name string // reported in WELCOME

	// Cluster, when set, routes every statement through the cluster's
	// read routing: SELECTs go to a replica or the primary per the
	// statement's read preference (the v2 QUERY tail), writes always to
	// the primary. DB may be left nil; it defaults to Cluster.Primary().
	Cluster *mmdb.Cluster

	// Node, when set alongside Cluster, makes this server one stable
	// cluster node instead of a routing front door: every statement runs
	// on that node's database, whatever role it currently holds. Writes
	// against it while it is not the primary answer NOT_PRIMARY with
	// a hint to the current primary — exactly what a client sees when its
	// primary is demoted under it.
	Node string

	// Peers maps node names to dialable addresses; NOT_PRIMARY hints are
	// translated through it so clients receive an address, not an
	// internal node name.
	Peers map[string]string

	// IdleTimeout, when positive, bounds how long a connection may sit
	// between frames: the read deadline is re-armed before every frame,
	// so a severed or silent peer is collected in bounded time instead of
	// pinning a handler goroutine forever. Clients keep a quiet
	// connection alive with PING.
	IdleTimeout time.Duration

	lis    net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	stats Stats
}

// Stats counts server activity (atomic snapshot via Stats()).
type Stats struct {
	Connections atomic.Uint64 // accepted connections
	Queries     atomic.Uint64 // QUERY frames served (any outcome)
	Errors      atomic.Uint64 // ERROR frames sent
	Overloads   atomic.Uint64 // OVERLOAD frames sent
	NotPrimary  atomic.Uint64 // NOT_PRIMARY frames sent
}

// Stats returns the server's activity counters.
func (srv *Server) Stats() *Stats { return &srv.stats }

// Listen binds addr (e.g. "127.0.0.1:0") without serving yet; the
// returned address carries the chosen port.
func (srv *Server) Listen(addr string) (net.Addr, error) {
	if srv.Node != "" && srv.Cluster == nil {
		return nil, fmt.Errorf("wire: Node %q set without a Cluster", srv.Node)
	}
	if srv.DB == nil && srv.Cluster != nil {
		if srv.Node != "" {
			if srv.DB = srv.Cluster.DatabaseOf(srv.Node); srv.DB == nil {
				return nil, fmt.Errorf("wire: cluster has no node %q", srv.Node)
			}
		} else {
			srv.DB = srv.Cluster.Primary()
		}
	}
	if srv.DB == nil {
		return nil, fmt.Errorf("wire: server has no database")
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv.mu.Lock()
	srv.lis = lis
	srv.conns = make(map[net.Conn]struct{})
	srv.mu.Unlock()
	return lis.Addr(), nil
}

// Serve accepts connections until Close; each connection is handled on
// its own goroutine (one goroutine per connection, one session per
// query). Serve returns nil after Close.
func (srv *Server) Serve() error {
	srv.mu.Lock()
	lis := srv.lis
	srv.mu.Unlock()
	if lis == nil {
		return fmt.Errorf("wire: Serve before Listen")
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			srv.mu.Lock()
			closed := srv.closed
			srv.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			conn.Close()
			return nil
		}
		srv.conns[conn] = struct{}{}
		srv.mu.Unlock()
		srv.stats.Connections.Add(1)
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			defer func() {
				srv.mu.Lock()
				delete(srv.conns, conn)
				srv.mu.Unlock()
				conn.Close()
			}()
			srv.handleConn(conn)
		}()
	}
}

// ListenAndServe is Listen followed by Serve.
func (srv *Server) ListenAndServe(addr string) error {
	if _, err := srv.Listen(addr); err != nil {
		return err
	}
	return srv.Serve()
}

// Shutdown drains the server gracefully: stop accepting, let in-flight
// connections finish on their own, and only when ctx expires force-close
// whatever is still open (returning ctx's error so the caller knows the
// drain was cut short). Close is Shutdown with an already-expired
// context.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true
	lis := srv.lis
	srv.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		srv.mu.Lock()
		for c := range srv.conns {
			c.Close()
		}
		srv.mu.Unlock()
		<-done
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// Close stops accepting, closes every live connection and waits for
// their handlers to finish.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true
	lis := srv.lis
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	srv.wg.Wait()
	return err
}

// protoError sends a CodeProto ERROR and signals the caller to close
// the connection (docs/WIRE.md §5.1: protocol errors are fatal to the
// connection, statement errors are not).
func (srv *Server) protoError(conn net.Conn, format string, args ...any) {
	srv.stats.Errors.Add(1)
	_ = WriteFrame(conn, TError, EncodeError(ErrorFrame{Code: CodeProto, Msg: fmt.Sprintf(format, args...)}))
}

// readFrame reads one frame under the idle deadline: a peer that stays
// silent past IdleTimeout fails the read and the handler exits, so
// severed connections die in bounded time.
func (srv *Server) readFrame(conn net.Conn) (byte, []byte, error) {
	if srv.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(srv.IdleTimeout))
	}
	return ReadFrame(conn)
}

// roleEpoch reports what WELCOME announces: this node's
// current role and the cluster epoch. A standalone database and the
// routing front door both take writes, so they report primary.
func (srv *Server) roleEpoch() (byte, uint64) {
	if srv.Cluster == nil {
		return RolePrimary, 0
	}
	if srv.Node != "" && !srv.Cluster.IsPrimary(srv.Node) {
		return RoleReplica, srv.Cluster.Epoch()
	}
	return RolePrimary, srv.Cluster.Epoch()
}

func (srv *Server) handleConn(conn net.Conn) {
	// HELLO/WELCOME version check and defaults (docs/WIRE.md §4.1).
	typ, payload, err := srv.readFrame(conn)
	if err != nil {
		return
	}
	if typ != THello {
		srv.protoError(conn, "expected HELLO, got frame type 0x%02X", typ)
		return
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		srv.protoError(conn, "bad HELLO: %v", err)
		return
	}
	if hello.Version < MinVersion {
		srv.protoError(conn, "protocol version %d not supported (server speaks %d)", hello.Version, Version)
		return
	}
	if _, err := classOf(hello.Class); err != nil {
		srv.protoError(conn, "%v", err)
		return
	}
	// A client ahead of the server is answered with the server's version.
	welcome := Welcome{Version: Version, Server: srv.Name}
	welcome.Role, welcome.Epoch = srv.roleEpoch()
	if err := WriteFrame(conn, TWelcome, EncodeWelcome(welcome)); err != nil {
		return
	}

	for {
		typ, payload, err := srv.readFrame(conn)
		if err != nil {
			return // EOF, idle timeout, or broken connection
		}
		switch typ {
		case TPing:
			if err := WriteFrame(conn, TPong, nil); err != nil {
				return
			}
		case TQuery:
			q, err := DecodeQuery(payload)
			if err != nil {
				srv.protoError(conn, "bad QUERY: %v", err)
				return
			}
			if !srv.serveQuery(conn, hello, q) {
				return
			}
		default:
			srv.protoError(conn, "unexpected frame type 0x%02X", typ)
			return
		}
	}
}

// newSession admits the statement's session. A node server always runs
// on its own node's database — clients route, nodes don't — so a write
// against a demoted node fails into the NOT_PRIMARY path rather than
// being silently forwarded. A front door (Cluster set, Node empty) uses
// the cluster's read routing: SELECTs may land on a replica per the
// statement's preference, writes on the primary. A plain server runs
// directly on its database.
func (srv *Server) newSession(sql string, opts []mmdb.SessionOption) (*mmdb.Session, error) {
	if srv.Cluster != nil && srv.Node == "" {
		return srv.Cluster.SessionFor(context.Background(), sql, opts...)
	}
	db := srv.DB
	if srv.Cluster != nil {
		if d := srv.Cluster.DatabaseOf(srv.Node); d != nil {
			db = d
		}
	}
	return db.NewSession(context.Background(), opts...)
}

// prefOf maps a wire preference byte onto the engine's ReadPreference.
func prefOf(b byte, maxLag uint64) (mmdb.ReadPreference, error) {
	switch b {
	case PrefPrimary:
		return mmdb.PrimaryOnly(), nil
	case PrefNearest:
		return mmdb.NearestReplica(), nil
	case PrefBounded:
		return mmdb.BoundedStaleness(maxLag), nil
	default:
		return mmdb.ReadPreference{}, fmt.Errorf("wire: unknown read preference %d", b)
	}
}

// classOf validates a wire class byte.
func classOf(b byte) (mmdb.QueryClass, error) {
	c := mmdb.QueryClass(b)
	if int(c) < 0 || int(c) >= mmdb.NumClasses {
		return 0, fmt.Errorf("wire: unknown query class %d", b)
	}
	return c, nil
}

// serveQuery runs one statement in a fresh session and writes its
// response frames. It returns false when the connection must close
// (write failure or protocol error); statement failures — including
// overload shedding — keep the connection alive.
func (srv *Server) serveQuery(conn net.Conn, hello Hello, q Query) bool {
	srv.stats.Queries.Add(1)
	classByte := q.Class
	if classByte == ClassDefault {
		classByte = hello.Class
	}
	class, err := classOf(classByte)
	if err != nil {
		srv.protoError(conn, "%v", err)
		return false
	}
	minPages := q.MinPages
	if minPages == 0 {
		minPages = hello.MinPages
	}
	opts := []mmdb.SessionOption{mmdb.WithClass(class)}
	if minPages > 0 {
		opts = append(opts, mmdb.WithMinPages(int(minPages)))
	}
	if q.Pref != PrefDefault {
		pref, err := prefOf(q.Pref, q.MaxLag)
		if err != nil {
			srv.protoError(conn, "%v", err)
			return false
		}
		opts = append(opts, mmdb.WithReadPreference(pref))
	}

	sess, err := srv.newSession(q.SQL, opts)
	if err != nil {
		var ov *mmdb.OverloadError
		if errors.As(err, &ov) {
			srv.stats.Overloads.Add(1)
			return WriteFrame(conn, TOverload, EncodeOverload(Overload{
				Class: byte(ov.Class),
				Depth: uint32(ov.Depth),
				Msg:   ov.Error(),
			})) == nil
		}
		return srv.writeQueryError(conn, err)
	}
	res, err := sess.Query(q.SQL)
	queued := sess.QueuedFor()
	sess.Close()
	if err != nil {
		return srv.writeQueryError(conn, err)
	}

	result := Result{Affected: res.Affected}
	if res.Schema != nil {
		for i := 0; i < res.Schema.NumFields(); i++ {
			f := res.Schema.Field(i)
			result.Fields = append(result.Fields, FieldDesc{Name: f.Name, Kind: f.Kind, Size: uint16(f.Size)})
		}
	}
	if err := WriteFrame(conn, TResult, EncodeResult(result)); err != nil {
		return false
	}
	for i := 0; i < len(res.Rows); i += RowBatch {
		end := i + RowBatch
		if end > len(res.Rows) {
			end = len(res.Rows)
		}
		if err := WriteFrame(conn, TRows, EncodeRows(res.Rows[i:end])); err != nil {
			return false
		}
	}
	c := res.Counters
	return WriteFrame(conn, TDone, EncodeDone(Done{
		RowCount:  uint32(len(res.Rows)),
		Counters:  [6]int64{c.Comps, c.Hashes, c.Moves, c.Swaps, c.SeqIOs, c.RandIOs},
		ElapsedNS: int64(res.Elapsed),
		QueuedNS:  int64(queued),
	})) == nil
}

// writeQueryError answers a failed statement. A write refused because
// this node is not the primary becomes a NOT_PRIMARY frame — epoch plus a
// dialable hint (the primary's address when Peers knows it) — so the
// client redirects instead of guessing from a message string. The
// connection stays open either way.
func (srv *Server) writeQueryError(conn net.Conn, err error) bool {
	var np *mmdb.NotPrimaryError
	if errors.As(err, &np) {
		srv.stats.NotPrimary.Add(1)
		hint := np.Hint
		if addr, ok := srv.Peers[np.Hint]; ok {
			hint = addr
		}
		return WriteFrame(conn, TNotPrimary, EncodeNotPrimary(NotPrimary{
			Epoch: np.Epoch,
			Hint:  hint,
			Msg:   err.Error(),
		})) == nil
	}
	srv.stats.Errors.Add(1)
	return WriteFrame(conn, TError, EncodeError(ErrorFrame{Code: errCode(err), Msg: err.Error()})) == nil
}

// errCode maps a statement failure onto the WIRE.md §5 code space.
func errCode(err error) uint16 {
	var se *sqlfront.Error
	if errors.As(err, &se) {
		if se.Code == sqlfront.ErrLex || se.Code == sqlfront.ErrSyntax {
			return CodeParse
		}
		return CodeSemantic
	}
	return CodeExec
}

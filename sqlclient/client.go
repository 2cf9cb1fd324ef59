// Package sqlclient is the Go client for the mmdb wire protocol
// (docs/WIRE.md): it dials a server, speaks HELLO/WELCOME, and runs SQL
// statements, decoding result rows back into values and rebuilding the
// engine's typed errors — an OVERLOAD frame comes back as an
// *mmdb.OverloadError and a NOT_PRIMARY frame as an
// *mmdb.NotPrimaryError, so errors.Is works on the client side exactly
// as it does against an in-process Database.
//
// A client dialed with DialMulti is failover-aware: when the node it is
// talking to is demoted (NOT_PRIMARY) or dies (connection loss), it
// reconnects — preferring the address the server hinted as the new
// primary — and retries with bounded exponential backoff. The retry
// respects an idempotence guard: only statements the server never
// acknowledged are re-sent. A write whose connection died after the
// request was sent might have committed, so it fails with a typed
// *InDoubtError instead of being retried blindly.
package sqlclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"mmdb"
	"mmdb/internal/cost"
	"mmdb/internal/fault"
	sqlfront "mmdb/internal/sql"
	"mmdb/internal/wire"
)

// retryBase is the first real-time backoff step between retry attempts;
// each attempt doubles it and adds up to one base of jitter. Clients
// configured with WithRetryClock charge virtual time instead and never
// sleep.
const retryBase = 2 * time.Millisecond

// Option configures a connection at Dial time.
type Option func(*config)

type config struct {
	class        mmdb.QueryClass
	minPages     uint32
	pref         mmdb.ReadPreference
	prefSet      bool
	readTimeout  time.Duration
	writeTimeout time.Duration
	retries      int
	retriesSet   bool
	clock        *cost.Clock
}

// WithClass sets the connection's default query class (every statement
// runs under it unless QueryClass overrides). The zero default is
// Batch, matching mmdb.NewSession.
func WithClass(c mmdb.QueryClass) Option { return func(cfg *config) { cfg.class = c } }

// WithMinPages sets the connection's default minimum memory grant in
// pages (mmdb.WithMinPages on each server-side session). 0 keeps the
// broker's default share.
func WithMinPages(n int) Option { return func(cfg *config) { cfg.minPages = uint32(n) } }

// WithReadPreference sets the connection's default read preference:
// every statement carries it (QueryPref overrides per statement), and a
// cluster-backed server routes SELECTs by it — mmdb.WithReadPreference
// over the wire.
func WithReadPreference(p mmdb.ReadPreference) Option {
	return func(cfg *config) { cfg.pref = p; cfg.prefSet = true }
}

// WithReadTimeout bounds every frame read (responses, PONGs, the
// handshake): a stalled or severed server fails the statement within d
// instead of blocking Query forever. 0 (the default) means no deadline.
func WithReadTimeout(d time.Duration) Option { return func(cfg *config) { cfg.readTimeout = d } }

// WithWriteTimeout bounds every frame write. 0 means no deadline.
func WithWriteTimeout(d time.Duration) Option { return func(cfg *config) { cfg.writeTimeout = d } }

// WithRetries sets how many reconnect-and-retry attempts follow a
// retryable failure (NOT_PRIMARY, connection loss before the request was
// sent, dial failure). DialMulti defaults to fault.DefaultRetries;
// single-address Dial defaults to 0 — no retries, today's behavior.
func WithRetries(n int) Option { return func(cfg *config) { cfg.retries = n; cfg.retriesSet = true } }

// WithRetryClock charges retry backoff to the given virtual clock
// (exponential sequential-IO delay via fault.Retry) instead of sleeping
// real time — the deterministic mode the chaos ladders run under.
func WithRetryClock(clk *cost.Clock) Option { return func(cfg *config) { cfg.clock = clk } }

// Col describes one result column.
type Col struct {
	Name string
	Kind mmdb.Kind
	Size int // byte width of String columns
}

// Result is one statement's outcome: the rows (empty for INSERT or
// DELETE), the affected-row count, and the statement's virtual-clock
// bill as measured by the server.
type Result struct {
	Cols     []Col
	Rows     [][]mmdb.Value
	Affected int64
	Counters mmdb.Counters
	Elapsed  time.Duration // virtual time the statement cost
	Queued   time.Duration // wall time the session queued for admission
	Server   string        // server name from WELCOME
}

// ServerError is a statement failure reported over the wire; Code is a
// wire.Code* constant and Msg the server's rendered error (for parse
// and binding failures it carries the SQL.md §7 citation).
type ServerError struct {
	Code uint16
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("wire: server error %d: %s", e.Code, e.Msg) }

// InDoubtError is the idempotence guard's refusal: the connection died
// after a write statement was sent and before its response arrived, so
// the write may or may not have committed — retrying it blindly could
// apply it twice. The client surfaces the doubt instead; the caller
// decides (re-issue an idempotent statement, or check first).
type InDoubtError struct {
	SQL string
	Err error // the underlying connection failure
}

func (e *InDoubtError) Error() string {
	return fmt.Sprintf("sqlclient: write outcome unknown (connection lost mid-statement): %v", e.Err)
}

func (e *InDoubtError) Unwrap() error { return e.Err }

// retryableError marks a failure the reconnect-and-retry loop may retry:
// it matches fault.ErrTransient (what fault.Retry retries) while still
// unwrapping to the original typed error, so when the budget runs out
// the caller sees the real cause — errors.Is(err, mmdb.ErrNotPrimary)
// keeps working.
type retryableError struct{ err error }

func (e *retryableError) Error() string   { return e.err.Error() }
func (e *retryableError) Unwrap() []error { return []error{e.err, fault.ErrTransient} }

func retryable(err error) error { return &retryableError{err: err} }

// unwrapRetryable strips the retry marker off a final error.
func unwrapRetryable(err error) error {
	var re *retryableError
	if errors.As(err, &re) {
		return re.err
	}
	return err
}

// Client is one logical wire connection, possibly re-established across
// node failures when dialed with DialMulti. Not safe for concurrent
// use: the protocol runs one statement at a time per connection — open
// more clients for concurrency, as mmdbench -exp wire does.
type Client struct {
	cfg     config
	addrs   []string // candidate addresses, in dial order
	cur     int      // index of the address conn was dialed to
	hint    string   // NOT_PRIMARY hint: try this address first on redial
	retries int      // reconnect-and-retry budget per statement

	conn    net.Conn
	server  string
	version byte   // negotiated protocol version from WELCOME
	role    byte   // wire.Role* from WELCOME
	epoch   uint64 // cluster epoch from WELCOME / NOT_PRIMARY
}

// Dial connects to one address and performs the HELLO/WELCOME
// handshake. No automatic retries unless WithRetries asks for them.
func Dial(addr string, opts ...Option) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext is Dial honoring ctx for the TCP connect and handshake.
func DialContext(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	return dialAddrs(ctx, []string{addr}, 0, opts...)
}

// DialMulti connects to the first reachable of several cluster node
// addresses and enables automatic reconnect-and-retry (fault.DefaultRetries
// attempts unless WithRetries overrides): statements that hit
// NOT_PRIMARY or lose their connection before being sent are retried
// against the next candidate — preferring the server's primary hint —
// with bounded exponential backoff. This is the client a failover-aware
// application holds.
func DialMulti(ctx context.Context, addrs []string, opts ...Option) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("sqlclient: DialMulti needs at least one address")
	}
	return dialAddrs(ctx, addrs, fault.DefaultRetries, opts...)
}

func dialAddrs(ctx context.Context, addrs []string, defaultRetries int, opts ...Option) (*Client, error) {
	cfg := config{class: mmdb.Batch}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Client{cfg: cfg, addrs: append([]string(nil), addrs...), retries: defaultRetries}
	if cfg.retriesSet {
		c.retries = cfg.retries
	}
	if err := unwrapRetryable(c.redial(ctx)); err != nil {
		return nil, err
	}
	return c, nil
}

// candidates lists the addresses to try on a redial: the server's
// primary hint first when it is dialable, then the configured addresses
// starting after the one that just failed.
func (c *Client) candidates() []string {
	var out []string
	if c.hint != "" && strings.Contains(c.hint, ":") {
		out = append(out, c.hint)
	}
	for i := 0; i < len(c.addrs); i++ {
		a := c.addrs[(c.cur+i)%len(c.addrs)]
		if len(out) > 0 && out[0] == a {
			continue
		}
		out = append(out, a)
	}
	return out
}

// redial establishes a connection to the first reachable candidate and
// runs the handshake. Failures are marked retryable: the next attempt
// may find the node back up.
func (c *Client) redial(ctx context.Context) error {
	c.closeConn()
	var lastErr error
	for _, addr := range c.candidates() {
		if err := c.dialTo(ctx, addr); err != nil {
			lastErr = err
			continue
		}
		if addr == c.hint {
			c.hint = ""
		}
		for i, a := range c.addrs {
			if a == addr {
				c.cur = i
				break
			}
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("sqlclient: no reachable address")
	}
	return retryable(lastErr)
}

func (c *Client) dialTo(ctx context.Context, addr string) error {
	var d net.Dialer
	if c.cfg.readTimeout > 0 {
		d.Timeout = c.cfg.readTimeout
	}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	c.conn = conn
	if c.cfg.writeTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.writeTimeout))
	}
	err = wire.WriteFrame(conn, wire.THello, wire.EncodeHello(wire.Hello{
		Version:  wire.Version,
		Class:    byte(c.cfg.class),
		MinPages: c.cfg.minPages,
	}))
	if err != nil {
		c.closeConn()
		return err
	}
	typ, payload, err := c.read()
	if err != nil {
		c.closeConn()
		return err
	}
	switch typ {
	case wire.TWelcome:
		w, err := wire.DecodeWelcome(payload)
		if err != nil {
			c.closeConn()
			return err
		}
		if w.Version != wire.Version {
			c.closeConn()
			return fmt.Errorf("sqlclient: server negotiated unsupported protocol version %d", w.Version)
		}
		c.server = w.Server
		c.version = w.Version
		c.role = w.Role
		if w.Epoch > c.epoch {
			c.epoch = w.Epoch
		}
		return nil
	case wire.TError:
		e, derr := wire.DecodeError(payload)
		c.closeConn()
		if derr != nil {
			return derr
		}
		return &ServerError{Code: e.Code, Msg: e.Msg}
	default:
		c.closeConn()
		return fmt.Errorf("sqlclient: unexpected handshake frame 0x%02X", typ)
	}
}

// Server returns the server name announced in the last WELCOME.
func (c *Client) Server() string { return c.server }

// Version returns the negotiated protocol version.
func (c *Client) Version() int { return int(c.version) }

// Role returns the node's announced role (wire.Role*): RolePrimary,
// RoleReplica, or RoleUnknown.
func (c *Client) Role() int { return int(c.role) }

// Epoch returns the highest cluster epoch observed on this client, from
// WELCOME and NOT_PRIMARY frames. 0 until a server reports one.
func (c *Client) Epoch() uint64 { return c.epoch }

// Close closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

func (c *Client) closeConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// write sends one frame under the configured write deadline.
func (c *Client) write(typ byte, payload []byte) error {
	if c.cfg.writeTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.cfg.writeTimeout))
	}
	return wire.WriteFrame(c.conn, typ, payload)
}

// read receives one frame under the configured read deadline.
func (c *Client) read() (byte, []byte, error) {
	if c.cfg.readTimeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.readTimeout))
	}
	return wire.ReadFrame(c.conn)
}

// Ping round-trips a PING frame — the client side of the heartbeat that
// keeps a quiet connection alive under the server's idle timeout.
func (c *Client) Ping() error {
	if c.conn == nil {
		return fmt.Errorf("sqlclient: connection closed")
	}
	if err := c.write(wire.TPing, nil); err != nil {
		return err
	}
	typ, _, err := c.read()
	if err != nil {
		return err
	}
	if typ != wire.TPong {
		return fmt.Errorf("sqlclient: expected PONG, got frame 0x%02X", typ)
	}
	return nil
}

// Query runs one statement under the connection's default class and
// read preference.
func (c *Client) Query(sql string) (*Result, error) {
	return c.query(wire.Query{Class: wire.ClassDefault, SQL: sql}, c.cfg.pref, c.cfg.prefSet)
}

// QueryClass runs one statement under an explicit class and minimum
// memory grant (0 = connection default), the wire path for the
// engine's WithClass/WithMinPages session options.
func (c *Client) QueryClass(sql string, class mmdb.QueryClass, minPages int) (*Result, error) {
	return c.query(wire.Query{Class: byte(class), MinPages: uint32(minPages), SQL: sql}, c.cfg.pref, c.cfg.prefSet)
}

// QueryPref runs one statement under an explicit read preference,
// overriding the connection default: the wire path for the engine's
// WithReadPreference session option.
func (c *Client) QueryPref(sql string, pref mmdb.ReadPreference) (*Result, error) {
	return c.query(wire.Query{Class: wire.ClassDefault, SQL: sql}, pref, true)
}

// query runs one statement with the client's reconnect-and-retry
// policy. Retryable failures — NOT_PRIMARY, dial failures, connection
// loss before the request was acked-as-sent, any read failure — retry
// up to the budget with exponential backoff: virtual (charged to the
// retry clock via fault.Retry) or real jittered time. Terminal failures
// (statement errors, overloads, in-doubt writes) return immediately.
func (c *Client) query(q wire.Query, pref mmdb.ReadPreference, prefSet bool) (*Result, error) {
	// The idempotence guard: SELECTs are always safe to retry; everything
	// else — including text that is not SQL — is conservatively a write.
	isWrite := !sqlfront.IsSelect(q.SQL)
	if c.retries <= 0 {
		res, err := c.attempt(q, pref, prefSet, isWrite)
		return res, unwrapRetryable(err)
	}
	var res *Result
	attempt := 0
	err := fault.Retry(c.cfg.clock, c.retries, func() error {
		if attempt > 0 && c.cfg.clock == nil {
			// Real-time mode: exponential backoff with one base of jitter,
			// so a thundering herd of retrying clients spreads out.
			d := time.Duration(1<<uint(attempt-1)) * retryBase
			time.Sleep(d + time.Duration(rand.Int63n(int64(retryBase))))
		}
		attempt++
		r, err := c.attempt(q, pref, prefSet, isWrite)
		if err == nil {
			res = r
		}
		return err
	})
	return res, unwrapRetryable(err)
}

// attempt runs one statement once, reconnecting first if the previous
// attempt lost the connection. Errors it returns are marked retryable
// exactly when re-sending is safe: the statement provably never reached
// a server that would execute it.
func (c *Client) attempt(q wire.Query, pref mmdb.ReadPreference, prefSet bool, isWrite bool) (*Result, error) {
	if c.conn == nil {
		if err := c.redial(context.Background()); err != nil {
			return nil, err
		}
		if isWrite && c.role == wire.RoleReplica && len(c.addrs) > 1 {
			// The WELCOME role byte says this node cannot take the write;
			// skip to the next candidate without burning a round trip.
			c.closeConn()
			c.cur = (c.cur + 1) % len(c.addrs)
			return nil, retryable(&mmdb.NotPrimaryError{Epoch: c.epoch})
		}
	}
	q.Pref = wire.PrefDefault
	payload := wire.EncodeQuery(q)
	if prefSet {
		q.Pref = byte(pref.Mode)
		q.MaxLag = pref.MaxLSNLag
		payload = wire.EncodeQueryV2(q)
	}
	if err := c.write(wire.TQuery, payload); err != nil {
		// The request may have partially reached the server: a write is
		// in doubt from the first byte out.
		c.closeConn()
		return nil, c.lossErr(q.SQL, isWrite, err)
	}
	typ, payload, err := c.read()
	if err != nil {
		c.closeConn()
		return nil, c.lossErr(q.SQL, isWrite, err)
	}
	switch typ {
	case wire.TError:
		e, derr := wire.DecodeError(payload)
		if derr != nil {
			return nil, derr
		}
		return nil, &ServerError{Code: e.Code, Msg: e.Msg}
	case wire.TOverload:
		o, derr := wire.DecodeOverload(payload)
		if derr != nil {
			return nil, derr
		}
		// Rebuild the engine's typed error so errors.Is/As behave as if
		// the scheduler had shed the caller in-process.
		return nil, &mmdb.OverloadError{Class: mmdb.QueryClass(o.Class), Depth: int(o.Depth)}
	case wire.TNotPrimary:
		np, derr := wire.DecodeNotPrimary(payload)
		if derr != nil {
			return nil, derr
		}
		if np.Epoch > c.epoch {
			c.epoch = np.Epoch
		}
		c.hint = np.Hint
		// The node refused the statement outright — nothing executed, so
		// retrying (against the hinted primary) is always safe, writes
		// included. Reconnect on the next attempt.
		c.closeConn()
		return nil, retryable(&mmdb.NotPrimaryError{Epoch: np.Epoch, Hint: np.Hint})
	case wire.TResult:
	default:
		return nil, fmt.Errorf("sqlclient: unexpected frame 0x%02X", typ)
	}
	wres, err := wire.DecodeResult(payload)
	if err != nil {
		return nil, err
	}
	schema, err := wres.Schema()
	if err != nil {
		return nil, err
	}
	res := &Result{Affected: wres.Affected, Server: c.server}
	for _, f := range wres.Fields {
		res.Cols = append(res.Cols, Col{Name: f.Name, Kind: f.Kind, Size: int(f.Size)})
	}
	for {
		typ, payload, err := c.read()
		if err != nil {
			c.closeConn()
			return nil, c.lossErr(q.SQL, isWrite, err)
		}
		switch typ {
		case wire.TRows:
			rows, err := wire.DecodeRows(payload, schema)
			if err != nil {
				return nil, err
			}
			for _, t := range rows {
				res.Rows = append(res.Rows, schema.Decode(t))
			}
		case wire.TDone:
			d, err := wire.DecodeDone(payload)
			if err != nil {
				return nil, err
			}
			if int(d.RowCount) != len(res.Rows) {
				return nil, fmt.Errorf("sqlclient: DONE reports %d rows, received %d", d.RowCount, len(res.Rows))
			}
			res.Counters = mmdb.Counters{
				Comps: d.Counters[0], Hashes: d.Counters[1], Moves: d.Counters[2],
				Swaps: d.Counters[3], SeqIOs: d.Counters[4], RandIOs: d.Counters[5],
			}
			res.Elapsed = time.Duration(d.ElapsedNS)
			res.Queued = time.Duration(d.QueuedNS)
			return res, nil
		default:
			return nil, fmt.Errorf("sqlclient: unexpected frame 0x%02X mid-response", typ)
		}
	}
}

// lossErr classifies a connection failure mid-statement: reads are
// always safe to retry on a fresh connection; a write whose request may
// have reached the server is in doubt — the idempotence guard — and is
// never retried automatically.
func (c *Client) lossErr(sql string, isWrite bool, err error) error {
	if isWrite {
		return &InDoubtError{SQL: sql, Err: err}
	}
	return retryable(err)
}

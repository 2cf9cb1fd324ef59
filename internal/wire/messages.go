package wire

import (
	"fmt"

	"mmdb/internal/tuple"
)

// Hello is the client's opening frame (docs/WIRE.md §4.1): protocol
// version plus the connection's default query class and memory request.
type Hello struct {
	Version  byte
	Class    byte   // session class for queries that don't override
	MinPages uint32 // 0 = the broker's default share
}

// EncodeHello renders a HELLO payload.
func EncodeHello(h Hello) []byte {
	b := []byte{h.Version, h.Class}
	return appendU32(b, h.MinPages)
}

// DecodeHello parses a HELLO payload.
func DecodeHello(p []byte) (Hello, error) {
	r := &reader{b: p}
	h := Hello{Version: r.u8(), Class: r.u8(), MinPages: r.u32()}
	return h, r.done()
}

// Node roles carried in the WELCOME tail (docs/WIRE.md §7.1).
const (
	RoleUnknown = 0 // the server declined to say
	RolePrimary = 1 // the node accepts writes
	RoleReplica = 2 // read-only: writes answer NOT_PRIMARY
)

// Welcome is the server's HELLO response (docs/WIRE.md §4.1). Besides the
// version it announces the node's role and the cluster epoch — the client
// learns before its first statement whether this node takes writes, and
// can order role information from different nodes by epoch.
type Welcome struct {
	Version byte
	Server  string
	Role    byte   // Role*
	Epoch   uint64 // cluster epoch; 0 when unknown / standalone
}

// EncodeWelcome renders a WELCOME payload: version, server name, then the
// [role u8][epoch u64] tail.
func EncodeWelcome(w Welcome) []byte {
	b := appendString16([]byte{w.Version}, w.Server)
	b = append(b, w.Role)
	return appendU64(b, w.Epoch)
}

// DecodeWelcome parses a WELCOME payload. The role/epoch tail is
// mandatory: a payload that ends after the server name is an error.
func DecodeWelcome(p []byte) (Welcome, error) {
	r := &reader{b: p}
	w := Welcome{Version: r.u8(), Server: r.string16(), Role: r.u8(), Epoch: r.u64()}
	return w, r.done()
}

// ClassDefault in Query.Class means "use the connection's HELLO class".
const ClassDefault = 0xFF

// PrefDefault in Query.Pref means "no read preference attached": reads go
// to the primary, or wherever the server's own default sends them.
const PrefDefault = 0xFF

// Read-preference modes carried in the QUERY tail; they map
// 1:1 onto the engine's ReadPreference modes (docs/WIRE.md §4.2).
const (
	PrefPrimary = 0 // mmdb.ReadPrimary
	PrefNearest = 1 // mmdb.ReadNearest
	PrefBounded = 2 // mmdb.ReadBounded; MaxLag carries the LSN bound
)

// Query is one statement request (docs/WIRE.md §4.2). Class and
// MinPages override the connection defaults per query — this is how the
// engine's WithClass/WithMinPages session options travel end to end.
// Pref/MaxLag are the optional read-preference tail: when Pref is not
// PrefDefault a cluster-backed server routes the statement's reads by
// the carried preference, exactly like mmdb.WithReadPreference.
type Query struct {
	Class    byte   // ClassDefault = connection default
	MinPages uint32 // 0 = connection default
	SQL      string
	Pref     byte   // PrefDefault = none; else Pref* mode
	MaxLag   uint64 // LSN bound for PrefBounded
}

// EncodeQuery renders a QUERY payload without the read-preference tail.
// Use it when the statement carries no preference.
func EncodeQuery(q Query) []byte {
	b := []byte{q.Class}
	b = appendU32(b, q.MinPages)
	return appendString32(b, q.SQL)
}

// EncodeQueryV2 renders a QUERY payload with the read-preference tail
// ([pref u8][max_lag u64] after the SQL).
func EncodeQueryV2(q Query) []byte {
	b := EncodeQuery(q)
	b = append(b, q.Pref)
	return appendU64(b, q.MaxLag)
}

// DecodeQuery parses a QUERY payload. The tail is per-statement optional:
// it is read only when bytes remain after the SQL, and a frame without it
// decodes with Pref = PrefDefault.
func DecodeQuery(p []byte) (Query, error) {
	r := &reader{b: p}
	q := Query{Class: r.u8(), MinPages: r.u32(), SQL: r.string32(), Pref: PrefDefault}
	if r.err == nil && len(r.b) > 0 {
		q.Pref = r.u8()
		q.MaxLag = r.u64()
	}
	return q, r.done()
}

// FieldDesc describes one result column (docs/WIRE.md §4.3): its name,
// value kind, and the byte width of string columns.
type FieldDesc struct {
	Name string
	Kind tuple.Kind
	Size uint16
}

// Result heads a statement's response (docs/WIRE.md §4.3). Row-returning
// statements carry the result schema in Fields; INSERT/DELETE carry an
// empty Fields and the affected-row count.
type Result struct {
	Affected int64
	Fields   []FieldDesc
}

// EncodeResult renders a RESULT payload.
func EncodeResult(res Result) []byte {
	b := appendI64(nil, res.Affected)
	b = appendU16(b, uint16(len(res.Fields)))
	for _, f := range res.Fields {
		b = appendString16(b, f.Name)
		b = append(b, byte(f.Kind))
		b = appendU16(b, f.Size)
	}
	return b
}

// DecodeResult parses a RESULT payload.
func DecodeResult(p []byte) (Result, error) {
	r := &reader{b: p}
	res := Result{Affected: r.i64()}
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		res.Fields = append(res.Fields, FieldDesc{
			Name: r.string16(),
			Kind: tuple.Kind(r.u8()),
			Size: r.u16(),
		})
	}
	return res, r.done()
}

// Schema reconstructs the tuple schema a RESULT describes (nil for
// statement results). The fixed-width encoding makes ROWS frames raw
// concatenated tuples — this schema decodes them.
func (res Result) Schema() (*tuple.Schema, error) {
	if len(res.Fields) == 0 {
		return nil, nil
	}
	fields := make([]tuple.Field, len(res.Fields))
	for i, f := range res.Fields {
		fields[i] = tuple.Field{Name: f.Name, Kind: f.Kind, Size: int(f.Size)}
	}
	return tuple.NewSchema(fields...)
}

// EncodeRows renders a ROWS payload (docs/WIRE.md §4.4): a u16 row count
// followed by the rows' raw fixed-width tuple bytes.
func EncodeRows(rows []tuple.Tuple) []byte {
	b := appendU16(nil, uint16(len(rows)))
	for _, t := range rows {
		b = append(b, t...)
	}
	return b
}

// DecodeRows parses a ROWS payload against the result schema's tuple
// width.
func DecodeRows(p []byte, schema *tuple.Schema) ([]tuple.Tuple, error) {
	if schema == nil {
		return nil, fmt.Errorf("wire: ROWS frame for a statement result")
	}
	r := &reader{b: p}
	n := int(r.u16())
	w := schema.Width()
	rows := make([]tuple.Tuple, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		rows = append(rows, tuple.Tuple(r.bytes(w)))
	}
	return rows, r.done()
}

// Done closes a successful response (docs/WIRE.md §4.5): the row count,
// the statement's six virtual counters, its virtual elapsed time, and
// the wall time the session queued for admission.
type Done struct {
	RowCount  uint32
	Counters  [6]int64 // comps, hashes, moves, swaps, seqIOs, randIOs
	ElapsedNS int64
	QueuedNS  int64
}

// EncodeDone renders a DONE payload.
func EncodeDone(d Done) []byte {
	b := appendU32(nil, d.RowCount)
	for _, c := range d.Counters {
		b = appendI64(b, c)
	}
	b = appendI64(b, d.ElapsedNS)
	return appendI64(b, d.QueuedNS)
}

// DecodeDone parses a DONE payload.
func DecodeDone(p []byte) (Done, error) {
	r := &reader{b: p}
	d := Done{RowCount: r.u32()}
	for i := range d.Counters {
		d.Counters[i] = r.i64()
	}
	d.ElapsedNS = r.i64()
	d.QueuedNS = r.i64()
	return d, r.done()
}

// ErrorFrame reports a failed statement or protocol violation
// (docs/WIRE.md §5).
type ErrorFrame struct {
	Code uint16
	Msg  string
}

// EncodeError renders an ERROR payload.
func EncodeError(e ErrorFrame) []byte {
	return appendString16(appendU16(nil, e.Code), e.Msg)
}

// DecodeError parses an ERROR payload.
func DecodeError(p []byte) (ErrorFrame, error) {
	r := &reader{b: p}
	e := ErrorFrame{Code: r.u16(), Msg: r.string16()}
	return e, r.done()
}

// NotPrimary reports a write refused because this node is not the
// cluster's current primary (docs/WIRE.md §7.2). Epoch orders the
// information (a higher epoch supersedes a lower one) and Hint is the
// address — or, when the server has no address book, the node name — of
// the primary at that epoch, so a client can redirect instead of
// retrying blindly. The connection stays open: reads still work here.
type NotPrimary struct {
	Epoch uint64
	Hint  string
	Msg   string
}

// EncodeNotPrimary renders a NOT_PRIMARY payload.
func EncodeNotPrimary(np NotPrimary) []byte {
	b := appendU64(nil, np.Epoch)
	b = appendString16(b, np.Hint)
	return appendString16(b, np.Msg)
}

// DecodeNotPrimary parses a NOT_PRIMARY payload.
func DecodeNotPrimary(p []byte) (NotPrimary, error) {
	r := &reader{b: p}
	np := NotPrimary{Epoch: r.u64(), Hint: r.string16(), Msg: r.string16()}
	return np, r.done()
}

// Overload reports an admission rejection (docs/WIRE.md §5.2): the
// statement was shed by the scheduler, the connection remains usable.
// Class and Depth mirror the engine's OverloadError so clients can
// rebuild it with errors.Is/As fidelity.
type Overload struct {
	Class byte
	Depth uint32
	Msg   string
}

// EncodeOverload renders an OVERLOAD payload.
func EncodeOverload(o Overload) []byte {
	b := appendU32([]byte{o.Class}, o.Depth)
	return appendString16(b, o.Msg)
}

// DecodeOverload parses an OVERLOAD payload.
func DecodeOverload(p []byte) (Overload, error) {
	r := &reader{b: p}
	o := Overload{Class: r.u8(), Depth: r.u32(), Msg: r.string16()}
	return o, r.done()
}

// Package wire implements the engine's length-prefixed TCP protocol:
// the frame layer, the typed messages, and the server that multiplexes
// connections onto the session scheduler. The byte-level layout is
// specified in docs/WIRE.md — that document is the contract; the
// round-trip tests here cover every frame type it defines.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Version is the protocol version this package speaks. It carries the
// per-statement read-preference tail on QUERY (docs/WIRE.md §4.2), the
// role/epoch tail on WELCOME and the NOT_PRIMARY error frame
// (docs/WIRE.md §7). A client ahead of the server is answered with
// Version in WELCOME.
const Version = 3

// MinVersion is the oldest version the server accepts in HELLO: there is
// one protocol version, and older HELLOs are refused.
const MinVersion = Version

// MaxFrame bounds a frame's length prefix (type byte + payload); larger
// frames are a protocol error and close the connection.
const MaxFrame = 16 << 20

// Frame types (docs/WIRE.md §3). Requests have the high bit clear,
// responses set; errors live at 0xE0+.
const (
	THello      = 0x01
	TQuery      = 0x02
	TPing       = 0x03
	TWelcome    = 0x81
	TResult     = 0x82
	TRows       = 0x83
	TDone       = 0x84
	TPong       = 0x85
	TError      = 0xE0
	TOverload   = 0xE1
	TNotPrimary = 0xE2
)

// Error codes carried by ERROR frames (docs/WIRE.md §5).
const (
	// CodeParse: the statement failed SQL.md §7.1/§7.2 (lex/syntax).
	CodeParse = 1
	// CodeSemantic: the statement failed SQL.md §7.3–§7.7 (binding).
	CodeSemantic = 2
	// CodeExec: the statement failed during execution.
	CodeExec = 3
	// CodeProto: the peer violated this protocol; the connection closes.
	CodeProto = 4
)

// WriteFrame writes one frame: u32 big-endian length of (type byte +
// payload), the type byte, then the payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", len(payload)+1)
	}
	hdr := make([]byte, 5, 5+len(payload))
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)+1))
	hdr[4] = typ
	_, err := w.Write(append(hdr, payload...))
	return err
}

// ReadFrame reads one frame, returning its type byte and payload.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// Primitive payload encoders. Integers are big-endian; strings are
// length-prefixed (u16 for names and messages, u32 for SQL text).

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(b, uint64(v)) }

func appendString16(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

func appendString32(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// reader is a cursor over a frame payload; decode errors stick.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated payload")
	}
	r.b = nil
}

func (r *reader) u8() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *reader) u32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) i64() int64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := int64(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) string16() string { return string(r.bytes(int(r.u16()))) }
func (r *reader) string32() string { return string(r.bytes(int(r.u32()))) }

// done checks the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing payload bytes", len(r.b))
	}
	return nil
}

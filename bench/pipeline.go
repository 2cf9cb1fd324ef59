package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"mmdb"
	"mmdb/internal/sql"
	"mmdb/internal/tuple"
	"mmdb/internal/wire"
)

// exactPrefix is how many statements of the merged stream the exact
// counts (virt.*, wire.bytes_per_stmt, wire.frames_per_stmt) are
// taken over: a fixed prefix, so they do not depend on how many
// statements the host completes in the time. It is a whole number of
// merged cycles (six statements closes every mix's cycle).
func exactPrefix(name string, scale float64) int {
	n := 240
	if name == "analytic_spill" {
		n = 12
	}
	if n = int(float64(n)*scale) / 6 * 6; n < 6 {
		n = 6
	}
	return n
}

// bindCatalog resolves table names for sql.Bind the way the engine's
// own adapter does, through the public Relation handle.
type bindCatalog struct{ db *mmdb.Database }

func (c bindCatalog) Table(name string) (*tuple.Schema, bool) {
	rel, err := c.db.Relation(name)
	if err != nil {
		return nil, false
	}
	return rel.Schema(), true
}

// pipeline performs wire.Server.serveQuery's work, and the client's
// half of the exchange, hop by hop on one goroutine through public
// calls, with a span around each hop. The socket is a buffer.
type pipeline struct {
	db  *mmdb.Database
	tr  *tracer
	buf bytes.Buffer
	req int
}

// stmtResult is what one pipelined statement yields for the oracle
// and the exact counts.
type stmtResult struct {
	rows     [][]mmdb.Value
	affected int64
	counters mmdb.Counters
	bytes    int
	frames   int
}

// frame writes one frame into the buffer socket, counting it.
func (p *pipeline) frame(r *stmtResult, typ byte, payload []byte) error {
	before := p.buf.Len()
	if err := wire.WriteFrame(&p.buf, typ, payload); err != nil {
		return err
	}
	r.bytes += p.buf.Len() - before
	r.frames++
	return nil
}

// run pushes one statement through every hop. With traced false the
// tracer is off and the standalone parse and bind are skipped: that
// is the untraced side of trace.overhead_frac.
func (p *pipeline) run(st stmt, traced bool) (stmtResult, error) {
	var r stmtResult
	p.req++
	p.tr.on = traced
	p.buf.Reset()

	t0 := time.Now()
	root := p.tr.begin(spStmt, 0, p.req)
	err := p.hops(st, root, &r)
	p.tr.end(root)
	if traced {
		p.tr.spans[root-1].Class = st.Class.String()
	} else {
		p.tr.record(span{Req: p.req, Name: spStmtUntraced, Class: st.Class.String()}, t0)
	}
	return r, err
}

func (p *pipeline) hops(st stmt, root int, r *stmtResult) error {
	tr := p.tr

	// sqlclient parses every statement to decide whether a lost
	// connection may be retried.
	h := tr.begin(spClassify, root, p.req)
	_, err := sql.Parse(st.SQL)
	tr.end(h)
	if err != nil {
		return err
	}

	h = tr.begin(spQueryCodec, root, p.req)
	err = p.frame(r, wire.TQuery, wire.EncodeQuery(wire.Query{Class: wire.ClassDefault, SQL: st.SQL}))
	var q wire.Query
	if err == nil {
		var payload []byte
		if _, payload, err = wire.ReadFrame(&p.buf); err == nil {
			q, err = wire.DecodeQuery(payload)
		}
	}
	tr.end(h)
	if err != nil {
		return err
	}

	if tr.on {
		h = tr.begin(spParse, root, p.req)
		ast, err := sql.Parse(q.SQL)
		tr.end(h)
		if err != nil {
			return err
		}
		h = tr.begin(spBind, root, p.req)
		_, err = sql.Bind(ast, bindCatalog{p.db})
		tr.end(h)
		if err != nil {
			return err
		}
	}

	h = tr.begin(spAdmit, root, p.req)
	sess, err := p.db.NewSession(context.Background(), mmdb.WithClass(mmdb.Batch))
	tr.end(h)
	if err != nil {
		return err
	}

	h = tr.begin(spExec, root, p.req)
	res, err := sess.Query(q.SQL)
	tr.end(h)

	h = tr.begin(spRelease, root, p.req)
	queued := sess.QueuedFor()
	sess.Close()
	tr.end(h)
	if err != nil {
		return err
	}

	h = tr.begin(spEncode, root, p.req)
	err = p.encode(r, res, queued)
	tr.end(h)
	if err != nil {
		return err
	}

	h = tr.begin(spDecode, root, p.req)
	err = p.decode(r)
	tr.end(h)
	return err
}

// encode writes the response frames as serveQuery does.
func (p *pipeline) encode(r *stmtResult, res *mmdb.SQLResult, queued time.Duration) error {
	result := wire.Result{Affected: res.Affected}
	if res.Schema != nil {
		for i := 0; i < res.Schema.NumFields(); i++ {
			f := res.Schema.Field(i)
			result.Fields = append(result.Fields, wire.FieldDesc{Name: f.Name, Kind: f.Kind, Size: uint16(f.Size)})
		}
	}
	if err := p.frame(r, wire.TResult, wire.EncodeResult(result)); err != nil {
		return err
	}
	for i := 0; i < len(res.Rows); i += wire.RowBatch {
		end := i + wire.RowBatch
		if end > len(res.Rows) {
			end = len(res.Rows)
		}
		if err := p.frame(r, wire.TRows, wire.EncodeRows(res.Rows[i:end])); err != nil {
			return err
		}
	}
	c := res.Counters
	return p.frame(r, wire.TDone, wire.EncodeDone(wire.Done{
		RowCount:  uint32(len(res.Rows)),
		Counters:  [6]int64{c.Comps, c.Hashes, c.Moves, c.Swaps, c.SeqIOs, c.RandIOs},
		ElapsedNS: int64(res.Elapsed),
		QueuedNS:  int64(queued),
	}))
}

// decode reads the response back as sqlclient does, down to values.
func (p *pipeline) decode(r *stmtResult) error {
	typ, payload, err := wire.ReadFrame(&p.buf)
	if err != nil {
		return err
	}
	if typ != wire.TResult {
		return fmt.Errorf("unexpected frame 0x%02X", typ)
	}
	wres, err := wire.DecodeResult(payload)
	if err != nil {
		return err
	}
	schema, err := wres.Schema()
	if err != nil {
		return err
	}
	r.affected = wres.Affected
	for {
		typ, payload, err := wire.ReadFrame(&p.buf)
		if err != nil {
			return err
		}
		switch typ {
		case wire.TRows:
			rows, err := wire.DecodeRows(payload, schema)
			if err != nil {
				return err
			}
			for _, t := range rows {
				r.rows = append(r.rows, schema.Decode(t))
			}
		case wire.TDone:
			d, err := wire.DecodeDone(payload)
			if err != nil {
				return err
			}
			if int(d.RowCount) != len(r.rows) {
				return fmt.Errorf("DONE reports %d rows, decoded %d", d.RowCount, len(r.rows))
			}
			r.counters = mmdb.Counters{
				Comps: d.Counters[0], Hashes: d.Counters[1], Moves: d.Counters[2],
				Swaps: d.Counters[3], SeqIOs: d.Counters[4], RandIOs: d.Counters[5],
			}
			return nil
		default:
			return fmt.Errorf("unexpected frame 0x%02X mid-response", typ)
		}
	}
}

// tracedPass replays the workload's statement stream — the clients'
// streams merged turn by turn — through the pipeline for at least dur
// and at least prefix statements, tracing every other statement of
// each class. It returns the exact counts taken over the prefix.
func tracedPass(db *mmdb.Database, d *dataset, streams []*stream, tr *tracer, dur time.Duration, prefix int, rep *workloadReport) map[string]metric {
	p := &pipeline{db: db, tr: tr}
	cycle := 1
	for _, s := range streams {
		if c := s.mix.cycle(); c > cycle {
			cycle = c
		}
	}
	cycle *= len(streams)
	type acc struct{ stmts, comps, ios, rows, bytes, frames int64 }
	var byClass [numClasses]acc
	var all acc
	var seen [numClasses]int
	start := time.Now()
	for n := 0; n < prefix || n%cycle != 0 || time.Since(start) < dur; n++ {
		st := streams[n%len(streams)].next()
		traced := seen[st.Class]%2 == 0
		seen[st.Class]++
		r, err := p.run(st, traced)
		rep.Attempted++
		if err == nil {
			err = d.check(st, r.rows, r.affected)
		}
		if err != nil {
			rep.fail(1, fmt.Errorf("traced pass: %s: %w", st.SQL, err))
			continue
		}
		if n < prefix {
			a := &byClass[st.Class]
			a.stmts++
			a.comps += r.counters.Comps
			a.ios += r.counters.SeqIOs + r.counters.RandIOs
			a.rows += int64(len(r.rows))
			all.stmts++
			all.bytes += int64(r.bytes)
			all.frames += int64(r.frames)
		}
	}
	out := make(map[string]metric)
	if all.stmts > 0 {
		out["wire.bytes_per_stmt"] = metric{Value: float64(all.bytes) / float64(all.stmts), N: int(all.stmts)}
		out["wire.frames_per_stmt"] = metric{Value: float64(all.frames) / float64(all.stmts), N: int(all.stmts)}
	}
	for c, a := range byClass {
		if a.stmts == 0 {
			continue
		}
		name := class(c).String()
		n := int(a.stmts)
		out["virt.comps_per_stmt."+name] = metric{Value: float64(a.comps) / float64(a.stmts), N: n}
		out["virt.ios_per_stmt."+name] = metric{Value: float64(a.ios) / float64(a.stmts), N: n}
		if a.rows > 0 {
			out["engine.examined_per_row."+name] = metric{Value: float64(a.comps) / float64(a.rows), N: n}
		}
	}
	return out
}

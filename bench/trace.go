package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary. The benchmark records
// spans from outside the engine, around its calls into each layer; the
// spans of one statement (or cycle, or kernel repetition) share Req.
type span struct {
	ID     int    `json:"id"`               // 1-based; 0 means no span
	Parent int    `json:"parent,omitempty"` // the span that caused this one
	Req    int    `json:"req"`              // request the span belongs to
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"` // statement class, on stmt spans
	Start  int64  `json:"start_ns"`        // since the trace began
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // units of work inside (tuples, records, calls)
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the
// benchmark ends. With on false, begin and end do nothing — not even
// read the clock — which is how the untraced side of
// trace.overhead_frac runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	on    bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true} }

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// record adds a span the caller timed itself, from start until now,
// whether or not the tracer is on.
func (t *tracer) record(s span, start time.Time) {
	s.ID = len(t.spans) + 1
	s.Start, s.End = int64(start.Sub(t.t0)), int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once; a child's excess outside the parent is ignored).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

func writeTraceFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTraceFile(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// Span names. The hops of one statement, in the order
// wire.Server.serveQuery and sqlclient run them.
const (
	spStmt         = "stmt"
	spStmtUntraced = "stmt.untraced" // the same pipeline with the tracer off
	spClassify     = "sqlclient.classify"
	spQueryCodec   = "wire.query_codec"
	spParse        = "sql.parse"
	spBind         = "sql.bind"
	spAdmit        = "session.admit"
	spExec         = "engine.exec"
	spRelease      = "session.release"
	spEncode       = "wire.result_encode"
	spDecode       = "wire.result_decode"
	spCycle        = "cycle"
	spTxnNew       = "txn.new"
	spTxnRun       = "txn.run"
	spRecover      = "recovery.recover"
	kernelPrefix   = "kernel."
)

// frontDoorHops are the hops whose self time is reported as
// <name>_us and summed into frontdoor.share.
var frontDoorHops = []string{spClassify, spQueryCodec, spParse, spBind, spAdmit, spRelease, spEncode, spDecode}

// spanMetrics turns a trace into the per-layer timings. Everything
// here is a pure function of the spans, so a trace file read back
// gives the same numbers the run printed.
//
// sql.parse and sql.bind are timed standalone just before
// Session.Query, which then parses and binds again inside
// engine.exec. A statement's engine time is therefore exec − parse −
// bind, and the shares are taken of stmt − parse − bind: the length
// of the pipeline the server really runs.
func spanMetrics(spans []span) map[string]metric {
	self := selfTimes(spans)
	out := make(map[string]metric)

	type stmtAcc struct {
		class                  string
		dur, exec, parse, bind int64
		hops                   int64
	}
	stmts := make(map[int]*stmtAcc)
	hopSelf := make(map[string]int64)
	untraced := make(map[string][]float64) // class → stmt durations, tracer off
	kernels := make(map[string][]float64)  // kernel metric → per-unit ns
	var txnRuns, recovers []float64        // ns per Run; ns per log record recovered
	hop := make(map[string]bool, len(frontDoorHops))
	for _, h := range frontDoorHops {
		hop[h] = true
	}
	var stmtSelf, stmtDur int64
	for _, s := range spans {
		switch {
		case s.Name == spStmt:
			stmts[s.Req] = &stmtAcc{class: s.Class, dur: s.dur()}
			stmtSelf += self[s.ID]
			stmtDur += s.dur()
		case s.Name == spStmtUntraced:
			untraced[s.Class] = append(untraced[s.Class], float64(s.dur()))
		case strings.HasPrefix(s.Name, kernelPrefix):
			per := float64(s.dur())
			if s.Count > 0 {
				per /= float64(s.Count)
			}
			name := strings.TrimPrefix(s.Name, kernelPrefix)
			kernels[name] = append(kernels[name], per)
		case s.Name == spTxnRun:
			txnRuns = append(txnRuns, float64(s.dur()))
		case s.Name == spRecover && s.Count > 0:
			recovers = append(recovers, float64(s.dur())/float64(s.Count))
		}
	}
	for _, s := range spans {
		a := stmts[s.Req]
		if a == nil || s.Name == spStmt {
			continue
		}
		switch s.Name {
		case spExec:
			a.exec = self[s.ID]
		case spParse:
			a.parse = s.dur()
		case spBind:
			a.bind = s.dur()
		}
		if hop[s.Name] {
			hopSelf[s.Name] += self[s.ID]
			a.hops += self[s.ID]
		}
	}

	if n := len(stmts); n > 0 {
		for _, h := range frontDoorHops {
			out[h+"_us"] = metric{Value: float64(hopSelf[h]) / float64(n) / 1e3, Unit: "us", N: n}
		}
		var engine, door, pipeline int64
		traced := make(map[string][]float64)
		execBy := make(map[string][]float64)
		for _, a := range stmts {
			e := a.exec - a.parse - a.bind
			engine += e
			door += a.hops
			pipeline += a.dur - a.parse - a.bind
			traced[a.class] = append(traced[a.class], float64(a.dur-a.parse-a.bind))
			execBy[a.class] = append(execBy[a.class], float64(e))
		}
		out["engine.share"] = metric{Value: float64(engine) / float64(pipeline), Unit: "ratio", N: n}
		out["frontdoor.share"] = metric{Value: float64(door) / float64(pipeline), Unit: "ratio", N: n}
		out["trace.coverage_frac"] = metric{Value: 1 - float64(stmtSelf)/float64(stmtDur), Unit: "ratio", N: n}
		for c, xs := range execBy {
			out["engine.exec_us."+c] = metric{Value: mean(xs) / 1e3, Unit: "us", N: len(xs)}
		}
		// Overhead: class by class, the traced pipeline against the
		// same pipeline with the tracer off, weighted by class counts.
		var tr, un float64
		for c, xs := range traced {
			if len(untraced[c]) == 0 {
				continue
			}
			w := float64(len(xs) + len(untraced[c]))
			tr += w * mean(xs)
			// The untraced pipeline skips the standalone parse and
			// bind, so its stmt span already is the pipeline length.
			un += w * mean(untraced[c])
		}
		if un > 0 {
			out["trace.overhead_frac"] = metric{Value: tr/un - 1, Unit: "ratio", N: n}
		}
	}
	for name, xs := range kernels {
		def, ok := kernelByName[name]
		if !ok {
			continue
		}
		asc := sorted(xs)
		out[name] = metric{
			Value: percentile(asc, 0.5) / def.perNS, Unit: unitOf(name),
			Q1: percentile(asc, 0.25) / def.perNS, Q3: percentile(asc, 0.75) / def.perNS, N: len(xs),
		}
	}
	if len(txnRuns) > 0 {
		out["txn.run_wall_ms"] = metric{Value: median(txnRuns) / 1e6, Unit: "ms", N: len(txnRuns)}
	}
	if len(recovers) > 0 {
		out["recovery.wall_us_per_record"] = metric{Value: median(recovers) / 1e3, Unit: "us", N: len(recovers)}
	}
	return out
}

// Package fault is the engine's deterministic fault plane: a seeded
// injector that simio disks consult on every charged IO and wal devices
// consult on every page write, driving per-device/per-space schedules of
// transient errors (succeed on retry), permanent device failures, latency
// stalls, and torn log-page writes.
//
// The injector is one mechanism for every fault kind, so a chaos harness
// can compose a hostile storage profile in a few lines:
//
//	inj := fault.NewInjector(seed).
//		TransientEvery("", 50).     // every 50th IO fails once, anywhere
//		StallEvery("accounts", 10, 3).
//		TornEvery("log0", 7)        // the 7th page write to log0 tears
//	disk.SetInjector(inj)
//	logDev.Injector = inj
//
// Errors satisfy errors.Is against both the fault taxonomy
// (ErrTransient/ErrPermanent) and the underlying simio.ErrInjected, so
// pre-existing callers that only know about injected failures keep
// working while retry loops can distinguish what is worth retrying.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"mmdb/internal/cost"
	"mmdb/internal/simio"
	"mmdb/internal/wal"
)

// ErrTransient marks an injected fault that models a transient device
// error: the same operation succeeds if retried. It wraps
// simio.ErrInjected.
var ErrTransient = fmt.Errorf("fault: transient device error: %w", simio.ErrInjected)

// ErrPermanent marks an injected fault that models a permanent device
// failure: retrying cannot help. It wraps simio.ErrInjected.
var ErrPermanent = fmt.Errorf("fault: permanent device failure: %w", simio.ErrInjected)

// DefaultRetries bounds Retry's attempts when the caller passes 0.
const DefaultRetries = 4

// Retry runs op, retrying transient injected faults up to `retries` times
// (0 means DefaultRetries) with exponential backoff charged to clock as
// sequential-IO delay — virtual time, like every other cost in the
// engine. Any error that is not ErrTransient (permanent faults, plain
// injected failures, real errors) is returned immediately: retrying a
// dead device only burns time.
func Retry(clock *cost.Clock, retries int, op func() error) error {
	if retries <= 0 {
		retries = DefaultRetries
	}
	var err error
	for i := 0; ; i++ {
		err = op()
		if err == nil || !errors.Is(err, ErrTransient) || i >= retries {
			return err
		}
		if clock != nil {
			clock.SeqIOs(1 << uint(i)) // backoff before the re-issue
		}
	}
}

// Rerun is query-level retry: it runs attempt, re-running it while a
// transient injected fault kills it, at most n more times. An exhausted
// budget or any other error returns the last error unchanged. Unlike
// Retry there is no backoff — the re-run's own IO is the cost — and an
// attempt must discard whatever a failed one produced.
func Rerun(n int, attempt func() error) error {
	for i := 0; ; i++ {
		err := attempt()
		if err == nil || i >= n || !errors.Is(err, ErrTransient) {
			return err
		}
	}
}

// ruleKind classifies one schedule entry.
type ruleKind int

const (
	transientRule ruleKind = iota
	permanentRule
	stallRule
	tornRule
)

// rule is one scheduled fault: a scope (space/device name, prefix match,
// "" = everything), a trigger (every n-th consultation, or a seeded
// probability), and the fault to inject.
type rule struct {
	scope string
	kind  ruleKind
	every int64   // fire when count%every == 0 (if > 0)
	prob  float64 // else fire with this probability (per-rule seeded rng)
	after int64   // permanentRule: fire on every consultation past this
	burst int     // transientRule: consecutive failures per firing
	extra int64   // stallRule: extra IOs / service times charged
	bytes int     // tornRule: surviving prefix length (0 = half)

	rng   *rand.Rand
	count int64 // consultations within scope
	left  int   // remaining failures of the current transient burst
}

func (r *rule) matches(name string) bool {
	return r.scope == "" || name == r.scope || strings.HasPrefix(name, r.scope)
}

// fires advances the rule's trigger state for one consultation.
func (r *rule) fires() bool {
	r.count++
	if r.every > 0 {
		return r.count%r.every == 0
	}
	if r.after > 0 && r.kind != permanentRule {
		return r.count == r.after // one-shot
	}
	if r.prob > 0 {
		return r.rng.Float64() < r.prob
	}
	return false
}

// Stats counts injector activity.
type Stats struct {
	Consulted  int64 // charged IOs the injector saw
	PageWrites int64 // wal device page writes the injector saw
	Transient  int64 // transient faults injected
	Permanent  int64 // permanent faults injected
	Stalled    int64 // extra IOs / service times injected as latency
	Torn       int64 // torn page writes injected
}

// Injector is a deterministic, seeded schedule of storage faults. It
// implements both simio.Injector (charged IOs on simulated disks) and
// wal.WriteInjector (log/checkpoint device page writes). The zero scope
// "" matches every space or device; otherwise a rule applies to names
// equal to or prefixed by its scope (spill files are named
// hierarchically, so a prefix targets a whole family).
//
// All schedule builders return the injector for chaining and must be
// called before the injector is armed. Consultation is safe for
// concurrent use; determinism under parallel workers holds per-scope as
// long as the scope's IOs are issued by one goroutine (the chaos harness
// runs serial plans for bit-identical verdicts).
type Injector struct {
	mu    sync.Mutex
	seed  int64
	rules []*rule
	stats Stats
}

// NewInjector creates an injector whose probabilistic rules draw from
// streams seeded by seed: same seed, same schedule, same verdicts.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: seed}
}

func (in *Injector) add(r *rule) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	r.rng = rand.New(rand.NewSource(in.seed + int64(len(in.rules))*0x9e3779b9))
	in.rules = append(in.rules, r)
	return in
}

// TransientEvery schedules a single transient failure on every n-th
// charged IO (or page write) within scope.
func (in *Injector) TransientEvery(scope string, n int64) *Injector {
	return in.add(&rule{scope: scope, kind: transientRule, every: n, burst: 1})
}

// TransientBurst is TransientEvery but each firing fails `burst`
// consecutive operations — enough bursts exhaust a bounded retry loop.
func (in *Injector) TransientBurst(scope string, n int64, burst int) *Injector {
	if burst < 1 {
		burst = 1
	}
	return in.add(&rule{scope: scope, kind: transientRule, every: n, burst: burst})
}

// TransientAt schedules exactly one transient burst: the at-th operation
// within scope (1-based) fails, as do the burst-1 matching operations
// after it, and the rule never fires again. A burst longer than the write
// path's bounded retry kills the query transiently while guaranteeing a
// later attempt out-runs the fault — the schedule for testing
// session-level query retry.
func (in *Injector) TransientAt(scope string, at int64, burst int) *Injector {
	if at < 1 {
		at = 1
	}
	if burst < 1 {
		burst = 1
	}
	return in.add(&rule{scope: scope, kind: transientRule, after: at, burst: burst})
}

// TransientProb schedules transient failures with probability p per
// operation, drawn from a per-rule stream seeded by the injector seed.
func (in *Injector) TransientProb(scope string, p float64) *Injector {
	return in.add(&rule{scope: scope, kind: transientRule, prob: p, burst: 1})
}

// PermanentAfter schedules a permanent device failure: the first n
// operations within scope succeed, every later one fails. n=0 means the
// device is dead on arrival.
func (in *Injector) PermanentAfter(scope string, n int64) *Injector {
	return in.add(&rule{scope: scope, kind: permanentRule, after: n})
}

// StallEvery inflates latency: every n-th operation within scope is
// charged `extra` additional IOs of the same kind (or, on a wal device,
// extra write service times) before proceeding.
func (in *Injector) StallEvery(scope string, n int64, extra int64) *Injector {
	return in.add(&rule{scope: scope, kind: stallRule, every: n, extra: extra})
}

// TornEvery schedules a torn page write on every n-th write to the named
// wal device: only a prefix of the page reaches the medium, the write is
// never acknowledged, and the device fails from that point on (the log
// is broken there). bytes... optionally fixes the surviving prefix
// length; the default is half the page.
func (in *Injector) TornEvery(device string, n int64, bytes ...int) *Injector {
	r := &rule{scope: device, kind: tornRule, every: n}
	if len(bytes) > 0 {
		r.bytes = bytes[0]
	}
	return in.add(r)
}

// Stats returns a snapshot of injector activity.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// ChargedIO implements simio.Injector: every charged IO on an armed disk
// is judged here. Stall rules accumulate; among error rules the first
// match wins, with permanent failures taking precedence over transient
// ones (a dead device stays dead).
func (in *Injector) ChargedIO(space string, a simio.Access) simio.Outcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Consulted++
	var out simio.Outcome
	for _, r := range in.rules {
		if !r.matches(space) {
			continue
		}
		switch r.kind {
		case stallRule:
			if r.fires() {
				out.Stall += r.extra
				in.stats.Stalled += r.extra
			}
		case permanentRule:
			r.count++
			if r.count > r.after {
				out.Err = ErrPermanent
				in.stats.Permanent++
			}
		case transientRule:
			if r.left > 0 {
				r.left--
				if out.Err == nil {
					out.Err = ErrTransient
					in.stats.Transient++
				}
			} else if r.fires() {
				r.left = r.burst - 1
				if out.Err == nil {
					out.Err = ErrTransient
					in.stats.Transient++
				}
			}
		}
		if errors.Is(out.Err, ErrPermanent) {
			break
		}
	}
	return out
}

// PageWrite implements wal.WriteInjector: every page write on an armed
// wal device is judged here. Torn beats transient (the write must not
// look retryable if the medium kept a partial page), and permanent beats
// both.
func (in *Injector) PageWrite(device string) wal.WriteFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.PageWrites++
	var wf wal.WriteFault
	for _, r := range in.rules {
		if !r.matches(device) {
			continue
		}
		switch r.kind {
		case stallRule:
			if r.fires() {
				wf.Stall += int(r.extra)
				in.stats.Stalled += r.extra
			}
		case permanentRule:
			r.count++
			if r.count > r.after {
				wf.Permanent = true
				in.stats.Permanent++
			}
		case transientRule:
			if r.left > 0 {
				r.left--
				wf.Transient++
				in.stats.Transient++
			} else if r.fires() {
				r.left = 0 // the whole burst maps onto this one write
				wf.Transient += r.burst
				in.stats.Transient += int64(r.burst)
			}
		case tornRule:
			if r.fires() {
				wf.Torn = true
				wf.TornBytes = r.bytes
				in.stats.Torn++
			}
		}
		if wf.Permanent {
			break
		}
	}
	return wf
}

var (
	_ simio.Injector    = (*Injector)(nil)
	_ wal.WriteInjector = (*Injector)(nil)
)

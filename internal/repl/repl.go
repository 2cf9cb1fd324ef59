// Package repl implements LSN-shipping replication over the simulated
// recovery world: a primary-side Shipper streams the committed, durable
// prefix of a wal.Log to replica appliers, which fold it into their own
// stores with the page-partitioned parallel replay machinery and track
// the LSN horizon they are caught up to.
//
// The contract is the determinism oracle from the roadmap: a replica
// whose applied horizon is n holds a store byte-identical to the
// primary's committed prefix at n (ReferencePrefix). Everything here is
// built to keep that checkable — the stream is the log's own CRC-framed
// pages, apply is strict LSN order, and the virtual-cost counters of the
// apply path are bit-identical at every parallelism width.
package repl

import (
	"errors"
	"fmt"
	"time"

	"mmdb/internal/cost"
	"mmdb/internal/event"
	"mmdb/internal/fault"
	"mmdb/internal/recovery"
	"mmdb/internal/simio"
	"mmdb/internal/store"
	"mmdb/internal/wal"
)

// Config parameterizes a Shipper.
type Config struct {
	Sim *event.Sim
	Log *wal.Log

	// PageSize is the ship-frame size in bytes (0 = the log's page size).
	PageSize int
	// ShipDelay is the virtual latency per shipped frame (0 = 500µs).
	ShipDelay time.Duration
	// PollEvery is the retry/poll period while a replica lags and no
	// durability event is pending (0 = 5ms). Polling only re-arms while
	// there is unshipped data, so an idle simulator stays idle.
	PollEvery time.Duration

	// Parallelism is each replica's apply width (0 = serial).
	Parallelism int
	// Params is the cost model (zero value = cost.DefaultParams).
	Params cost.Params

	// Injector, when set, is consulted once per shipment round per
	// replica under the IO space "repl/ship/<name>": a transient error
	// skips the round (the replica lags and the round is retried), a
	// permanent error breaks the link for good, and a stall outcome
	// delays the delivery by the stall's extra frame-times.
	Injector simio.Injector
}

// ReplicaStats counts one replica's stream activity.
type ReplicaStats struct {
	Deliveries int64 // shipment batches delivered
	Frames     int64 // ship frames delivered
	Records    int64 // records delivered
	Transients int64 // shipment rounds skipped by transient faults
	Stalls     int64 // shipment rounds delayed by stall faults
}

// Replica is the receiving side of one ship stream: a cursor position on
// the primary's log, a relay space the frames land in, and an
// incremental applier building the store.
type Replica struct {
	name    string
	shipper *Shipper
	cursor  *wal.Cursor
	applier *recovery.Applier

	// The relay space models the replica's local log device: delivered
	// frames are appended (uncharged: the network delivered them), then
	// read back and decoded, charging relayClock, exactly like recovery's
	// segment scan.
	relayClock *cost.Clock
	relaySpace *simio.Space
	nextRead   int

	lastDelivery time.Duration
	broken       bool
	stats        ReplicaStats
	lagSamples   []int64 // durable-horizon LSN lag observed at each delivery
}

// Shipper streams a log's durable prefix to a set of replicas. All
// methods must be called from the simulator's event goroutine (or while
// the simulator is quiescent).
type Shipper struct {
	cfg      Config
	pageSize int
	replicas []*Replica
	armed    bool // a pump event is scheduled
}

// NewShipper creates a shipper over the primary's log and subscribes it
// to durable-horizon advances. Add replicas before the primary starts
// writing: each replica's cursor starts at LSN 0 and acts as a
// replication slot, so log truncation never outruns an attached replica.
func NewShipper(cfg Config) (*Shipper, error) {
	if cfg.Sim == nil || cfg.Log == nil {
		return nil, fmt.Errorf("repl: need Sim and Log")
	}
	if cfg.ShipDelay == 0 {
		cfg.ShipDelay = 500 * time.Microsecond
	}
	if cfg.PollEvery == 0 {
		cfg.PollEvery = 5 * time.Millisecond
	}
	if cfg.Params == (cost.Params{}) {
		cfg.Params = cost.DefaultParams()
	}
	s := &Shipper{cfg: cfg, pageSize: cfg.PageSize}
	if s.pageSize == 0 {
		s.pageSize = cfg.Log.Config().PageSize
	}
	cfg.Log.SubscribeDurable(s.schedulePump)
	return s, nil
}

// AddReplica attaches a replica applying into st (a zeroed store with
// the primary's geometry).
func (s *Shipper) AddReplica(name string, st *store.Store) *Replica {
	clk := cost.NewClock(s.cfg.Params)
	r := &Replica{
		name:       name,
		shipper:    s,
		cursor:     s.cfg.Log.NewCursor(0),
		applier:    recovery.NewApplier(st, s.cfg.Parallelism, s.cfg.Params),
		relayClock: clk,
		relaySpace: simio.NewDisk(clk, s.pageSize).MustCreate("relay/" + name),
	}
	s.replicas = append(s.replicas, r)
	return r
}

// Replicas returns the attached replicas.
func (s *Shipper) Replicas() []*Replica { return s.replicas }

// schedulePump coalesces pump requests into one scheduled event.
func (s *Shipper) schedulePump() {
	if s.armed {
		return
	}
	s.armed = true
	s.cfg.Sim.After(0, s.pumpEvent)
}

func (s *Shipper) pumpEvent() {
	s.armed = false
	if s.Pump() && !s.armed {
		// Data is still unshipped (transient fault, or new appends since
		// the cursor read) and no durability event is pending to retry
		// it: poll. The poll disarms itself as soon as nothing lags, so
		// the simulator can go idle.
		s.armed = true
		s.cfg.Sim.After(s.cfg.PollEvery, s.pumpEvent)
	}
}

// Pump runs one shipment round for every live replica and reports
// whether any of them still lags the durable horizon afterwards.
func (s *Shipper) Pump() bool {
	lagging := false
	for _, r := range s.replicas {
		if s.ship(r) {
			lagging = true
		}
	}
	return lagging
}

// ship runs one shipment round to r; reports whether r still lags.
func (s *Shipper) ship(r *Replica) bool {
	if r.broken {
		return false
	}
	durable := s.cfg.Log.DurableLSN()
	if r.cursor.Pos() >= durable {
		return false
	}
	var stall int64
	if inj := s.cfg.Injector; inj != nil {
		out := inj.ChargedIO("repl/ship/"+r.name, simio.Seq)
		if out.Err != nil {
			if errors.Is(out.Err, fault.ErrPermanent) {
				r.breakLink()
				return false
			}
			r.stats.Transients++
			return true // skip this round; retry on the next pump
		}
		if out.Stall > 0 {
			stall = out.Stall
			r.stats.Stalls++
		}
	}
	now := s.cfg.Sim.Now()
	recs := r.cursor.Next(now, 0)
	if len(recs) == 0 {
		return false
	}
	frames, err := wal.PackPages(recs, s.pageSize)
	if err != nil {
		// A record can always fit a log page of its own log's size; this
		// is a programming error, not a runtime condition.
		panic(fmt.Sprintf("repl: pack: %v", err))
	}
	delay := s.cfg.ShipDelay * time.Duration(int64(len(frames))+stall)
	at := now + delay
	if at < r.lastDelivery {
		at = r.lastDelivery // deliveries are FIFO per link
	}
	r.lastDelivery = at
	s.cfg.Sim.At(at, func() { r.deliver(frames) })
	return r.cursor.Pos() < s.cfg.Log.DurableLSN()
}

// breakLink marks the replica permanently disconnected and releases its
// replication slot so it no longer floors log truncation.
func (r *Replica) breakLink() {
	r.broken = true
	r.cursor.Close()
}

// deliver lands a shipment on the replica: frames are appended to the
// relay space, read back with the recovery scan idiom (first page a seek,
// the rest sequential), CRC-decoded, and folded into the applier.
func (r *Replica) deliver(frames [][]byte) {
	if r.broken {
		return
	}
	for _, img := range frames {
		if _, err := r.relaySpace.Append(img, simio.Uncharged); err != nil {
			panic(fmt.Sprintf("repl: relay append: %v", err))
		}
	}
	var recs []wal.Record
	for p := r.nextRead; p < r.relaySpace.NumPages(); p++ {
		access := simio.Seq
		if p == r.nextRead {
			access = simio.Rand
		}
		// The image is the stored page: the relay is append-only, and
		// decoding copies each record out of it.
		img, err := r.relaySpace.Read(p, access)
		if err != nil {
			panic(fmt.Sprintf("repl: relay read: %v", err))
		}
		page, intact := wal.DecodePageTail(img)
		if !intact {
			// Frames are whole log pages; a torn frame means the link
			// corrupted data in flight. Treat it as fatal for the link.
			r.breakLink()
			return
		}
		recs = append(recs, page...)
	}
	r.nextRead = r.relaySpace.NumPages()
	if err := r.applier.Ingest(recs); err != nil {
		panic(fmt.Sprintf("repl: %s: %v", r.name, err))
	}
	r.stats.Deliveries++
	r.stats.Frames += int64(len(frames))
	r.stats.Records += int64(len(recs))
	lag := int64(r.shipper.cfg.Log.DurableLSN()) - int64(r.applier.AppliedLSN())
	if lag < 0 {
		lag = 0
	}
	r.lagSamples = append(r.lagSamples, lag)
}

// CatchUp pumps until every live replica has applied the full durable
// prefix (or only broken replicas remain), running the simulator to
// drain in-flight deliveries between rounds. Call it after the primary
// has quiesced. Rounds are bounded so a pathological injector (every
// round transient forever) cannot hang the caller; it returns false if
// the bound was hit with replicas still lagging.
func (s *Shipper) CatchUp() bool {
	const maxRounds = 10000
	for i := 0; i < maxRounds; i++ {
		lagging := s.Pump()
		s.cfg.Sim.Run()
		if !lagging && s.caughtUp() {
			return true
		}
	}
	return s.caughtUp()
}

func (s *Shipper) caughtUp() bool {
	durable := s.cfg.Log.DurableLSN()
	for _, r := range s.replicas {
		if r.broken {
			continue
		}
		if r.applier.ReceivedLSN() < durable {
			return false
		}
	}
	return true
}

// Name returns the replica's name.
func (r *Replica) Name() string { return r.name }

// Store returns the store the replica is building.
func (r *Replica) Store() *store.Store { return r.applier.Store() }

// AppliedLSN returns the replica's apply frontier: its store equals the
// primary's committed prefix at this LSN.
func (r *Replica) AppliedLSN() wal.LSN { return r.applier.AppliedLSN() }

// ReceivedLSN returns the highest LSN delivered to the replica.
func (r *Replica) ReceivedLSN() wal.LSN { return r.applier.ReceivedLSN() }

// Broken reports whether the link was permanently severed.
func (r *Replica) Broken() bool { return r.broken }

// Stats returns the replica's stream counters.
func (r *Replica) Stats() ReplicaStats { return r.stats }

// LagSamples returns the durable-horizon LSN lag observed at each
// delivery (for staleness percentiles).
func (r *Replica) LagSamples() []int64 { return r.lagSamples }

// ApplyCounters returns the replica's apply-path virtual-cost counters —
// the width-invariant quantity of the determinism oracle.
func (r *Replica) ApplyCounters() cost.Counters { return r.applier.Counters() }

// RelayCounters returns the relay-scan virtual-cost counters.
func (r *Replica) RelayCounters() cost.Counters { return r.relayClock.Counters() }

// Snapshot clones the replica's store together with its apply frontier,
// for deferred byte-identity checks against ReferencePrefix.
func (r *Replica) Snapshot() (*store.Store, wal.LSN) {
	return r.applier.Store().Clone(), r.applier.AppliedLSN()
}

// ReferencePrefix builds the primary's committed prefix at n from the
// full record stream: a zeroed store with the given geometry, with every
// Update at or below n applied in LSN order. (Aborted transactions
// contribute their compensating updates the same way, so the net effect
// matches the primary's own store evolution exactly.) This is the oracle
// a replica with AppliedLSN() == n must be byte-identical to.
func ReferencePrefix(recs []wal.Record, n wal.LSN, numRecords, recSize, recordsPerPage int) (*store.Store, error) {
	st, err := store.New(numRecords, recSize, recordsPerPage)
	if err != nil {
		return nil, err
	}
	var last wal.LSN
	for _, r := range recs {
		if r.LSN < last {
			return nil, fmt.Errorf("repl: reference stream not LSN-ordered at %d", r.LSN)
		}
		last = r.LSN
		if r.LSN > n || r.Type != wal.Update {
			continue
		}
		if err := st.Apply(r.Rec, r.New); err != nil {
			return nil, err
		}
	}
	return st, nil
}

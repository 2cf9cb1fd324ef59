package wal

import (
	"fmt"
	"time"

	"mmdb/internal/event"
)

// CommitPolicy selects when a transaction's commit becomes durable (§5.2,
// §5.4).
type CommitPolicy int

// Commit policies.
const (
	// FlushPerCommit writes a log page for every commit: the conventional
	// scheme the paper bounds at ~100 tps on one 10 ms device.
	FlushPerCommit CommitPolicy = iota
	// GroupCommit releases locks at pre-commit and batches the commit
	// records that share a log page into one write (§5.2).
	GroupCommit
	// StableMemory commits as soon as the commit record reaches the
	// battery-backed log buffer; pages drain to disk in the background
	// (§5.4), optionally compressed to new-values-only.
	StableMemory
)

func (p CommitPolicy) String() string {
	switch p {
	case FlushPerCommit:
		return "flush-per-commit"
	case GroupCommit:
		return "group-commit"
	case StableMemory:
		return "stable-memory"
	default:
		return fmt.Sprintf("CommitPolicy(%d)", int(p))
	}
}

// Config parameterizes a Log.
type Config struct {
	PageSize int // log page size in bytes (the paper's 4096)
	Policy   CommitPolicy
	// Devices are the log disks. With more than one, the log is
	// partitioned by transaction: all records of a transaction go to one
	// fragment, and cross-fragment commit ordering is enforced by the
	// topological ordering of commit groups (§5.2).
	Devices []*Device
	// Compress drops old values of already-committed transactions when a
	// stable-memory page drains to disk (§5.4 log compression). Only
	// meaningful with StableMemory.
	Compress bool
	// StableCapacity bounds the battery-backed region in bytes; appends
	// beyond it are refused until the drain catches up. 0 means 8 pages.
	StableCapacity int
	// SegmentPages is the size, in pages, of the bounded segment files
	// ("<dev>/seg-NNNNNN") every log device's pages are arranged into,
	// beside a persisted dual-slot commit.meta recording the durable
	// {segment, offset, LSN} horizon. Checkpoint truncation deletes whole
	// segments, and recovery skips segments entirely below the published
	// horizon. 0 means 64.
	SegmentPages int
	// CompactSegments enables the §5.6 background compactor: cold
	// segments (every record below the resolved-transaction bound) are
	// rewritten keeping only the newest update per record slot of
	// durably resolved transactions, with pre-images stripped.
	CompactSegments bool
	// CompactEvery is the compactor's wake-up period; 0 means 100ms.
	CompactEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.StableCapacity == 0 {
		c.StableCapacity = 8 * c.PageSize
	}
	if c.SegmentPages == 0 {
		c.SegmentPages = 64
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 100 * time.Millisecond
	}
	return c
}

// Stats reports log activity.
type Stats struct {
	Records      int64
	PagesWritten int64 // pages issued to devices
	BytesLogged  int64 // record bytes appended
	BytesToDisk  int64 // record bytes actually written to devices (after compression)
	Commits      int64 // durable commits delivered
	Groups       int64 // commit groups flushed with at least one commit record
	GroupSizeSum int64 // total commit records across groups (for mean group size)
	Truncated    int64 // records reclaimed by log truncation
	LostPages    int64 // pages whose device write never completed (injected faults)
}

// MeanGroupSize returns the average commits per flushed group.
func (s Stats) MeanGroupSize() float64 {
	if s.Groups == 0 {
		return 0
	}
	return float64(s.GroupSizeSum) / float64(s.Groups)
}

// pendingPage is a sealed commit group on its way to disk.
type pendingPage struct {
	seq     uint64
	records []Record
	commits []TxnID
	deps    []*pendingPage
	done    time.Duration
	durable bool
	lost    bool // the write never completed: its commits are never delivered
}

// fragment is one log partition: its device plus the open buffer page.
type fragment struct {
	dev        *Device
	cur        []Record
	curBytes   int
	curCommits []TxnID
	curDeps    map[*pendingPage]struct{}
	sealArmed  bool // a device-idle seal event is scheduled
}

// Log is the log manager. All methods must be called from the simulator's
// event goroutine.
type Log struct {
	sim *event.Sim
	cfg Config

	nextLSN LSN
	pageSeq uint64
	frags   []*fragment

	// txnGroup maps a pre-committed (not yet durable) transaction to its
	// sealed commit group.
	txnGroup map[TxnID]*pendingPage
	// inBuffer maps a transaction whose commit record sits in a still-open
	// buffer to that fragment.
	inBuffer map[TxnID]*fragment
	// txnPages maps a transaction to the sealed, not yet durable pages
	// carrying its records; its commit group depends on them (WAL).
	txnPages map[TxnID][]*pendingPage

	// Stable-memory region (StableMemory policy).
	stable          []Record
	stableBytes     int
	stableCommitted map[TxnID]bool
	draining        bool
	nextDrainDev    int

	pages        []*pendingPage
	firstPending int // index into pages: everything before it is durable
	truncateLSN  LSN // records below this are reclaimed (log truncation)
	onCommit     func(TxnID)
	onDrain      func()
	stats        Stats

	// bounds, when set by the engine, supplies (horizon, compactable):
	// horizon is the safe truncation/replay bound (min over durable LSN+1,
	// the checkpoint recovery start, and unresolved first-LSNs);
	// compactable is the resolved-transaction bound (min over durable
	// LSN+1 and unresolved first-LSNs) below which segments are cold.
	bounds func() (horizon, compactable LSN)
	// resolved records transactions whose outcome (commit or rollback
	// End) is durable — the compactor may strip their pre-images.
	resolved map[TxnID]bool
	// unresolvedFirst maps each transaction whose outcome is not yet
	// durable to its first record's LSN. The minimum over it is the floor
	// that truncation, the published horizon and segment compaction must
	// all stay below; the engine's own in-flight set is not enough, because
	// an aborting transaction leaves it when its End record is appended,
	// before that record is durable.
	unresolvedFirst map[TxnID]LSN
	compactorIdle   bool // a compact tick is not currently scheduled

	// cursors are the registered replication-stream cursors (stream.go).
	// Each acts as a slot flooring truncation at its unconsumed LSN.
	cursors []*Cursor
	// onDurable subscribers run whenever the durable horizon advances.
	onDurable []func()
}

// NewLog creates a log manager on the simulator.
func NewLog(sim *event.Sim, cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("wal: need at least one log device")
	}
	if cfg.PageSize <= pageHeader+recordHeader {
		return nil, fmt.Errorf("wal: page size %d too small", cfg.PageSize)
	}
	if cfg.Compress && cfg.Policy != StableMemory {
		return nil, fmt.Errorf("wal: log compression requires the stable-memory policy")
	}
	l := &Log{
		sim:             sim,
		cfg:             cfg,
		txnGroup:        make(map[TxnID]*pendingPage),
		inBuffer:        make(map[TxnID]*fragment),
		txnPages:        make(map[TxnID][]*pendingPage),
		stableCommitted: make(map[TxnID]bool),
		resolved:        make(map[TxnID]bool),
		unresolvedFirst: make(map[TxnID]LSN),
		compactorIdle:   true,
	}
	for _, d := range cfg.Devices {
		d.EnableSegments(cfg.SegmentPages)
		l.frags = append(l.frags, &fragment{dev: d, curDeps: make(map[*pendingPage]struct{})})
	}
	return l, nil
}

// Config returns the effective configuration.
func (l *Log) Config() Config { return l.cfg }

// Stats returns a snapshot of log statistics.
func (l *Log) Stats() Stats { return l.stats }

// SetOnCommit installs the durable-commit callback.
func (l *Log) SetOnCommit(fn func(TxnID)) { l.onCommit = fn }

// SetOnDrain installs a callback fired when stable-memory space frees up.
func (l *Log) SetOnDrain(fn func()) { l.onDrain = fn }

// SetBoundsFunc installs the engine's safety-bound oracle: horizon is the
// safe truncation/replay bound published to commit.meta, compactable the
// resolved-transaction bound gating the §5.6 compactor. Without it the horizon defaults to the truncation
// point and the compactor stays idle.
func (l *Log) SetBoundsFunc(fn func() (horizon, compactable LSN)) { l.bounds = fn }

// boundsNow resolves the current (horizon, compactable) pair.
func (l *Log) boundsNow() (LSN, LSN) {
	if l.bounds != nil {
		return l.bounds()
	}
	return l.truncateLSN, 0
}

// PublishMeta pushes the durable frontier and the engine's current horizon
// into every device's commit.meta. The log calls it on durability events
// and after truncation, the engine when the checkpointer advances the
// recovery start point; the directory dedups identical content.
func (l *Log) PublishMeta() {
	horizon, _ := l.boundsNow()
	now := l.sim.Now()
	for _, f := range l.frags {
		f.dev.SegmentDir().Publish(now, uint64(horizon))
	}
}

// payloadCapacity is the record bytes one page holds.
func (l *Log) payloadCapacity() int { return l.cfg.PageSize - pageHeader }

// fragFor routes a transaction to its log partition.
func (l *Log) fragFor(txn TxnID) *fragment {
	return l.frags[int(uint64(txn)%uint64(len(l.frags)))]
}

// Append adds a non-commit record to the log. It reports false when the
// stable-memory region is full (backpressure); volatile buffering always
// succeeds.
func (l *Log) Append(r Record) (LSN, bool) {
	r.LSN = l.assignLSN()
	if l.cfg.Policy == StableMemory {
		if !l.stableAppend(r) {
			l.nextLSN-- // the record was not accepted; reuse the LSN
			return 0, false
		}
		l.noteTxn(r.Txn, r.LSN)
		if r.Type == End {
			l.markResolved(r.Txn) // stable memory is durable by assumption
		}
		return r.LSN, true
	}
	l.noteTxn(r.Txn, r.LSN)
	l.bufferAppend(l.fragFor(r.Txn), r)
	return r.LSN, true
}

// AppendCommit adds txn's commit record. deps lists the pre-committed
// transactions txn read from (its dependency list, §5.2): txn's commit
// group will not be written before theirs. It reports false on
// stable-memory backpressure.
func (l *Log) AppendCommit(txn TxnID, deps []TxnID) bool {
	r := Record{Txn: txn, Type: Commit, LSN: l.assignLSN()}
	if l.cfg.Policy == StableMemory {
		if !l.stableAppend(r) {
			l.nextLSN--
			return false
		}
		l.stableCommitted[txn] = true
		l.markResolved(txn) // stable memory is durable by assumption
		l.deliverCommit(txn)
		return true
	}
	l.noteTxn(txn, r.LSN)
	f := l.fragFor(txn)
	for _, dep := range deps {
		if df, open := l.inBuffer[dep]; open {
			if df == f {
				continue // same open group: ordering is automatic
			}
			// The dependency's commit group is still open on another
			// fragment; seal it so ours can be ordered after it.
			l.seal(df)
		}
		if g, ok := l.txnGroup[dep]; ok && g != nil && !g.durable {
			f.curDeps[g] = struct{}{}
		}
	}
	l.bufferAppend(f, r)
	f.curCommits = append(f.curCommits, txn)
	l.inBuffer[txn] = f

	switch l.cfg.Policy {
	case FlushPerCommit:
		l.seal(f)
	case GroupCommit:
		// Classic group commit: the group rides until either the page
		// fills (bufferAppend seals) or the device falls idle — batching
		// while the device is busy costs the waiting commits nothing.
		l.armIdleSeal(f)
	}
	return true
}

// armIdleSeal schedules a seal for the moment the fragment's device drains
// its queue (immediately if it is idle now).
func (l *Log) armIdleSeal(f *fragment) {
	if f.sealArmed {
		return
	}
	f.sealArmed = true
	l.sim.At(f.dev.BusyUntil(), func() {
		f.sealArmed = false
		if len(f.curCommits) > 0 {
			l.seal(f)
		}
	})
}

// Flush seals and writes all buffered records (end of experiment, or an
// explicit checkpoint boundary).
func (l *Log) Flush() {
	if l.cfg.Policy == StableMemory {
		l.startDrain()
		return
	}
	for _, f := range l.frags {
		l.seal(f)
	}
}

func (l *Log) assignLSN() LSN {
	l.nextLSN++
	return l.nextLSN
}

// CurrentLSN returns the most recently assigned LSN.
func (l *Log) CurrentLSN() LSN { return l.nextLSN }

func (l *Log) bufferAppend(f *fragment, r Record) {
	if r.EncodedSize() > l.payloadCapacity() {
		panic(fmt.Sprintf("wal: record of %d bytes exceeds page payload %d", r.EncodedSize(), l.payloadCapacity()))
	}
	if f.curBytes+r.EncodedSize() > l.payloadCapacity() {
		l.seal(f)
	}
	f.cur = append(f.cur, r)
	f.curBytes += r.EncodedSize()
	l.stats.Records++
	l.stats.BytesLogged += int64(r.EncodedSize())
}

// seal closes the fragment's buffer page and issues its write, honoring
// the topological ordering among commit groups: the write starts only
// after every group it depends on is durable. Per-device writes are FIFO,
// so a transaction's commit page (same fragment as its updates) can never
// overtake its update pages.
func (l *Log) seal(f *fragment) {
	if len(f.cur) == 0 {
		return
	}
	img, err := EncodePage(f.cur, l.cfg.PageSize)
	if err != nil {
		panic(fmt.Sprintf("wal: sealing: %v", err))
	}
	p := &pendingPage{
		seq:     l.pageSeq,
		records: f.cur,
		commits: f.curCommits,
	}
	l.pageSeq++

	deps := make(map[*pendingPage]struct{}, len(f.curDeps))
	for g := range f.curDeps {
		deps[g] = struct{}{}
	}
	// WAL across fragments is structural (per-transaction fragment
	// affinity); txnPages adds a defensive ordering edge in case a
	// transaction's records ever span fragments.
	for _, t := range p.commits {
		for _, q := range l.txnPages[t] {
			deps[q] = struct{}{}
		}
	}
	for g := range deps {
		if !g.durable {
			p.deps = append(p.deps, g)
		}
	}
	for _, t := range p.commits {
		delete(l.inBuffer, t)
		l.txnGroup[t] = p
	}
	for _, r := range p.records {
		if r.Txn != 0 && r.Type != Commit {
			l.txnPages[r.Txn] = append(l.txnPages[r.Txn], p)
		}
	}
	f.cur, f.curBytes, f.curCommits = nil, 0, nil
	f.curDeps = make(map[*pendingPage]struct{})

	earliest := l.sim.Now()
	depLost := false
	for _, g := range p.deps {
		if g.lost {
			depLost = true
		}
		if !g.durable && g.done > earliest {
			earliest = g.done
		}
	}
	if depLost {
		// A group this page is ordered after was lost to a device fault:
		// issuing this write would let its commits become durable before
		// their dependencies, violating the §5.2 topological ordering. The
		// page is lost too, and its commits are never delivered.
		p.lost = true
		l.pages = append(l.pages, p)
		l.stats.LostPages++
		return
	}
	var ok bool
	p.done, ok = f.dev.WriteTagged(earliest, img, p.records[0].LSN, p.records[len(p.records)-1].LSN)
	l.pages = append(l.pages, p)
	l.stats.PagesWritten++
	for _, r := range p.records {
		l.stats.BytesToDisk += int64(r.EncodedSize())
	}
	if len(p.commits) > 0 {
		l.stats.Groups++
		l.stats.GroupSizeSum += int64(len(p.commits))
	}
	if !ok {
		// The device lost the write (permanent failure or torn page): the
		// page never becomes durable, its commits are never acknowledged,
		// and recovery sees at most a checksum-guarded prefix of it.
		p.lost = true
		l.stats.LostPages++
		return
	}
	l.sim.At(p.done, func() {
		p.durable = true
		for _, t := range p.commits {
			delete(l.txnGroup, t)
			delete(l.txnPages, t)
			l.markResolved(t)
			l.deliverCommit(t)
		}
		for _, r := range p.records {
			if r.Type == End {
				delete(l.txnPages, r.Txn) // rollback complete; nothing depends on it anymore
				l.markResolved(r.Txn)
			}
		}
		l.PublishMeta()
		l.kickCompactor()
		l.notifyDurable()
	})
}

// noteTxn records txn's first log record so UnresolvedFloor can bound
// truncation and the published horizon until txn's outcome is durable.
func (l *Log) noteTxn(txn TxnID, lsn LSN) {
	if txn == 0 || l.resolved[txn] {
		return
	}
	if _, ok := l.unresolvedFirst[txn]; !ok {
		l.unresolvedFirst[txn] = lsn
	}
}

// markResolved records that txn's outcome (commit, or rollback End) is
// durable: its pre-images may be compacted away and it no longer floors
// truncation.
func (l *Log) markResolved(txn TxnID) {
	l.resolved[txn] = true
	delete(l.unresolvedFirst, txn)
}

// UnresolvedFloor returns the smallest first-record LSN among transactions
// whose outcome is not yet durable; ok=false when every logged transaction
// has durably resolved.
func (l *Log) UnresolvedFloor() (LSN, bool) {
	var min LSN
	found := false
	for _, lsn := range l.unresolvedFirst {
		if !found || lsn < min {
			min, found = lsn, true
		}
	}
	return min, found
}

func (l *Log) deliverCommit(txn TxnID) {
	l.stats.Commits++
	if l.onCommit != nil {
		l.onCommit(txn)
	}
}

// DurableLSN returns the highest LSN below which every log record is
// durable: disk-resident, or (under the stable-memory policy) in the
// battery-backed region. The checkpointer consults this to honor the WAL
// rule before writing a data page.
func (l *Log) DurableLSN() LSN {
	if l.cfg.Policy == StableMemory {
		return l.nextLSN // stable memory is durable by assumption (§5.1)
	}
	min := l.nextLSN + 1
	for l.firstPending < len(l.pages) && l.pages[l.firstPending].durable {
		l.firstPending++
	}
	for _, p := range l.pages[l.firstPending:] {
		if !p.durable && len(p.records) > 0 && p.records[0].LSN < min {
			min = p.records[0].LSN
		}
	}
	for _, f := range l.frags {
		if len(f.cur) > 0 && f.cur[0].LSN < min {
			min = f.cur[0].LSN
		}
	}
	return min - 1
}

// --- stable memory ---

func (l *Log) stableAppend(r Record) bool {
	if l.stableBytes+r.EncodedSize() > l.cfg.StableCapacity {
		l.startDrain()
		return false
	}
	l.stable = append(l.stable, r)
	l.stableBytes += r.EncodedSize()
	l.stats.Records++
	l.stats.BytesLogged += int64(r.EncodedSize())
	if l.stableBytes >= l.payloadCapacity() {
		l.startDrain()
	}
	return true
}

// startDrain writes one page worth of stable records to disk, compressing
// committed transactions' records to new-values-only when enabled. Further
// pages chain from the completion event. The drained prefix stays in
// stable memory until the write completes: a crash mid-write must still
// find the records somewhere durable.
func (l *Log) startDrain() {
	if l.draining || len(l.stable) == 0 {
		return
	}
	var page []Record
	bytes := 0
	n := 0
	for _, r := range l.stable {
		out := r
		if l.cfg.Compress && r.Type == Update && l.stableCommitted[r.Txn] {
			out = r.WithoutOld()
		}
		if bytes+out.EncodedSize() > l.payloadCapacity() {
			break
		}
		page = append(page, out)
		bytes += out.EncodedSize()
		n++
	}
	if n == 0 {
		panic("wal: stable record exceeds page payload")
	}
	img, err := EncodePage(page, l.cfg.PageSize)
	if err != nil {
		panic(fmt.Sprintf("wal: draining: %v", err))
	}
	freed := 0
	for _, r := range l.stable[:n] {
		freed += r.EncodedSize()
	}
	l.draining = true

	dev := l.cfg.Devices[l.nextDrainDev]
	l.nextDrainDev = (l.nextDrainDev + 1) % len(l.cfg.Devices)
	done, ok := dev.WriteTagged(l.sim.Now(), img, page[0].LSN, page[len(page)-1].LSN)
	p := &pendingPage{seq: l.pageSeq, records: page, done: done}
	l.pageSeq++
	l.pages = append(l.pages, p)
	l.stats.PagesWritten++
	l.stats.BytesToDisk += int64(bytes)
	if !ok {
		// The drain write was lost. The records stay in stable memory —
		// which is durable by assumption (§5.1) — so nothing is lost, but
		// this drain makes no progress and frees no space.
		p.lost = true
		l.stats.LostPages++
		l.draining = false
		return
	}
	l.sim.At(done, func() {
		p.durable = true
		l.draining = false
		l.stable = append([]Record(nil), l.stable[n:]...)
		l.stableBytes -= freed
		l.PublishMeta()
		l.kickCompactor()
		l.notifyDurable()
		if l.onDrain != nil {
			l.onDrain()
		}
		if l.stableBytes >= l.payloadCapacity() || (l.stableBytes > 0 && l.sim.Pending() == 0) {
			l.startDrain()
		}
	})
}

// TruncateBefore reclaims the log prefix below lsn: records with smaller
// LSNs no longer appear in the recovery view. The caller is responsible
// for the §5.5 safety bound — lsn must not exceed the recovery start
// point (the oldest entry of the stable first-update table) nor the first
// LSN of any unresolved transaction, or redo/undo would lose work.
// Truncation only moves forward, and is additionally floored by any
// registered stream cursors (replication slots): a record no cursor has
// consumed yet survives truncation so lagging replicas can still catch
// up from this log.
func (l *Log) TruncateBefore(lsn LSN) {
	if floor, ok := l.shipFloor(); ok && lsn > floor {
		lsn = floor
	}
	if lsn <= l.truncateLSN {
		return
	}
	l.truncateLSN = lsn
	// Account reclaimed records on fully-truncated durable pages and drop
	// their images.
	keep := l.pages[:0]
	for _, p := range l.pages {
		allBelow := p.durable && len(p.records) > 0 && p.records[len(p.records)-1].LSN < lsn
		if allBelow {
			l.stats.Truncated += int64(len(p.records))
			continue
		}
		keep = append(keep, p)
	}
	l.pages = keep
	l.firstPending = 0
	// Truncation is physical: whole segment files wholly below the horizon
	// are deleted, and the new horizon is published to commit.meta.
	now := l.sim.Now()
	for _, f := range l.frags {
		f.dev.SegmentDir().DeleteBelow(now, uint64(lsn))
	}
	l.PublishMeta()
}

// TruncatedLSN returns the current truncation horizon.
func (l *Log) TruncatedLSN() LSN { return l.truncateLSN }

// StableRecords returns the records currently held in stable memory,
// including a prefix whose drain to disk is still in flight.
func (l *Log) StableRecords() []Record {
	return append([]Record(nil), l.stable...)
}

// DurableRecords reconstructs the single merged log visible after a crash
// at time t: the durable prefix of every device fragment merged by LSN
// (§5.2's sort-merge of log fragments), followed by stable memory's
// surviving records when the policy is StableMemory. Duplicates (a record
// both drained to disk and still in stable memory) collapse in the merge.
//
// The segment directory is the medium of record: it reflects
// truncation-by-deletion and compaction. Page images are decoded
// tolerantly: device writes are FIFO, so a torn or corrupt page is
// necessarily the effective tail of its fragment — nothing later on that
// device can be durable — and the per-record checksums let the decode cut
// the fragment at the last intact record instead of erroring. The error
// return is retained for interface stability but is always nil.
func (l *Log) DurableRecords(t time.Duration) ([]Record, error) {
	var fragments [][]Record
	for _, d := range l.cfg.Devices {
		var frag []Record
	segs:
		for _, s := range d.DurableSegments(t).Segments {
			for _, img := range s.Pages {
				recs, intact := DecodePageTail(img)
				frag = append(frag, recs...)
				if !intact {
					break segs
				}
			}
		}
		fragments = append(fragments, frag)
	}
	if l.cfg.Policy == StableMemory {
		fragments = append(fragments, l.StableRecords())
	}
	merged := MergeFragments(fragments)
	if l.truncateLSN > 0 {
		lo, hi := 0, len(merged)
		for lo < hi {
			mid := (lo + hi) / 2
			if merged[mid].LSN < l.truncateLSN {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		merged = merged[lo:]
	}
	return merged, nil
}

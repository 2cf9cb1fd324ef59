// Package checkpoint implements the §5.3 background checkpointer: a sweep
// process that writes dirty data pages to stable storage without quiescing
// transaction processing, keeping the disk arm as busy as possible. Each
// completed page write resets the page's entry in the stable-memory
// first-update table (§5.5), which bounds how far back recovery must read
// the log.
package checkpoint

import (
	"time"

	"mmdb/internal/event"
	"mmdb/internal/store"
	"mmdb/internal/wal"
)

// Snapshot is the on-disk database image accumulated by checkpointing.
type Snapshot struct {
	pages map[int][]byte
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{pages: make(map[int][]byte)}
}

// Install stores the image of page p.
func (s *Snapshot) Install(p int, img []byte) {
	s.pages[p] = append([]byte(nil), img...)
}

// Pages returns the snapshot's page images (shared; callers must not
// mutate).
func (s *Snapshot) Pages() map[int][]byte { return s.pages }

// Len returns the number of checkpointed pages.
func (s *Snapshot) Len() int { return len(s.pages) }

// Checkpointer sweeps dirty pages to a data disk.
type Checkpointer struct {
	sim  *event.Sim
	st   *store.Store
	log  *wal.Log
	disk *wal.Device
	snap *Snapshot

	active  bool
	writing bool

	// pending maps pages with an in-flight checkpoint write to the
	// first-update LSN their dirty entry carried at issue time. The store's
	// entry is cleared at issue so updates arriving during the write
	// re-dirty the page with their own LSN; if the machine crashes before
	// the write completes, the pending entry is what the stable table
	// still holds (the real system only resets the table on completion).
	pending map[int]wal.LSN

	// PagesWritten counts completed checkpoint page writes.
	PagesWritten int64

	// OnAdvance, when set, fires after each completed page write — the
	// recovery start point may have advanced, so the engine can republish
	// the log's commit.meta horizon.
	OnAdvance func()
}

// New creates a checkpointer writing page images of st to disk. The WAL
// rule is enforced against log: a page is written only once every log
// record it reflects is durable.
func New(sim *event.Sim, st *store.Store, log *wal.Log, disk *wal.Device, snap *Snapshot) *Checkpointer {
	return &Checkpointer{sim: sim, st: st, log: log, disk: disk, snap: snap, pending: make(map[int]wal.LSN)}
}

// StableFirstUpdateTable returns the crash-durable first-update table: the
// store's live entries merged with entries whose checkpoint write has not
// completed. Recovery's redo lower bound is the minimum over this table.
func (c *Checkpointer) StableFirstUpdateTable() map[int]wal.LSN {
	out := make(map[int]wal.LSN)
	for _, p := range c.st.DirtyPages() {
		lsn, _ := c.st.FirstUpdateLSN(p)
		out[p] = lsn
	}
	for p, lsn := range c.pending {
		if cur, ok := out[p]; !ok || lsn < cur {
			out[p] = lsn
		}
	}
	return out
}

// RecoveryStartLSN returns the redo lower bound after a crash right now:
// the oldest entry in the stable first-update table, or ok=false when the
// snapshot is current.
func (c *Checkpointer) RecoveryStartLSN() (wal.LSN, bool) {
	var min wal.LSN
	found := false
	for _, lsn := range c.StableFirstUpdateTable() {
		if !found || lsn < min {
			min, found = lsn, true
		}
	}
	return min, found
}

// InitialSnapshot records every page's current image, the load-time
// checkpoint the paper's recovery scheme starts from.
func (c *Checkpointer) InitialSnapshot() {
	for p := 0; p < c.st.NumPages(); p++ {
		c.snap.Install(p, c.st.PageImage(p))
		c.st.Checkpointed(p)
	}
}

// Start begins the background sweep.
func (c *Checkpointer) Start() {
	c.active = true
	c.Kick()
}

// Stop halts the sweep after any in-flight write.
func (c *Checkpointer) Stop() {
	c.active = false
}

// Kick nudges the sweeper; the engine calls it when pages become dirty.
func (c *Checkpointer) Kick() {
	if !c.active || c.writing {
		return
	}
	c.next()
}

// next picks the dirty page with the oldest first-update LSN — the page
// holding back the recovery start point — captures its image, and writes
// it once the log is durable past the image's newest update (WAL rule).
func (c *Checkpointer) next() {
	pick := -1
	var oldest wal.LSN
	for _, p := range c.st.DirtyPages() {
		first, _ := c.st.FirstUpdateLSN(p)
		if pick == -1 || first < oldest {
			pick, oldest = p, first
		}
	}
	if pick == -1 {
		return
	}
	img := c.st.PageImage(pick)
	last := c.st.LastUpdateLSN(pick)
	c.pending[pick] = oldest
	c.st.Checkpointed(pick) // re-dirtying during the write starts a fresh entry
	c.writing = true
	c.writeWhenDurable(pick, img, last)
}

// writeWhenDurable issues the page write once every log record the image
// reflects is durable, polling the log horizon until then.
func (c *Checkpointer) writeWhenDurable(pick int, img []byte, last wal.LSN) {
	if c.log.DurableLSN() < last {
		c.sim.After(time.Millisecond, func() {
			if !c.active {
				// Restore the dirty entry so a later restart retries the
				// page; the write never happened.
				c.writing = false
				return
			}
			c.writeWhenDurable(pick, img, last)
		})
		return
	}
	done, ok := c.disk.Write(c.sim.Now(), img)
	if !ok {
		// The checkpoint device lost the write. The snapshot keeps its old
		// image (still consistent with its first-update entry), so recovery
		// simply replays more log; the checkpointer stops making progress.
		c.writing = false
		return
	}
	c.sim.At(done, func() {
		c.snap.Install(pick, img)
		delete(c.pending, pick)
		c.PagesWritten++
		c.writing = false
		if c.OnAdvance != nil {
			c.OnAdvance()
		}
		c.Kick()
	})
}

package seglog

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
	"time"
)

// CommitPos is the persisted durable position of one log device: the
// highest {segment, offset} whose page write has completed, the last LSN
// on that page, and the engine's truncation horizon at publish time.
// Recovery may skip any segment whose records all fall below Horizon —
// the horizon is the min over the durable LSN, the checkpoint recovery
// start point, and the first LSN of every unresolved transaction, so
// everything below it is already reflected in the checkpoint snapshot
// and belongs to resolved transactions.
type CommitPos struct {
	Epoch   uint64 // monotone write counter (dual-slot arbitration)
	Seg     uint64 // segment index of the durable frontier
	Off     uint64 // pages durable within that segment
	Durable uint64 // last LSN on the durable frontier page
	Horizon uint64 // safe replay horizon at publish time
}

// commitPosSize is the on-medium size of an encoded CommitPos: five
// 8-byte fields plus a CRC32 trailer.
const commitPosSize = 5*8 + 4

// EncodeCommitPos frames the position with a CRC32 trailer so a torn
// commit.meta slot write is detectable.
func EncodeCommitPos(p CommitPos) []byte {
	buf := make([]byte, commitPosSize)
	binary.BigEndian.PutUint64(buf[0:], p.Epoch)
	binary.BigEndian.PutUint64(buf[8:], p.Seg)
	binary.BigEndian.PutUint64(buf[16:], p.Off)
	binary.BigEndian.PutUint64(buf[24:], p.Durable)
	binary.BigEndian.PutUint64(buf[32:], p.Horizon)
	binary.BigEndian.PutUint32(buf[40:], crc32.ChecksumIEEE(buf[:40]))
	return buf
}

// DecodeCommitPos validates the CRC frame and returns the position.
// A short or corrupt image (a torn slot write) reports ok=false.
func DecodeCommitPos(buf []byte) (CommitPos, bool) {
	if len(buf) < commitPosSize {
		return CommitPos{}, false
	}
	if crc32.ChecksumIEEE(buf[:40]) != binary.BigEndian.Uint32(buf[40:]) {
		return CommitPos{}, false
	}
	return CommitPos{
		Epoch:   binary.BigEndian.Uint64(buf[0:]),
		Seg:     binary.BigEndian.Uint64(buf[8:]),
		Off:     binary.BigEndian.Uint64(buf[16:]),
		Durable: binary.BigEndian.Uint64(buf[24:]),
		Horizon: binary.BigEndian.Uint64(buf[32:]),
	}, true
}

// metaWrite is one commit.meta slot rewrite: the image it puts on the
// medium and its service window on the device's meta lane. Rewrite i
// (epoch i+1) goes to slot (i+1)%2, so the two ping-pong slots alternate
// and at most one is ever mid-write; the reader arbitrates by CRC
// validity, then highest epoch.
type metaWrite struct {
	img []byte
	Window
}

// metaState tracks the dual-slot commit.meta file of one device.
type metaState struct {
	writes   []metaWrite // every rewrite issued, in issue order
	last     CommitPos   // last content issued (dedup)
	haveLast bool
}

// publish issues a meta slot rewrite for pos if it differs from the last
// issued content. Writes are serviced serially on the device's meta lane,
// so a rewrite may be queued behind earlier ones and start later than now.
func (m *metaState) publish(now time.Duration, pos CommitPos, writeTime time.Duration) {
	if m.haveLast && pos.Seg == m.last.Seg && pos.Off == m.last.Off &&
		pos.Durable == m.last.Durable && pos.Horizon == m.last.Horizon {
		return
	}
	pos.Epoch = uint64(len(m.writes)) + 1
	m.last, m.haveLast = pos, true
	start := now
	if n := len(m.writes); n > 0 {
		start = max(start, m.writes[n-1].Done)
	}
	m.writes = append(m.writes, metaWrite{img: EncodeCommitPos(pos), Window: Window{Start: start, Done: start + writeTime}})
}

// durable arbitrates the two slots as seen by a crash at time t. A slot
// holds the last rewrite that started on it before t; a rewrite that had
// not finished by t is torn and left only the prefix its progress wrote,
// which fails the CRC. A rewrite queued but not started by t is not on the
// medium and hides nothing. Rewrites start in issue order and alternate
// slots, so the slots hold the last rewrite started before t and the one
// issued just before it. The valid one with the higher epoch wins.
// ok=false means no valid slot — the device never published, and recovery
// must scan from the start.
func (m *metaState) durable(t time.Duration) (CommitPos, bool) {
	k := sort.Search(len(m.writes), func(i int) bool { return m.writes[i].Start >= t })
	for i := k - 1; i >= max(0, k-2); i-- {
		w := m.writes[i]
		img := w.img
		if w.Done > t {
			frac := float64(t-w.Start) / float64(w.Done-w.Start)
			img = img[:int(frac*float64(len(img)))]
		}
		if pos, ok := DecodeCommitPos(img); ok {
			return pos, true
		}
	}
	return CommitPos{}, false
}

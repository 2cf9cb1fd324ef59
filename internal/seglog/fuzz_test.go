package seglog

import (
	"bytes"
	"testing"
)

// FuzzDecodeCommitPos feeds the commit.meta slot decoder arbitrary bytes.
// It must never panic, and any frame it accepts must re-encode to the same
// 44 bytes: a checksum mismatch reads as "crash during write", never as
// data. The seeds are a valid frame, its truncations (a torn slot
// rewrite) and a bit flip in every field and in the CRC; CI runs a short
// -fuzztime smoke (see .github/workflows/ci.yml).
func FuzzDecodeCommitPos(f *testing.F) {
	frame := EncodeCommitPos(CommitPos{Epoch: 7, Seg: 3, Off: 2, Durable: 4242, Horizon: 4000})
	f.Add(frame)
	f.Add(EncodeCommitPos(CommitPos{}))
	f.Add(append(append([]byte(nil), frame...), 0xAA)) // trailing byte after a valid frame
	for _, n := range []int{0, 1, commitPosSize / 2, commitPosSize - 1} {
		f.Add(frame[:n])
	}
	for _, i := range []int{0, 8, 16, 24, 32, 40, commitPosSize - 1} {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x10
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pos, ok := DecodeCommitPos(data)
		if !ok {
			if pos != (CommitPos{}) {
				t.Fatalf("rejected frame leaked a position: %+v", pos)
			}
			return
		}
		if len(data) < commitPosSize {
			t.Fatalf("accepted a %d-byte frame", len(data))
		}
		if !bytes.Equal(EncodeCommitPos(pos), data[:commitPosSize]) {
			t.Fatalf("accepted frame does not re-encode to itself: % x -> %+v", data[:commitPosSize], pos)
		}
	})
}

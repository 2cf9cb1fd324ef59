package experiments

import (
	"testing"

	"mmdb"
)

// TestWireLadderDeterminism runs a shrunken wire ladder and checks its
// core claims: the per-statement virtual counters arriving in DONE
// frames are bit-identical at every connection count, and the memory
// broker never grants more than |M| however many sessions are admitted.
func TestWireLadderDeterminism(t *testing.T) {
	cfg := DefaultWireConfig()
	cfg.Clients = []int{1, 3}
	cfg.QueriesPerClient = 2
	cfg.ThinkTime = 0
	cfg.Tuples = 600
	cfg.Groups = 12
	res, err := RunWire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllIdentical {
		t.Fatal("virtual counters drifted across connection counts")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.VirtualMatch {
			t.Fatalf("rung %d clients: counters not identical", row.Clients)
		}
		if row.Statements != row.Clients*cfg.QueriesPerClient*len(wireStatements) {
			t.Fatalf("rung %d clients ran %d statements", row.Clients, row.Statements)
		}
		// The broker's no-over-grant invariant, on every rung; a zero peak
		// would mean the check never saw a grant.
		if row.PeakGranted <= 0 || row.PeakGranted > cfg.MemoryPages {
			t.Fatalf("rung %d clients: peak granted %d pages of %d", row.Clients, row.PeakGranted, cfg.MemoryPages)
		}
		for s, c := range row.Counters {
			if (c == mmdb.Counters{}) {
				t.Fatalf("statement %d billed nothing", s)
			}
		}
	}
}

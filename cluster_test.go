package mmdb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// seedCluster loads the debit/credit-style fixture through the primary:
// a relation with an index, bulk inserts, deletes and a rewrite — every
// replicated op kind — so replicas exercise the whole apply switch.
func seedCluster(t *testing.T, c *Cluster) {
	t.Helper()
	db := c.Primary()
	schema := MustSchema(
		Field{Name: "id", Kind: Int64},
		Field{Name: "dept", Kind: Int64},
		Field{Name: "balance", Kind: Int64},
		Field{Name: "name", Kind: String, Size: 12},
	)
	rel, err := db.CreateRelation("accounts", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := rel.Insert(
			IntValue(int64(i)), IntValue(int64(i%7)),
			IntValue(int64(1000+i)), StringValue(fmt.Sprintf("acct-%03d", i)),
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := rel.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rel.CreateIndex("id", BTree); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("DELETE FROM accounts WHERE dept = 6"); err != nil {
		t.Fatal(err)
	}
	// Rewrite dept 3's balances: a DELETE (heap rewrite plus index
	// rebuild on every replica) and the re-INSERT of the rows.
	if _, err := db.Query("DELETE FROM accounts WHERE dept = 3"); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i := 3; i < 200; i += 7 {
		rows = append(rows, fmt.Sprintf("(%d, 3, 9999, 'acct-%03d')", i, i))
	}
	if _, err := db.Query("INSERT INTO accounts VALUES " + strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("INSERT INTO accounts VALUES (500, 1, 77, 'late'), (501, 2, 78, 'later')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("DELETE FROM accounts WHERE id >= 190 AND id < 200"); err != nil {
		t.Fatal(err)
	}
}

func waitCaughtUp(t *testing.T, c *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("cluster never caught up: %v", err)
	}
}

// TestReplClusterReplicaIdentity: after every replicated op kind and
// catch-up, each replica is byte-identical to the primary — across
// replica counts and operator parallelism widths.
func TestReplClusterReplicaIdentity(t *testing.T) {
	for _, replicas := range []int{1, 2, 4} {
		for _, width := range []int{1, 8} {
			t.Run(fmt.Sprintf("replicas=%d/width=%d", replicas, width), func(t *testing.T) {
				c, err := OpenCluster(Options{Parallelism: width}, replicas)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				seedCluster(t, c)
				waitCaughtUp(t, c)
				if err := c.VerifyReplicas(); err != nil {
					t.Fatal(err)
				}
				// And the routed read agrees with the primary's answer.
				want, err := c.Primary().Query("SELECT SUM(balance), COUNT(*) FROM accounts")
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < replicas; i++ {
					got, err := c.Replica(i).Query("SELECT SUM(balance), COUNT(*) FROM accounts")
					if err != nil {
						t.Fatal(err)
					}
					if string(got.Rows[0]) != string(want.Rows[0]) {
						t.Fatalf("replica %d answer differs from primary", i)
					}
				}
			})
		}
	}
}

// TestReplClusterConcurrentReadsAndWrites races writers through the
// primary against replica-routed reads while the appliers stream — the
// -race exercise — then verifies byte identity.
func TestReplClusterConcurrentReadsAndWrites(t *testing.T) {
	c, err := OpenCluster(Options{MaxConcurrentQueries: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCluster(t, c)
	// Let the schema reach every replica before the read storm: a read
	// routed to a replica that has not yet applied the CREATE would see a
	// database where the table does not exist yet — valid staleness, but
	// not what this test measures.
	waitCaughtUp(t, c)

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := 1000 + w*100 + i
				if _, err := c.Query(fmt.Sprintf(
					"INSERT INTO accounts VALUES (%d, %d, %d, 'w%d')", id, w, id, w)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := c.Query("SELECT COUNT(*) FROM accounts",
					WithReadPreference(NearestReplica())); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.ReplicaReads == 0 {
		t.Fatal("no reads were routed to replicas")
	}
}

// TestReplReadOnlyReplicaRefusesWrites: every direct write path on a
// replica surfaces ErrNotPrimary, while reads and session-private
// temporaries still work.
func TestReplReadOnlyReplicaRefusesWrites(t *testing.T) {
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCluster(t, c)
	waitCaughtUp(t, c)
	rep := c.Replica(0)

	if _, err := rep.CreateRelation("sneaky", MustSchema(Field{Name: "x", Kind: Int64})); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("CreateRelation on replica: %v, want ErrNotPrimary", err)
	}
	rel, err := rep.Relation("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Insert(IntValue(9000), IntValue(0), IntValue(0), StringValue("x")); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("Insert on replica: %v, want ErrNotPrimary", err)
	}
	if _, err := rep.Query("DELETE FROM accounts WHERE dept = 1"); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("SQL DELETE on replica: %v, want ErrNotPrimary", err)
	}
	if err := rep.DropRelation("accounts"); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("DropRelation on replica: %v, want ErrNotPrimary", err)
	}
	if _, err := rep.Query("INSERT INTO accounts VALUES (9001, 0, 0, 'y')"); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("SQL INSERT on replica: %v, want ErrNotPrimary", err)
	}
	// Reads — including ones that materialize a statement-owned filtered
	// copy, which takes no exclusive intent — succeed on the replica.
	if _, err := rep.Query("SELECT dept, COUNT(*) FROM accounts WHERE balance > 0 GROUP BY dept"); err != nil {
		t.Fatalf("filtered aggregate on replica: %v", err)
	}
	// The cluster handle still routes DML to the primary.
	if _, err := c.Query("INSERT INTO accounts VALUES (9002, 0, 1, 'ok')"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestReplBoundedStalenessRouting: a lagging replica is never chosen
// under BoundedStaleness — reads degrade to the primary without error —
// and a caught-up one is.
func TestReplBoundedStalenessRouting(t *testing.T) {
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Slow the link: every delivery stalls. The injector stays armed for
	// the whole test — stalls delay, they never lose ops.
	c.ArmShipFaults(NewFaultInjector(7).StallEvery("repl/ship/r0", 1, 20))
	seedCluster(t, c)

	// While the applier grinds through stalled deliveries the replica
	// lags; a zero-staleness read must answer from the primary.
	if db := c.Route(BoundedStaleness(0)); db != c.Primary() {
		// Only acceptable if the replica genuinely caught up already.
		if c.Metrics().Replicas[0].Lag != 0 {
			t.Fatal("bounded read routed to a lagging replica")
		}
	}
	res, err := c.Query("SELECT COUNT(*) FROM accounts", WithReadPreference(BoundedStaleness(0)))
	if err != nil {
		t.Fatalf("stalled stream made a bounded read fail: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("bounded read returned %d rows", len(res.Rows))
	}
	// An unbounded-lag preference may use the replica even while it lags.
	if db := c.Route(BoundedStaleness(1 << 60)); db == c.Primary() {
		t.Fatal("infinite staleness bound refused the replica")
	}
	waitCaughtUp(t, c)
	// Caught up: zero staleness is now satisfiable by the replica.
	if db := c.Route(BoundedStaleness(0)); db != c.Replica(0) {
		t.Fatal("caught-up replica not chosen for bounded read")
	}
	if c.Metrics().Replicas[0].Stalls == 0 {
		t.Fatal("stall rule never fired on the ship link")
	}
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestReplSeveredLinkDegrades: a permanent ship fault freezes one
// replica at a consistent prefix; routing skips it, reads keep working,
// and the survivor stays byte-identical.
func TestReplSeveredLinkDegrades(t *testing.T) {
	c, err := OpenCluster(Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ArmShipFaults(NewFaultInjector(3).PermanentAfter("repl/ship/r0", 5))
	seedCluster(t, c)
	waitCaughtUp(t, c) // waits on live replicas only
	m := c.Metrics()
	if !m.Replicas[0].Broken {
		t.Fatal("permanent fault did not sever the r0 link")
	}
	if m.Replicas[0].AppliedLSN >= m.LSN {
		t.Fatal("severed replica unexpectedly saw every op")
	}
	for i := 0; i < 10; i++ {
		if db := c.Route(NearestReplica()); db == c.Replica(0) {
			t.Fatal("routing picked the severed replica")
		}
	}
	if _, err := c.Query("SELECT COUNT(*) FROM accounts", WithReadPreference(NearestReplica())); err != nil {
		t.Fatalf("read after link severance failed: %v", err)
	}
	if err := c.VerifyReplicas(); err != nil { // skips the broken replica
		t.Fatal(err)
	}
}

// TestReplSessionOptionsOnReadMethods: the unified read API — the same
// SessionOption list configures class, grant and routing on Database and
// Cluster queries and sessions alike.
func TestReplSessionOptionsOnReadMethods(t *testing.T) {
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCluster(t, c)
	waitCaughtUp(t, c)

	opts := []SessionOption{WithClass(Interactive), WithReadPreference(NearestReplica())}
	const grouped = "SELECT dept, COUNT(*), SUM(balance), MIN(balance), MAX(balance) FROM accounts GROUP BY dept"
	got, err := c.Query(grouped, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Primary().Query(grouped, WithClass(Interactive))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values(), want.Values()) || got.Counters != want.Counters {
		t.Fatalf("replica aggregate %v (%v) differs from the primary's %v (%v)",
			got.Values(), got.Counters, want.Values(), want.Counters)
	}
	res, err := c.Query("SELECT dept FROM accounts GROUP BY dept", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty distinct on replica")
	}
	prel, err := c.Primary().Relation("accounts")
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.NewSession(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := s.Query("SELECT id FROM accounts ORDER BY id")
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(len(ordered.Rows)); n != prel.NumTuples() {
		t.Fatalf("ordered scan saw %d tuples, primary has %d", n, prel.NumTuples())
	}
	// A cluster read without a preference pins to the primary.
	if _, err := c.Query("SELECT dept FROM accounts GROUP BY dept"); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.ReplicaReads == 0 {
		t.Fatal("read preference never routed to the replica")
	}
	if m.PrimaryReads == 0 {
		t.Fatal("default-preference cluster read missed the primary")
	}
}

package mmdb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// failoverCtx is the generous deadline the switchover tests run under.
func failoverCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// runClusterWriters inserts rows total rows (strided across width
// goroutines) into relation name, retrying any NOT_PRIMARY refusal
// against the cluster's then-current primary. A refused write was never
// acknowledged, so retrying it cannot duplicate.
func runClusterWriters(t *testing.T, c *Cluster, name string, rows, width int) {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, width)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w + 1; id <= rows; id += width {
				for attempt := 0; ; attempt++ {
					db := c.Primary()
					rel, err := db.Relation(name)
					if err == nil {
						err = rel.Insert(IntValue(int64(id)), IntValue(int64(id*3)))
					}
					if err == nil {
						break
					}
					if !errors.Is(err, ErrNotPrimary) {
						errCh <- fmt.Errorf("writer %d id %d: %w", w, id, err)
						return
					}
					if attempt > 100000 {
						errCh <- fmt.Errorf("writer %d id %d: still refused after %d attempts", w, id, attempt)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// waitBroken polls until every replica link has severed.
func waitBroken(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := c.Metrics()
		broken := 0
		for _, r := range m.Replicas {
			if r.Broken {
				broken++
			}
		}
		if broken == len(m.Replicas) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("links never severed (%d/%d broken)", broken, len(m.Replicas))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPromoteSwitchoverZeroLoss drives concurrent writers through a
// planned promotion: every acknowledged insert must be on the new
// primary, the old primary must refuse writes with a typed, epoch-
// stamped NOT_PRIMARY error, and the whole cluster must verify
// byte-identical after catch-up.
func TestPromoteSwitchoverZeroLoss(t *testing.T) {
	ctx := failoverCtx(t)
	c, err := OpenCluster(Options{MaxConcurrentQueries: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oldPrimary := c.Primary()
	if _, err := oldPrimary.CreateRelation("wtest", MustSchema(
		Field{Name: "id", Kind: Int64}, Field{Name: "v", Kind: Int64})); err != nil {
		t.Fatal(err)
	}

	const rows = 300
	promoted := make(chan error, 1)
	go func() {
		for c.LSN() < rows/4 {
			time.Sleep(100 * time.Microsecond)
		}
		promoted <- c.Promote(ctx, 0)
	}()
	runClusterWriters(t, c, "wtest", rows, 3)
	if err := <-promoted; err != nil {
		t.Fatalf("promote: %v", err)
	}

	if got := c.PrimaryName(); got != "r0" {
		t.Fatalf("primary is %q after promote, want r0", got)
	}
	if got := c.Epoch(); got != 2 {
		t.Fatalf("epoch %d after promote, want 2", got)
	}
	if m := c.Metrics(); m.Promotions != 1 {
		t.Fatalf("promotions metric %d, want 1", m.Promotions)
	}

	// Zero loss: every acked row is on the new primary.
	rel, err := c.Primary().Relation("wtest")
	if err != nil {
		t.Fatal(err)
	}
	if n := rel.NumTuples(); n != rows {
		t.Fatalf("new primary has %d rows, want %d", n, rows)
	}
	// The demoted primary is fenced: a direct write surfaces the typed
	// error with the new epoch and a hint naming the new primary.
	orel, err := oldPrimary.Relation("wtest")
	if err != nil {
		t.Fatal(err)
	}
	err = orel.Insert(IntValue(9999), IntValue(0))
	var np *NotPrimaryError
	if !errors.As(err, &np) {
		t.Fatalf("write on demoted primary: %v, want *NotPrimaryError", err)
	}
	if np.Epoch != 2 || np.Hint != "r0" {
		t.Fatalf("NotPrimaryError{Epoch: %d, Hint: %q}, want epoch 2 hint r0", np.Epoch, np.Hint)
	}
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatal("NotPrimaryError lost its errors.Is taxonomy")
	}

	// The old primary rejoined as a replica and catches up.
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteAbortLiftsFence: a promotion to a replica that cannot catch
// up in time fails — and the fence must lift, leaving the cluster fully
// writable under the old primary. Disarming the stall then lets the same
// promotion succeed.
func TestPromoteAbortLiftsFence(t *testing.T) {
	ctx := failoverCtx(t)
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ArmShipFaults(NewFaultInjector(11).StallEvery("repl/ship/r0", 1, 100))
	seedCluster(t, c)

	shortCtx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
	err = c.Promote(shortCtx, 0)
	cancel()
	if err == nil {
		t.Fatal("promotion to a hard-stalled replica succeeded in 2ms")
	}
	if got := c.PrimaryName(); got != "p" {
		t.Fatalf("failed promotion flipped the primary to %q", got)
	}
	// The fence is lifted: writes work again immediately. The target was
	// never detached, so it is still live at its position in the log.
	if _, err := c.Query("INSERT INTO accounts VALUES (7000, 1, 1, 'after')"); err != nil {
		t.Fatalf("write after aborted promotion: %v", err)
	}
	if r := c.Metrics().Replicas[0]; r.Broken {
		t.Fatalf("aborted promotion severed its target: %s", r.LastError)
	}
	c.ArmShipFaults(nil)
	if err := c.Promote(ctx, 0); err != nil {
		t.Fatalf("promote after disarming stalls: %v", err)
	}
	if got := c.PrimaryName(); got != "r0" {
		t.Fatalf("primary is %q, want r0", got)
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteRejectsBadTarget: out-of-range and severed targets refuse
// without disturbing the cluster.
func TestPromoteRejectsBadTarget(t *testing.T) {
	ctx := failoverCtx(t)
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Promote(ctx, 5); err == nil {
		t.Fatal("promotion to a nonexistent replica succeeded")
	}
	c.ArmShipFaults(NewFaultInjector(3).PermanentAfter("repl/ship/r0", 2))
	seedCluster(t, c)
	waitBroken(t, c)
	if err := c.Promote(ctx, 0); err == nil {
		t.Fatal("promotion to a severed replica succeeded")
	}
	if got := c.PrimaryName(); got != "p" {
		t.Fatalf("failed promotions flipped the primary to %q", got)
	}
	if _, err := c.Query("INSERT INTO accounts VALUES (7001, 1, 1, 'still')"); err != nil {
		t.Fatalf("cluster not writable after refused promotions: %v", err)
	}
}

// TestFailoverDrainsLiveSurvivor: crash-driven failover with a lagging
// but live survivor drains the link — expediting past injected stalls —
// and loses nothing; the old primary parks as the down node until
// Rejoin brings it back.
func TestFailoverDrainsLiveSurvivor(t *testing.T) {
	ctx := failoverCtx(t)
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ArmShipFaults(NewFaultInjector(5).StallEvery("repl/ship/r0", 1, 20))
	seedCluster(t, c)

	rep, err := c.Failover(ctx)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if rep.TailRecovered != 0 || rep.TailLost != 0 {
		t.Fatalf("live drain recovered %d / lost %d, want 0/0", rep.TailRecovered, rep.TailLost)
	}
	if rep.SettledLSN != rep.AckedLSN {
		t.Fatalf("drain settled at %d of %d acked", rep.SettledLSN, rep.AckedLSN)
	}
	if rep.NewPrimary != "r0" || rep.OldPrimary != "p" {
		t.Fatalf("report flipped %s -> %s, want p -> r0", rep.OldPrimary, rep.NewPrimary)
	}
	if got := c.DownNode(); got != "p" {
		t.Fatalf("down node %q, want p", got)
	}
	if m := c.Metrics(); m.Failovers != 1 {
		t.Fatalf("failovers metric %d, want 1", m.Failovers)
	}
	// The survivor's data equals what the old primary acknowledged.
	want, err := c.DatabaseOf("p").Query("SELECT SUM(balance), COUNT(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Primary().Query("SELECT SUM(balance), COUNT(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Rows[0]) != string(want.Rows[0]) {
		t.Fatal("survivor's committed state differs from the acked prefix")
	}
	c.ArmShipFaults(nil)
	if err := c.Rejoin(ctx); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got := c.DownNode(); got != "" {
		t.Fatalf("down node still %q after rejoin", got)
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverReplaysSeveredTail: when every link was severed mid-stream
// the survivor resumes from its position in the cluster log — the
// in-memory model of the primary's durable WAL — and still loses
// nothing.
func TestFailoverReplaysSeveredTail(t *testing.T) {
	ctx := failoverCtx(t)
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ArmShipFaults(NewFaultInjector(9).PermanentAfter("repl/ship/r0", 5))
	seedCluster(t, c)
	waitBroken(t, c)

	rep, err := c.Failover(ctx)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if rep.TailRecovered == 0 {
		t.Fatal("severed survivor replayed nothing — the rung is vacuous")
	}
	if rep.SettledLSN+rep.TailRecovered != rep.AckedLSN {
		t.Fatalf("settled %d + recovered %d != acked %d", rep.SettledLSN, rep.TailRecovered, rep.AckedLSN)
	}
	// Zero loss via replay: the new primary answers exactly like the old
	// one — which acknowledged everything — does.
	want, err := c.DatabaseOf("p").Query("SELECT SUM(balance), COUNT(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Primary().Query("SELECT SUM(balance), COUNT(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Rows[0]) != string(want.Rows[0]) {
		t.Fatal("tail replay did not reproduce the acked prefix")
	}
	if m := c.Metrics(); m.TailRecovered != rep.TailRecovered {
		t.Fatalf("metrics recovered %d, report %d", m.TailRecovered, rep.TailRecovered)
	}
	c.ArmShipFaults(nil)
	if err := c.Rejoin(ctx); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverLostWALTyped: total primary loss drops the unreplicated
// acked tail — and says so through a typed *LostTailError whose numbers
// agree with the report, while the cluster stays available on the
// survivor's consistent prefix.
func TestFailoverLostWALTyped(t *testing.T) {
	ctx := failoverCtx(t)
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ArmShipFaults(NewFaultInjector(13).PermanentAfter("repl/ship/r0", 5))
	seedCluster(t, c)
	waitBroken(t, c)

	rep, err := c.FailoverLostWAL(ctx)
	var lost *LostTailError
	if !errors.As(err, &lost) {
		t.Fatalf("lost-WAL failover: %v, want *LostTailError", err)
	}
	if lost.Lost() == 0 || lost.Lost() != rep.TailLost {
		t.Fatalf("error admits %d lost, report says %d", lost.Lost(), rep.TailLost)
	}
	if lost.AckedLSN != rep.AckedLSN || lost.SettledLSN != rep.SettledLSN || lost.Epoch != rep.Epoch {
		t.Fatalf("LostTailError %+v disagrees with report %+v", lost, rep)
	}
	if m := c.Metrics(); m.TailLost != rep.TailLost {
		t.Fatalf("metrics lost %d, report %d", m.TailLost, rep.TailLost)
	}
	// The survivor kept only the settled prefix.
	rel, err := c.Primary().Relation("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if n := rel.NumTuples(); uint64(n) > rep.SettledLSN {
		t.Fatalf("new primary has %d rows, more than the %d settled ops", n, rep.SettledLSN)
	}
	// The cluster is live in the new epoch: writes land, the rejoined
	// old primary is scrubbed down to the surviving history, and
	// everything verifies.
	c.ArmShipFaults(nil)
	if _, err := c.Query("INSERT INTO accounts VALUES (8000, 1, 5, 'epoch2')"); err != nil {
		t.Fatalf("write after lost-WAL failover: %v", err)
	}
	if err := c.Rejoin(ctx); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestRejoinRePromoteCycle: promote away and promote back. Two full
// switchovers, epoch 3, everything byte-identical — the roles really are
// symmetric.
func TestRejoinRePromoteCycle(t *testing.T) {
	ctx := failoverCtx(t)
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCluster(t, c)
	if err := c.Promote(ctx, 0); err != nil {
		t.Fatalf("promote to r0: %v", err)
	}
	// Write in epoch 2 so the second flip has new history to barrier on.
	if _, err := c.Query("INSERT INTO accounts VALUES (7100, 2, 3, 'ep2')"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, c)
	if err := c.Promote(ctx, 0); err != nil {
		t.Fatalf("promote back to p: %v", err)
	}
	if got := c.PrimaryName(); got != "p" {
		t.Fatalf("primary %q after the round trip, want p", got)
	}
	if got := c.Epoch(); got != 3 {
		t.Fatalf("epoch %d after two promotions, want 3", got)
	}
	if _, err := c.Query("INSERT INTO accounts VALUES (7101, 2, 3, 'ep3')"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterLogBoundsStalledReplica pins the cluster log's flow control:
// with r0 stalled, a writer may run at most linkDepth ops ahead of it —
// the writer waits rather than growing the log without bound — and once
// the stall is disarmed the writer completes and r0 catches up intact.
func TestClusterLogBoundsStalledReplica(t *testing.T) {
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rel, err := c.Primary().CreateRelation("wlog", MustSchema(
		Field{Name: "id", Kind: Int64}, Field{Name: "v", Kind: Int64}))
	if err != nil {
		t.Fatal(err)
	}
	// 250 stall units = 50ms per delivery: r0 applies a handful of ops
	// while the writer could insert thousands.
	c.ArmShipFaults(NewFaultInjector(41).StallEvery("repl/ship/r0", 1, 250))
	const rows = linkDepth + 100
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rows; i++ {
			if err := rel.Insert(IntValue(int64(i)), IntValue(int64(i*2))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// lag reads the LSN before r0's position, so it never overstates.
	lag := func() uint64 {
		m := c.Metrics()
		lag := m.LSN - m.Replicas[0].AppliedLSN
		if lag > linkDepth {
			t.Fatalf("r0 is %d ops behind, past the %d-op bound", lag, linkDepth)
		}
		return lag
	}
	deadline := time.Now().Add(30 * time.Second)
	for lag() < linkDepth {
		select {
		case err := <-done:
			t.Fatalf("writer finished (%v) with r0 stalled: flow control never held it", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer never reached the bound (lag %d)", lag())
		}
		time.Sleep(100 * time.Microsecond)
	}
	c.ArmShipFaults(nil)
	for finished := false; !finished; {
		lag()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("writer: %v", err)
			}
			finished = true
		case <-time.After(100 * time.Microsecond):
		}
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
	if n := rel.NumTuples(); n != rows {
		t.Fatalf("primary has %d rows, want %d", n, rows)
	}
}

// TestClusterCloseStalledLinkNoGoroutineLeak: Close must reap the
// applier goroutines even while one sits in an injected multi-second
// stall — the shutdown channel interrupts the sleep.
func TestClusterCloseStalledLinkNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := OpenCluster(Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 5000 stall units = a full second per delivery: without the
	// interrupt, draining the seeded ops would take minutes.
	c.ArmShipFaults(NewFaultInjector(21).StallEvery("repl/ship", 1, 5000))
	seedCluster(t, c)
	c.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRoutingFallbacks covers the replica-picker edge cases: a cluster
// with no replicas, a severed replica, and a mid-rejoin replica must all
// degrade to the primary — counted in ClusterMetrics.Fallbacks — and
// never route a read to a node that cannot serve a consistent answer.
func TestRoutingFallbacks(t *testing.T) {
	ctx := failoverCtx(t)

	// No replicas at all: every preference degrades to the primary.
	c0, err := OpenCluster(Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db := c0.Route(NearestReplica()); db != c0.Primary() {
		t.Fatal("zero-replica cluster routed away from the primary")
	}
	if db := c0.Route(BoundedStaleness(0)); db != c0.Primary() {
		t.Fatal("zero-replica cluster routed a bounded read away from the primary")
	}
	if m := c0.Metrics(); m.Fallbacks < 2 {
		t.Fatalf("fallbacks %d, want >= 2", m.Fallbacks)
	}
	c0.Close()

	// A severed replica is skipped by both pickers.
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ArmShipFaults(NewFaultInjector(31).PermanentAfter("repl/ship/r0", 3))
	seedCluster(t, c)
	waitBroken(t, c)
	base := c.Metrics().Fallbacks
	if db := c.Route(NearestReplica()); db != c.Primary() {
		t.Fatal("routed to a severed replica")
	}
	if db := c.Route(BoundedStaleness(1 << 60)); db != c.Primary() {
		t.Fatal("bounded read routed to a severed replica")
	}
	if got := c.Metrics().Fallbacks; got != base+2 {
		t.Fatalf("fallbacks went %d -> %d, want +2", base, got)
	}

	// Mid-rejoin: while the old primary rebuilds, it sits in the replica
	// set flagged joining — reads must keep falling back to the primary
	// until the catch-up completes.
	if _, err := c.Failover(ctx); err != nil {
		t.Fatalf("failover: %v", err)
	}
	c.ArmShipFaults(NewFaultInjector(32).StallEvery("repl/ship/p", 1, 25))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rel, err := c.Primary().Relation("accounts")
		if err != nil {
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rel.Insert(IntValue(int64(20000+i)), IntValue(1), IntValue(1), StringValue("ep2"))
			time.Sleep(time.Millisecond)
		}
	}()
	rejoined := make(chan error, 1)
	go func() { rejoined <- c.Rejoin(ctx) }()
	sawJoining := false
	for !sawJoining {
		m := c.Metrics()
		for _, r := range m.Replicas {
			if r.Name == "p" && r.Joining {
				sawJoining = true
			}
		}
		select {
		case err := <-rejoined:
			// Rejoin finished before we caught it in the joining state;
			// the routing assertion below still holds trivially.
			if err != nil {
				t.Fatalf("rejoin: %v", err)
			}
			rejoined <- nil
			sawJoining = true
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	if db := c.Route(NearestReplica()); db == c.DatabaseOf("p") && c.DownNode() == "" {
		m := c.Metrics()
		for _, r := range m.Replicas {
			if r.Name == "p" && r.Joining {
				t.Fatal("routed a read to a mid-rejoin replica")
			}
		}
	}
	close(stop)
	wg.Wait()
	c.ArmShipFaults(nil)
	if err := <-rejoined; err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	waitCaughtUp(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverRefusesStragglerShip pins the acked-but-unreplicated hole: a
// writer that passed the write guard before a crash failover reaches
// shipOp after the flip took the demoted primary's hook away. It must
// be refused — a nil there acknowledges a write no survivor holds — while
// the applier's own ops still pass.
func TestFailoverRefusesStragglerShip(t *testing.T) {
	ctx := failoverCtx(t)
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCluster(t, c)
	if _, err := c.Failover(ctx); err != nil {
		t.Fatalf("failover: %v", err)
	}

	old := c.DatabaseOf("p")
	straggler := shipOp{kind: opFlush, rel: "accounts"}
	if err := old.shipOp(false, straggler); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("straggler ship on the demoted primary = %v, want ErrNotPrimary", err)
	}
	if err := old.shipOp(true, straggler); err != nil {
		t.Fatalf("applier op refused on the demoted primary: %v", err)
	}
	// A plain database has no hook either, and is not read-only.
	if err := openTestDB(t).shipOp(false, straggler); err != nil {
		t.Fatalf("unclustered database refused a ship: %v", err)
	}
}

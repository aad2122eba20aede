package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/znode"
	"repro/internal/transport"
)

func startObserverCluster(t *testing.T, observers, maxLogEntries int) *Cluster {
	t.Helper()
	seq++
	c, err := Start(Config{
		Name:               fmt.Sprintf("obs%d", seq),
		Net:                transport.NewFaults(transport.NewInProc()),
		CoordServers:       3,
		Backends:           1,
		Kind:               MemFS,
		ServersPerBackend:  1,
		CoordObservers:     observers,
		CoordMaxLogEntries: maxLogEntries,
		HeartbeatInterval:  5 * time.Millisecond,
		ElectionTimeout:    40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// waitObserverCaughtUp polls until observer (0, idx) has applied at
// least the leader's current commit horizon.
func waitObserverCaughtUp(t *testing.T, c *Cluster, idx int) {
	t.Helper()
	target := c.Ensemble.Leader().CommitZxid()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if obs := c.Observer(0, idx); obs != nil && obs.LastApplied() >= target {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	obs := c.Observer(0, idx)
	t.Fatalf("observer %d stuck at %x, leader committed %x", idx, obs.LastApplied(), target)
}

// TestObserverSyncBarrierReadYourWrites exercises ZooKeeper's
// sync-then-read recipe against a deliberately lagging observer: a
// write lands on the leader while the observer's peer address is
// blocked (the leader's log stream cannot reach it; its own outbound
// calls still land), and a Sync issued through the observer must not return until the observer's
// own replica reflects that write — so the read that follows it sees
// the data even though the replica was seconds behind when Sync was
// called.
func TestObserverSyncBarrierReadYourWrites(t *testing.T) {
	c := startObserverCluster(t, 1, 0)
	fnet := c.net.(*transport.Faults)
	waitObserverCaughtUp(t, c, 0)

	leaderSess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leaderSess.Close()
	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()

	// Inject replication delay, then write behind the observer's back.
	fnet.Block(c.observerPeerAddr(0, 0))
	if _, err := leaderSess.Create("/barrier", []byte("v1"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	// The cut-off replica must not see the write yet.
	if _, ok, err := obsSess.Exists("/barrier"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("cut-off observer already sees the write; the block is not delaying replication")
	}

	// Heal the delay only after the barrier is already in flight.
	healed := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		fnet.Unblock(c.observerPeerAddr(0, 0))
		close(healed)
	}()
	start := time.Now()
	if err := obsSess.Sync(); err != nil {
		t.Fatalf("sync barrier through observer: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("Sync returned after %v, before the replica could have caught up", elapsed)
	}
	<-healed
	// Post-barrier, the same session's read on the same replica must
	// see the pre-barrier write: read-your-writes across tiers.
	data, _, err := obsSess.Get("/barrier")
	if err != nil {
		t.Fatalf("read after sync barrier: %v", err)
	}
	if string(data) != "v1" {
		t.Fatalf("read after sync barrier = %q, want %q", data, "v1")
	}
}

// TestObserverWriteForwardingReadYourWrites checks the stronger rule
// the observer tier gives sessions for free: a write submitted THROUGH
// the observer is acked only after the observer's local replica has
// applied it, so the very next read on that replica sees it with no
// explicit barrier.
func TestObserverWriteForwardingReadYourWrites(t *testing.T) {
	c := startObserverCluster(t, 1, 0)
	waitObserverCaughtUp(t, c, 0)
	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("/ryw-%02d", i)
		if _, err := obsSess.Create(path, []byte("x"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		if _, _, err := obsSess.Get(path); err != nil {
			t.Fatalf("write %s acked by observer but not readable on it: %v", path, err)
		}
	}
}

// TestObserverSnapshotRejoinAfterRestart kills an observer, keeps
// writing until the leader truncates its log past the observer's old
// tail position, then revives the observer: it must rebuild itself via
// a shipped snapshot (not frame replay), catch back up, and serve every
// acked write — with zero impact on the writes acked while it was down.
func TestObserverSnapshotRejoinAfterRestart(t *testing.T) {
	// MaxLogEntries 8 forces truncation once the margin is covered, so
	// the restarted replica's from=0 poll cannot be served by frames.
	c := startObserverCluster(t, 1, 8)
	waitObserverCaughtUp(t, c, 0)

	sess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const before, during = 40, 120
	for i := 0; i < before; i++ {
		if _, err := sess.Create(fmt.Sprintf("/pre-%03d", i), []byte("a"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}

	c.StopObserver(0, 0)
	// Every write during the outage must ack normally — the observer
	// tier is read-only capacity, never on the commit path.
	for i := 0; i < during; i++ {
		if _, err := sess.Create(fmt.Sprintf("/down-%03d", i), []byte("b"), znode.ModePersistent); err != nil {
			t.Fatalf("write %d failed while observer was down: %v", i, err)
		}
	}

	if err := c.StartObserver(0, 0); err != nil {
		t.Fatal(err)
	}
	waitObserverCaughtUp(t, c, 0)
	obs := c.Observer(0, 0)
	if got := obs.Metrics().Counter("zab.snapshot_installs").Value(); got < 1 {
		t.Fatalf("restarted observer caught up with %d snapshot installs, want >= 1 (log should have truncated past its tail)", got)
	}

	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()
	for i := 0; i < before; i++ {
		if _, _, err := obsSess.Get(fmt.Sprintf("/pre-%03d", i)); err != nil {
			t.Fatalf("pre-outage write /pre-%03d missing on rejoined observer: %v", i, err)
		}
	}
	for i := 0; i < during; i++ {
		if _, _, err := obsSess.Get(fmt.Sprintf("/down-%03d", i)); err != nil {
			t.Fatalf("outage-window write /down-%03d missing on rejoined observer: %v", i, err)
		}
	}
}

// TestLeaseReadWirePath checks the opLeaseRead protocol end to end: the
// quorum-funded leader answers, and an observer refuses with ErrNoLease
// (it can never linearize) so routers fall back instead of reading
// stale data.
func TestLeaseReadWirePath(t *testing.T) {
	c := startObserverCluster(t, 1, 0)
	waitObserverCaughtUp(t, c, 0)

	leaderSess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leaderSess.Close()
	if _, err := leaderSess.Create("/leased", []byte("fast"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}

	// The leader holds a heartbeat-funded lease within one round; retry
	// briefly to ride out a just-elected leader.
	leased := coord.Op{Kind: coord.OpGet, Path: "/leased", Lease: true}
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := leaderSess.Do(t.Context(), leased)
		if err == nil {
			if string(res.Data) != "fast" {
				t.Fatalf("lease read = %q, want %q", res.Data, "fast")
			}
			break
		}
		if err != coord.ErrNoLease || time.Now().After(deadline) {
			t.Fatalf("lease read on leader: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()
	if _, err := obsSess.Do(t.Context(), leased); err != coord.ErrNoLease {
		t.Fatalf("lease read on observer = %v, want ErrNoLease", err)
	}
}

// TestObserverStatusReportsLag checks both status surfaces: the
// observer reports itself as a non-voting replica with a replication
// tip, and the leader's status lists the observer with its lag.
func TestObserverStatusReportsLag(t *testing.T) {
	c := startObserverCluster(t, 2, 0)
	waitObserverCaughtUp(t, c, 0)
	waitObserverCaughtUp(t, c, 1)

	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()
	st, err := obsSess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsObserver {
		t.Fatal("observer status does not mark the replica as an observer")
	}
	if st.IsLeader {
		t.Fatal("observer status claims leadership")
	}
	if st.AppliedZxid == 0 {
		t.Fatal("observer status reports a zero replication tip after catch-up")
	}

	leaderSess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leaderSess.Close()
	// Both observers joined before they caught up; the retry only rides
	// out a leader change.
	deadline := time.Now().Add(2 * time.Second)
	for {
		lst, err := leaderSess.Status()
		if err != nil {
			t.Fatal(err)
		}
		if lst.IsObserver {
			t.Fatal("voter status marked as observer")
		}
		if len(lst.Observers) == 2 {
			seen := map[uint64]bool{}
			for _, o := range lst.Observers {
				seen[o.ID] = true
			}
			if !seen[101] || !seen[102] {
				t.Fatalf("leader observer list = %+v, want IDs 101 and 102", lst.Observers)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never listed both observers: %+v", lst.Observers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObserverServesWatches checks what running observers as plain
// servers bought: a session connected only to an observer registers
// data, exists and child watches there, and each fires on a write made
// through a voter once the observer's replica applies it.
func TestObserverServesWatches(t *testing.T) {
	c := startObserverCluster(t, 1, 0)
	waitObserverCaughtUp(t, c, 0)

	voterSess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer voterSess.Close()
	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()

	if _, err := obsSess.Create("/w", []byte("v0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := obsSess.GetW("/w"); err != nil {
		t.Fatalf("GetW on observer: %v", err)
	}
	if _, ok, err := obsSess.ExistsW("/w/absent"); err != nil || ok {
		t.Fatalf("ExistsW on observer = %v, %v", ok, err)
	}
	if _, err := obsSess.ChildrenW("/w"); err != nil {
		t.Fatalf("ChildrenW on observer: %v", err)
	}

	if _, err := voterSess.Set("/w", []byte("v1"), -1); err != nil {
		t.Fatal(err)
	}
	if _, err := voterSess.Create("/w/absent", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{"data /w": false, "data /w/absent": false, "children /w": false}
	deadline := time.Now().Add(5 * time.Second)
	for pending := len(want); pending > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("watches through the observer did not all fire: %v", want)
		}
		evs, err := obsSess.WaitEvents(t.Context(), 200*time.Millisecond)
		if err != nil {
			t.Fatalf("WaitEvents on observer: %v", err)
		}
		for _, ev := range evs {
			key := "data " + ev.Path
			if ev.Type == coord.EventChildrenChanged {
				key = "children " + ev.Path
			}
			if fired, ok := want[key]; ok && !fired {
				want[key] = true
				pending--
			}
		}
	}
}

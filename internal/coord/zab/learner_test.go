package zab

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// observed is a voter ensemble plus observers (IDs 101…) on one
// fault-injecting network.
type observed struct {
	*ensemble
	t       *testing.T
	name    string
	faults  *transport.Faults
	timeout time.Duration
	maxLog  int
	regs    map[uint64]*metrics.Registry
}

func (o *observed) addr(id uint64) string    { return fmt.Sprintf("%s-%d", o.name, id) }
func (o *observed) contact(id uint64) string { return fmt.Sprintf("%s-client-%d", o.name, id) }

// start boots (or reboots, empty) member id; IDs above 100 are observers.
func (o *observed) start(id uint64) {
	o.t.Helper()
	peers := make(map[uint64]string, len(o.peers)+1)
	for v, a := range o.peers {
		peers[v] = a
	}
	peers[id] = o.addr(id)
	sm, reg := &kvSM{}, metrics.NewRegistry()
	n, err := NewNode(Config{
		ID:                id,
		Peers:             peers,
		Observer:          id > 100,
		Net:               o.faults,
		Contact:           o.contact(id),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   o.timeout,
		MaxLogEntries:     o.maxLog,
		Metrics:           reg,
	}, sm)
	if err != nil {
		o.t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		o.t.Fatal(err)
	}
	o.nodes[id], o.sms[id], o.regs[id] = n, sm, reg
}

func (o *observed) stop(id uint64) {
	o.nodes[id].Stop()
	delete(o.nodes, id)
}

func startObserved(t *testing.T, name string, voters, observers int, timeout time.Duration, maxLog int) *observed {
	t.Helper()
	o := &observed{
		ensemble: &ensemble{nodes: map[uint64]*Node{}, sms: map[uint64]*kvSM{}, peers: map[uint64]string{}},
		t:        t, name: name, timeout: timeout, maxLog: maxLog,
		faults: transport.NewFaults(transport.NewInProc()),
		regs:   map[uint64]*metrics.Registry{},
	}
	for v := 1; v <= voters; v++ {
		o.peers[uint64(v)] = o.addr(uint64(v))
	}
	for v := 1; v <= voters; v++ {
		o.start(uint64(v))
	}
	for i := 1; i <= observers; i++ {
		o.start(uint64(100 + i))
	}
	t.Cleanup(o.stopAll)
	return o
}

// waitIdentical blocks until every listed member has applied the same
// history and that history ends with last.
func waitIdentical(t *testing.T, o *observed, last string, ids ...uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		want, _ := o.sms[ids[0]].snapshotState()
		same := len(want) > 0 && want[len(want)-1] == last
		for _, id := range ids[1:] {
			got, _ := o.sms[id].snapshotState()
			same = same && slices.Equal(got, want)
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			for _, id := range ids {
				got, _ := o.sms[id].snapshotState()
				t.Logf("member %d applied %d txns: %s", id, len(got), o.nodes[id].DebugString())
			}
			t.Fatalf("members %v did not converge on one history ending in %q", ids, last)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestObserverAcksNeverCommitNorFundLease is the safety side of the
// observer role. With both followers unreachable the leader still has
// two observer streams acking every frame and answering every
// heartbeat — together with its own vote that would be a "quorum" of
// three if they counted. They must not: the write stays uncommitted
// until the watchdog deposes the leader, and the read lease runs out
// while it still leads.
func TestObserverAcksNeverCommitNorFundLease(t *testing.T) {
	const timeout = 200 * time.Millisecond
	o := startObserved(t, "obs-safety", 3, 2, timeout, 0)
	all := []uint64{1, 2, 3, 101, 102}
	leader := o.waitLeader(t)
	proposeOK(t, leader, "before")
	waitIdentical(t, o, "before", all...)
	if !waitHolds(leader, true, 2*time.Second) {
		t.Fatal("leader never acquired the read lease")
	}
	for deadline := time.Now().Add(5 * time.Second); len(leader.ObserverLags()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("leader streams to %d observers, want 2", len(leader.ObserverLags()))
		}
	}

	var followers []string
	for id, addr := range o.peers {
		if id != leader.ID() {
			followers = append(followers, addr)
		}
	}
	o.faults.Block(followers...)
	cut := time.Now()
	committedBefore := leader.CommitZxid()
	result := make(chan error, 1)
	go func() {
		_, err := leader.Propose([]byte("orphan"))
		result <- err
	}()

	// The lease is funded by voter acks alone, so it lapses one lease
	// term after the cut — well before the watchdog (2 × timeout after
	// the write stalls) takes the leadership away.
	for vouches(leader) {
		if time.Since(cut) > timeout+timeout/2 {
			t.Fatalf("lease still held %v after the followers were cut off: observer heartbeat acks are funding it", time.Since(cut))
		}
		time.Sleep(time.Millisecond)
	}
	if !leader.IsLeader() {
		t.Fatal("leader stepped down before its lease could be seen to lapse; the lease check proved nothing")
	}
	// Both observers hold the orphan frame and have acked it.
	deadline := time.Now().Add(timeout)
	for acked := 0; acked < 2 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		acked = 0
		for _, l := range leader.ObserverLags() {
			if l.AppliedZxid > committedBefore {
				acked++
			}
		}
	}
	if got := leader.CommitZxid(); got != committedBefore {
		t.Fatalf("commit horizon moved %x -> %x with no follower reachable: observer acks were counted", committedBefore, got)
	}
	select {
	case err := <-result:
		if err == nil {
			t.Fatal("a write committed with only observers acking it")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write with no quorum neither failed nor committed")
	}
	for _, id := range all {
		if applied, _ := o.sms[id].snapshotState(); slices.Contains(applied, "orphan") {
			t.Fatalf("member %d applied the write no quorum ever held", id)
		}
	}

	o.faults.Unblock(followers...)
	o.proposeOnLeader(t, "after")
	waitIdentical(t, o, "after", all...)
}

// TestObserverNeverVotesNorCampaigns leaves an observer alone with a
// voter that never answers: over ten election timeouts it must not
// move its epoch or claim anything, and it refuses every vote request
// however good the candidate's log is.
func TestObserverNeverVotesNorCampaigns(t *testing.T) {
	const timeout = 20 * time.Millisecond
	n, err := NewNode(Config{
		ID:                101,
		Peers:             map[uint64]string{1: "obs-silence-1", 101: "obs-silence-101"},
		Observer:          true,
		Net:               transport.NewInProc(),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   timeout,
	}, &kvSM{})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	for end := time.Now().Add(10 * timeout); time.Now().Before(end); time.Sleep(timeout / 4) {
		if e, l := n.Epoch(), n.LeaderID(); e != 0 || l != 0 || n.IsLeader() {
			t.Fatalf("silent observer moved by itself: epoch=%d leader=%d isLeader=%v", e, l, n.IsLeader())
		}
	}
	for epoch := uint64(1); epoch <= 5; epoch++ {
		resp := n.handleRequestVote(requestVoteReq{Epoch: epoch, CandidateID: 1, LastZxid: makeZxid(epoch, 99)})
		if resp.Granted || resp.Epoch != 0 {
			t.Fatalf("observer answered a vote request for epoch %d with %+v", epoch, resp)
		}
	}
	if _, err := n.ReadBarrier(0); err != ErrNoLeader {
		t.Fatalf("observer answered ReadBarrier with %v, want ErrNoLeader", err)
	}
}

// TestObserverRejoinsIdleEnsembleBySnapshot restarts an observer empty
// after the leader truncated its log, with no write in flight to carry
// a window: the join's tip probe alone must send it to the sync pull,
// which installs a snapshot.
func TestObserverRejoinsIdleEnsembleBySnapshot(t *testing.T) {
	o := startObserved(t, "obs-idle", 3, 1, 100*time.Millisecond, 8)
	leader := o.waitLeader(t)
	// proposeOK retries, so a write may apply twice: the histories are
	// compared with each other, not counted.
	const writes = 200
	for i := 0; i < writes; i++ {
		proposeOK(t, leader, fmt.Sprintf("w%03d", i))
	}
	last := fmt.Sprintf("w%03d", writes-1)
	waitIdentical(t, o, last, 1, 2, 3, 101)

	o.stop(101)
	time.Sleep(50 * time.Millisecond) // idle: nothing is proposed from here on
	restarted := time.Now()
	o.start(101)
	waitIdentical(t, o, last, 1, 2, 3, 101)
	t.Logf("empty observer caught up %v after restart", time.Since(restarted))
	if got := o.regs[101].Counter("zab.snapshot_installs").Value(); got < 1 {
		t.Fatalf("observer caught up with %d snapshot installs, want >= 1 (the leader's log is truncated)", got)
	}
}

// TestObserverFollowsLeaderChange kills the leader under an observer:
// with nobody telling it, the observer must find the new leader, join
// it, receive what it commits and name it to the clients it refuses.
func TestObserverFollowsLeaderChange(t *testing.T) {
	o := startObserved(t, "obs-failover", 3, 1, 100*time.Millisecond, 0)
	old := o.waitLeader(t)
	proposeOK(t, old, "first")
	waitIdentical(t, o, "first", 1, 2, 3, 101)

	o.stop(old.ID())
	o.proposeOnLeader(t, "second")
	live := []uint64{101}
	for id := range o.nodes {
		if id != 101 {
			live = append(live, id)
		}
	}
	waitIdentical(t, o, "second", live...)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		cur := o.waitLeader(t)
		lags := cur.ObserverLags()
		obs := o.nodes[101]
		if obs.LeaderID() == cur.ID() && obs.LeaderContact() == o.contact(cur.ID()) && len(lags) == 1 && lags[0].ID == 101 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("observer follows %d at %q; leader %d streams to %+v", obs.LeaderID(), obs.LeaderContact(), cur.ID(), lags)
		}
	}
}

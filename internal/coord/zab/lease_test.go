package zab

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord/zab/core"
	"repro/internal/transport"
)

// TestLeaseDeadlineSkewTable pins the arithmetic that keeps lease reads
// safe under clock drift: the deadline discounts the skew bound, and a
// skew at or above the election timeout collapses the margin to zero so
// the deadline can never sit in the future.
func TestLeaseDeadlineSkewTable(t *testing.T) {
	round := time.Unix(1000, 0)
	cases := []struct {
		et, skew time.Duration
		want     time.Duration // margin past round
	}{
		{100 * time.Millisecond, 0, 100 * time.Millisecond},
		{100 * time.Millisecond, 10 * time.Millisecond, 90 * time.Millisecond},
		{100 * time.Millisecond, 99 * time.Millisecond, 1 * time.Millisecond},
		{100 * time.Millisecond, 100 * time.Millisecond, 0}, // skew == ET: disabled
		{100 * time.Millisecond, 250 * time.Millisecond, 0}, // skew > ET: clamped, not negative
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("et=%v_skew=%v", c.et, c.skew), func(t *testing.T) {
			got := leaseDeadline(round, c.et, c.skew)
			if want := round.Add(c.want); !got.Equal(want) {
				t.Fatalf("leaseDeadline(%v, %v) = %v, want %v", c.et, c.skew, got, want)
			}
			if got.After(round.Add(c.et)) {
				t.Fatalf("deadline %v exceeds the unskewed bound %v", got, round.Add(c.et))
			}
		})
	}
}

// startSolo boots a single-node ensemble (quorum of one: every
// heartbeat round self-acks immediately) with the given skew bound.
func startSolo(t *testing.T, maxSkew time.Duration) *Node {
	t.Helper()
	sm := &kvSM{}
	node, err := NewNode(Config{
		ID:                1,
		Peers:             map[uint64]string{1: "lease-solo-1"},
		Net:               transport.NewInProc(),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
		MaxClockSkew:      maxSkew,
		MaxLogEntries:     128,
	}, sm)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	return node
}

// vouches reports whether n would answer a leader read right now, on
// its lease: ReadBarrier with no time to wait for a heartbeat round.
func vouches(n *Node) bool {
	_, err := n.ReadBarrier(0)
	return err == nil
}

func waitHolds(n *Node, want bool, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if vouches(n) == want {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return vouches(n) == want
}

// TestLeaderAcquiresReadLease: once a quorum of heartbeat acks lands,
// the leader holds the lease; followers never do.
func TestLeaderAcquiresReadLease(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	if !waitHolds(leader, true, 2*time.Second) {
		t.Fatal("leader never acquired the read lease despite quorum heartbeats")
	}
	for id, n := range e.nodes {
		if id == leader.ID() {
			continue
		}
		if _, err := n.ReadBarrier(0); err != ErrNoLeader {
			t.Fatalf("follower %d answered ReadBarrier with %v, want ErrNoLeader", id, err)
		}
	}
}

// TestLeaseExpiresWithoutQuorum: a leader cut off from every follower
// stops extending the lease, so it lapses within one election timeout —
// before any rival could be elected — and lease reads are refused.
func TestLeaseExpiresWithoutQuorum(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	if !waitHolds(leader, true, 2*time.Second) {
		t.Fatal("leader never acquired the read lease")
	}
	for id, n := range e.nodes {
		if id != leader.ID() {
			n.Stop()
		}
	}
	if !waitHolds(leader, false, 2*time.Second) {
		t.Fatal("lease did not expire after quorum loss")
	}
	// And it must stay revoked: no self-funding single-node extension.
	time.Sleep(3 * leader.cfg.ElectionTimeout)
	if vouches(leader) {
		t.Fatal("isolated leader re-acquired the lease without a quorum")
	}
}

// TestStoppedLeaderRefusesLease: Stop revokes the lease before the node
// goes quiet, so a deposed process can never serve one more stale read.
func TestStoppedLeaderRefusesLease(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	if !waitHolds(leader, true, 2*time.Second) {
		t.Fatal("leader never acquired the read lease")
	}
	leader.Stop()
	if _, err := leader.ReadBarrier(time.Second); err != ErrNoLeader {
		t.Fatalf("stopped leader answered ReadBarrier with %v, want ErrNoLeader", err)
	}
}

// TestSkewBoundDisablesLease: with MaxClockSkew at or above the
// election timeout the lease margin is zero — a leader keeps leading
// and committing but never vouches on its lease. It still vouches after
// a heartbeat round that began after the call, which assumes nothing
// about clocks. Slower, not unsound.
func TestSkewBoundDisablesLease(t *testing.T) {
	n := startSolo(t, 200*time.Millisecond) // skew > 40ms election timeout
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !n.IsLeader() {
		time.Sleep(2 * time.Millisecond)
	}
	if !n.IsLeader() {
		t.Fatal("solo node never elected itself")
	}
	if _, err := n.Propose([]byte("x")); err != nil {
		t.Fatalf("solo leader cannot commit: %v", err)
	}
	// Heartbeats are self-acking every 5ms; give several rounds a
	// chance to (incorrectly) fund a lease.
	time.Sleep(60 * time.Millisecond)
	if vouches(n) {
		t.Fatal("lease granted despite clock-skew bound >= election timeout")
	}
	if _, err := n.ReadBarrier(time.Second); err != nil {
		t.Fatalf("no heartbeat round vouched for a read: %v", err)
	}
}

// TestSoloLeaderHoldsLease is the control for the skew test: the same
// topology with a sane skew bound does hold the lease.
func TestSoloLeaderHoldsLease(t *testing.T) {
	n := startSolo(t, 0)
	if !waitHolds(n, true, 2*time.Second) {
		t.Fatal("solo leader with zero skew bound never acquired the lease")
	}
}

// parkedStore is gatedStore with a switch: Sync passes until park, then
// waits for unpark, and the durable horizon moves only when a Sync
// completes.
type parkedStore struct {
	*MemStorage
	mu      sync.Mutex
	gate    chan struct{} // nil while Sync passes
	durable atomic.Uint64
}

func (p *parkedStore) park() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gate = make(chan struct{})
}

func (p *parkedStore) unpark() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gate != nil {
		close(p.gate)
		p.gate = nil
	}
}

func (p *parkedStore) Sync() error {
	tip := p.MemStorage.LastDurableZxid()
	p.mu.Lock()
	gate := p.gate
	p.mu.Unlock()
	if gate != nil {
		<-gate
	}
	for {
		d := p.durable.Load()
		if tip <= d || p.durable.CompareAndSwap(d, tip) {
			return nil
		}
	}
}

func (p *parkedStore) LastDurableZxid() uint64 { return p.durable.Load() }

// leaseLive reports whether n leads on a live lease, barrier or not.
func leaseLive(n *Node) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.el.Role() == core.Leader && n.now().Before(leaseDeadline(n.leaseRound, n.cfg.ElectionTimeout, n.cfg.MaxClockSkew))
}

// TestNoVouchBeforeEpochBarrier: heartbeat acks need no fsync, so a new
// leader funds its lease before the barrier that commits its inherited
// tail can commit. The old leader's writes reach every log; then every
// member's Sync is parked (only then: a sync pull fsyncs under the node
// mutex) and the old leader stops. The new leader's lease goes live with
// its barrier unapplied — its state may miss a write its predecessor
// acknowledged — and it must not vouch for a read. Once Sync is let
// through it vouches, with that write applied.
func TestNoVouchBeforeEpochBarrier(t *testing.T) {
	e := &ensemble{nodes: map[uint64]*Node{}, sms: map[uint64]*kvSM{}, net: transport.NewInProc(), peers: map[uint64]string{}}
	stores := map[uint64]*parkedStore{}
	for id := uint64(1); id <= 3; id++ {
		e.peers[id] = fmt.Sprintf("barrier-%d", id)
	}
	for id := range e.peers {
		st := &parkedStore{MemStorage: new(MemStorage)}
		e.sms[id] = &kvSM{}
		n, err := NewNode(Config{
			ID:                id,
			Peers:             e.peers,
			Net:               e.net,
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   100 * time.Millisecond,
			Storage:           st,
		}, e.sms[id])
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		e.nodes[id], stores[id] = n, st
	}
	t.Cleanup(func() {
		for _, st := range stores {
			st.unpark()
		}
		e.stopAll()
	})

	old := e.waitLeader(t)
	for i := 0; i < 5; i++ {
		proposeOK(t, old, fmt.Sprintf("t%d", i))
	}
	acked := old.LastZxid()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		converged := true
		for id, n := range e.nodes {
			converged = converged && n.LastZxid() == acked && stores[id].LastDurableZxid() == acked
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the members never all held %x durably", acked)
		}
	}
	for _, st := range stores {
		st.park()
	}
	old.Stop()
	delete(e.nodes, old.ID())

	leader := e.waitLeader(t)
	for deadline := time.Now().Add(5 * time.Second); !leaseLive(leader); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the new leader never funded its lease")
		}
		if vouches(leader) {
			t.Fatalf("the new leader vouched at applied %x before its epoch %d barrier", leader.LastApplied(), leader.Epoch())
		}
	}
	if applied, err := leader.ReadBarrier(3 * leader.cfg.HeartbeatInterval); err == nil {
		t.Fatalf("a leader on a live lease vouched at %x before its epoch %d barrier applied", applied, leader.Epoch())
	}
	if epochOf(leader.LastApplied()) >= leader.Epoch() {
		t.Fatal("the barrier applied with every Sync parked; the test proved nothing")
	}

	for _, st := range stores {
		st.unpark()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		leader = e.waitLeader(t)
		applied, err := leader.ReadBarrier(time.Second)
		if err == nil {
			if applied < acked || epochOf(applied) != leader.Epoch() {
				t.Fatalf("vouched at %x: below the acknowledged %x or before the epoch %d barrier", applied, acked, leader.Epoch())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no leader vouched once Sync was let through: %v", err)
		}
	}
}

// TestBarrierStartsItsRound: with the lease off (MaxClockSkew at the
// election timeout) and a one-second heartbeat, a ReadBarrier — what a
// Sync or a lease read is on the leader — that waited for the scheduled
// round would take up to a second. It starts a round of its own, and
// the barriers that arrive before that round begins share it: 20
// barriers, five at a time, each vouch within 100 ms.
func TestBarrierStartsItsRound(t *testing.T) {
	const beat = time.Second
	e := &ensemble{nodes: make(map[uint64]*Node), sms: make(map[uint64]*kvSM), peers: make(map[uint64]string)}
	for id := uint64(1); id <= 3; id++ {
		e.peers[id] = fmt.Sprintf("barrier-round-%d", id)
	}
	net := transport.NewInProc()
	for id := range e.peers {
		sm := &kvSM{}
		n, err := NewNode(Config{
			ID:                id,
			Peers:             e.peers,
			Net:               net,
			HeartbeatInterval: beat,
			ElectionTimeout:   2 * beat,
			MaxClockSkew:      2 * beat,
		}, sm)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		e.nodes[id], e.sms[id] = n, sm
	}
	t.Cleanup(e.stopAll)
	var leader *Node
	for deadline := time.Now().Add(20 * time.Second); leader == nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no leader elected")
		}
		for _, n := range e.nodes {
			if n.IsLeader() {
				leader = n
			}
		}
	}
	proposeOK(t, leader, "x") // the epoch barrier has applied
	var mu sync.Mutex
	var worst time.Duration
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				if _, err := leader.ReadBarrier(2 * beat); err != nil {
					t.Error(err)
				}
				mu.Lock()
				worst = max(worst, time.Since(start))
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	t.Logf("slowest of 20 barriers with the lease off: %v (heartbeat %v)", worst, beat)
	if worst > 100*time.Millisecond {
		t.Errorf("a barrier with the lease off took %v: it waited for the scheduled heartbeat", worst)
	}
}

package zab

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// The boot tests run bench/'s heartbeat with a timeout long enough that no
// randomized timer fires inside them: only the rank schedule elects.
const bootBeat, bootTimeout = 50 * time.Millisecond, 500 * time.Millisecond

// newBootEnsemble names three voters on one in-process network and starts
// none of them.
func newBootEnsemble(t *testing.T, name string) *ensemble {
	e := &ensemble{nodes: make(map[uint64]*Node), sms: make(map[uint64]*kvSM), net: transport.NewInProc(), peers: make(map[uint64]string)}
	for id := uint64(1); id <= 3; id++ {
		e.peers[id] = fmt.Sprintf("%s-%d", name, id)
	}
	t.Cleanup(e.stopAll)
	return e
}

// leaderWithin waits for one leader a quorum agrees on and fails the test
// if none is agreed on within bound of since.
func (e *ensemble) leaderWithin(t *testing.T, since time.Time, bound time.Duration) (*Node, time.Duration) {
	t.Helper()
	for {
		for _, n := range e.nodes {
			agree := 0
			for _, m := range e.nodes {
				if m.LeaderID() == n.ID() {
					agree++
				}
			}
			if n.IsLeader() && agree >= 2 {
				return n, time.Since(since)
			}
		}
		if time.Since(since) > bound {
			for _, n := range e.nodes {
				t.Log(n.DebugString())
			}
			t.Fatalf("no leader agreed on within %v", bound)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFreshEnsembleElectsAtOnce: voters on fresh stores owe no lease
// anything, so the first election does not wait out a timeout. Started in
// ID order, the highest campaigns at its first tick, as it starts, and
// leads epoch 1, with a quorum agreeing, within one heartbeat of its start.
func TestFreshEnsembleElectsAtOnce(t *testing.T) {
	e := newBootEnsemble(t, "fresh-boot")
	var last time.Time
	for id := uint64(1); id <= 3; id++ {
		last = time.Now()
		e.startTimed(t, id, new(MemStorage), bootBeat, bootTimeout)
	}
	leader, took := e.leaderWithin(t, last, bootBeat)
	if leader.ID() != 3 || leader.Epoch() != 1 {
		t.Fatalf("node %d leads epoch %d, want node 3 in epoch 1: the boot took more than one election", leader.ID(), leader.Epoch())
	}
	t.Logf("node 3 leads %v after the last start (heartbeat %v, election timeout %v)", took.Round(time.Millisecond), bootBeat, bootTimeout)
}

// TestHighestVoterStartsFirst: node 3 starts alone and its first campaign
// finds no one to vote; it falls back to a randomized timer. Nodes 1 and 2
// start three heartbeats later, and node 2's rank comes due one heartbeat
// after its start: a leader within three heartbeats of the last start.
func TestHighestVoterStartsFirst(t *testing.T) {
	e := newBootEnsemble(t, "highest-first")
	e.startTimed(t, 3, new(MemStorage), bootBeat, bootTimeout)
	time.Sleep(3 * bootBeat)
	last := time.Now()
	for id := uint64(1); id <= 2; id++ {
		e.startTimed(t, id, new(MemStorage), bootBeat, bootTimeout)
	}
	leader, took := e.leaderWithin(t, last, 3*bootBeat)
	t.Logf("node %d leads epoch %d %v after the last start", leader.ID(), leader.Epoch(), took.Round(time.Millisecond))
}

// TestColdRestartElectsAtQuietEnd: every voter of an ensemble restarted on
// its store grants nothing, itself included, for one election timeout; its
// first campaign is due on the rank schedule measured from its restart. So
// node 3 leads no sooner than one timeout after the restart, and no later
// than two heartbeats past it.
func TestColdRestartElectsAtQuietEnd(t *testing.T) {
	e := newBootEnsemble(t, "cold-restart")
	for id := uint64(1); id <= 3; id++ {
		e.startTimed(t, id, new(MemStorage), bootBeat, bootTimeout)
	}
	proposeOK(t, e.waitLeader(t), "before")
	waitConverged(t, e, 1, 1, 2, 3)
	e.stopAll()
	start := time.Now()
	for id := uint64(1); id <= 3; id++ {
		e.startTimed(t, id, e.stores[id], bootBeat, bootTimeout)
	}
	leader, took := e.leaderWithin(t, start, bootTimeout+2*bootBeat)
	if took < bootTimeout {
		t.Fatalf("node %d leads %v after the restart, inside the lease its members' acks may fund (%v)", leader.ID(), took, bootTimeout)
	}
	if leader.ID() != 3 {
		t.Fatalf("node %d leads after the restart, want node 3 (rank 0)", leader.ID())
	}
	t.Logf("node 3 leads epoch %d %v after the restart (election timeout %v)", leader.Epoch(), took.Round(time.Millisecond), bootTimeout)
}

// TestRestartedVoterWaitsOutItsLease: a member that acked a leader's
// heartbeat may be funding its lease. Restarted on its store inside the
// lease — it never voted and holds no frame past genesis, so only the
// epoch it adopted tells it from a fresh member — it must refuse any
// vote until a full election timeout has passed on its clock.
func TestRestartedVoterWaitsOutItsLease(t *testing.T) {
	const et = time.Second
	base := time.Now()
	var off atomic.Int64
	st := new(MemStorage)
	boot := func() *Node {
		n, err := NewNode(Config{
			ID:                1,
			Peers:             map[uint64]string{1: "lease-restart-1", 2: "lease-restart-2", 3: "lease-restart-3"},
			Net:               transport.NewInProc(),
			HeartbeatInterval: 50 * time.Millisecond,
			ElectionTimeout:   et,
			Clock:             func() time.Time { return base.Add(time.Duration(off.Load())) },
			Storage:           st,
		}, &kvSM{})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := boot()
	if resp := n.handleHeartbeat(heartbeatReq{Epoch: 1, LeaderID: 3}); resp.Epoch != 1 {
		t.Fatalf("the member answered the leader of epoch 1 under epoch %d", resp.Epoch)
	}
	n.Stop()
	n = boot()
	defer n.Stop()
	if z := n.LastZxid(); z != 0 {
		t.Fatalf("the restarted member holds zxid %x, want nothing past genesis", z)
	}
	vote := requestVoteReq{Epoch: 2, CandidateID: 2, LastZxid: makeZxid(1, 5)}
	for _, at := range []time.Duration{0, et / 2, et - time.Millisecond} {
		off.Store(int64(at))
		if n.handleRequestVote(vote).Granted {
			t.Fatalf("the restarted member granted a vote %v after its restart, inside the lease its ack may fund", at)
		}
	}
	off.Store(int64(et + time.Millisecond))
	if !n.handleRequestVote(vote).Granted {
		t.Fatal("the restarted member still refuses a vote a full election timeout after its restart")
	}
}

// TestStaleEpochAckFundsNoLease: a heartbeat ack counts toward the
// lease only when it names the leader's own epoch. Two stand-in peers
// elect node 3, then answer its heartbeats under the epoch before: the
// leader must never hold a lease on them. Once they answer under its
// epoch, it does.
func TestStaleEpochAckFundsNoLease(t *testing.T) {
	peers := map[uint64]string{1: "stale-ack-1", 2: "stale-ack-2", 3: "stale-ack-3"}
	net := transport.NewInProc()
	var current atomic.Bool // the stand-ins answer under the leader's epoch
	standIn := transport.HandlerFunc(func(req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		switch r.Uint8() {
		case msgRequestVote:
			return requestVoteResp{Granted: true, Epoch: r.Uint64()}.encode(), nil
		case msgHeartbeat:
			m := decodeHeartbeatReq(r)
			if current.Load() {
				return heartbeatResp{Epoch: m.Epoch}.encode(), nil
			}
			return heartbeatResp{Epoch: m.Epoch - 1}.encode(), nil
		}
		return nil, errors.New("the stand-in answers votes and heartbeats only")
	})
	for id := uint64(1); id <= 2; id++ {
		ln, err := net.Listen(peers[id], standIn)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
	}
	leader, err := NewNode(Config{
		ID:                3,
		Peers:             peers,
		Net:               net,
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   time.Second, // no quorum-loss step-down inside the test
	}, &kvSM{})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Start(); err != nil {
		t.Fatal(err)
	}
	defer leader.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for !leader.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("node 3 never led on the stand-ins' votes")
		}
		time.Sleep(time.Millisecond)
	}
	for end := time.Now().Add(20 * leader.cfg.HeartbeatInterval); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if leaseLive(leader) {
			t.Fatal("acks naming the epoch before the leader's funded its lease")
		}
	}
	current.Store(true)
	for deadline = time.Now().Add(5 * time.Second); !leaseLive(leader); {
		if time.Now().After(deadline) {
			t.Fatal("acks naming the leader's epoch never funded its lease")
		}
		time.Sleep(time.Millisecond)
	}
}

// tcpAddr returns a loopback address free a moment ago.
func tcpAddr(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// hungPeer listens on a loopback port, accepts every connection and never
// answers: a stopped process whose socket stays open.
func hungPeer(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go io.Copy(io.Discard, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestHungPeerHoldsOneCall: a voter that accepts connections and never
// answers costs the leader one call in flight per kind, not a goroutine
// per heartbeat. Two live voters and a hung third over TCP, a 5 ms
// heartbeat: over one second the process may grow by 20 goroutines at
// most, where one per heartbeat would be about 200.
func TestHungPeerHoldsOneCall(t *testing.T) {
	const beat = 5 * time.Millisecond
	e := &ensemble{nodes: make(map[uint64]*Node), peers: map[uint64]string{1: tcpAddr(t), 2: tcpAddr(t), 3: hungPeer(t)}}
	for id := uint64(1); id <= 2; id++ {
		n, err := NewNode(Config{ID: id, Peers: e.peers, Net: transport.TCP{}, HeartbeatInterval: beat}, &kvSM{})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		e.nodes[id] = n
	}
	t.Cleanup(e.stopAll)
	leader := e.waitLeader(t)
	proposeOK(t, leader, "x")
	time.Sleep(20 * beat)
	before := runtime.NumGoroutine()
	time.Sleep(time.Second)
	grew := runtime.NumGoroutine() - before
	t.Logf("goroutines %d -> %d over 1s of %v heartbeats with a hung voter", before, before+grew, beat)
	if grew > 20 {
		t.Fatalf("the process grew by %d goroutines in 1s with a hung voter, want at most 20", grew)
	}
	if !leader.IsLeader() {
		t.Fatal("the leader lost its lease on the live quorum")
	}
}

// TestHungObserverIsDropped: an observer whose heartbeats go unanswered
// is dropped after observerFeedTimeoutFactor election timeouts, as one
// whose heartbeats fail is.
func TestHungObserverIsDropped(t *testing.T) {
	const beat = 5 * time.Millisecond
	n, err := NewNode(Config{ID: 1, Peers: map[uint64]string{1: tcpAddr(t)}, Net: transport.TCP{}, HeartbeatInterval: beat}, &kvSM{})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	for deadline := time.Now().Add(5 * time.Second); !n.IsLeader(); time.Sleep(beat) {
		if time.Now().After(deadline) {
			t.Fatal("a lone voter never led")
		}
	}
	if _, err := n.handleJoin(joinReq{ID: 101, Addr: hungPeer(t)}); err != nil {
		t.Fatal(err)
	}
	timeout := observerFeedTimeoutFactor * n.cfg.ElectionTimeout
	start := time.Now()
	for len(n.ObserverLags()) != 0 {
		if time.Since(start) > timeout+20*beat {
			t.Fatalf("the hung observer is still streamed to %v after joining (timeout %v)", time.Since(start), timeout)
		}
		time.Sleep(beat)
	}
	t.Logf("the hung observer was dropped %v after joining (timeout %v)", time.Since(start).Round(time.Millisecond), timeout)
}

// stopWithin stops n and fails the test if Stop takes longer than bound.
func stopWithin(t *testing.T, n *Node, bound time.Duration) {
	t.Helper()
	start, done := time.Now(), make(chan struct{})
	go func() {
		n.Stop()
		close(done)
	}()
	select {
	case <-done:
		t.Logf("node %d stopped in %v", n.ID(), time.Since(start).Round(time.Microsecond))
	case <-time.After(bound):
		buf := make([]byte, 1<<20)
		t.Fatalf("node %d still stopping %v later:\n%s", n.ID(), bound, buf[:runtime.Stack(buf, true)])
	}
}

// inFlight waits until cond, read under n.mu, holds.
func inFlight(t *testing.T, n *Node, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n.mu.Lock()
		ok := cond()
		n.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d never had %s in flight: %s", n.ID(), what, n.DebugString())
		}
	}
}

// TestStopReturnsWithCallsToAHungPeer: Stop returns within one election
// timeout whatever the node has in flight to a peer that accepts
// connections and never answers. A leader holds a window and a heartbeat
// to a hung voter; a follower whose leader hangs holds a horizon ask, a
// catch-up pull and, once its timer runs out, a vote request.
func TestStopReturnsWithCallsToAHungPeer(t *testing.T) {
	const beat, timeout = 10 * time.Millisecond, 200 * time.Millisecond
	cfg := func(id uint64, peers map[uint64]string) Config {
		return Config{ID: id, Peers: peers, Net: transport.TCP{}, HeartbeatInterval: beat, ElectionTimeout: timeout}
	}
	t.Run("leader", func(t *testing.T) {
		e := &ensemble{nodes: make(map[uint64]*Node), peers: map[uint64]string{1: tcpAddr(t), 2: tcpAddr(t), 3: hungPeer(t)}}
		for id := uint64(1); id <= 2; id++ {
			n, err := NewNode(cfg(id, e.peers), &kvSM{})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			e.nodes[id] = n
		}
		t.Cleanup(e.stopAll)
		leader := e.waitLeader(t)
		proposeOK(t, leader, "x")
		inFlight(t, leader, "a window and a heartbeat to node 3", func() bool {
			s := leader.streams[3]
			return s != nil && s.windows > 0 && leader.calls[peerCall{3, msgHeartbeat}]
		})
		for _, n := range e.nodes {
			stopWithin(t, n, timeout)
		}
	})
	t.Run("follower", func(t *testing.T) {
		n, err := NewNode(cfg(1, map[uint64]string{1: tcpAddr(t), 2: hungPeer(t), 3: hungPeer(t)}), &kvSM{})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		f1, f2 := txnFrame(1, 1, "a"), txnFrame(1, 2, "b")
		if r := n.handlePropose(proposeReq{Epoch: 1, LeaderID: 3, Entries: []Frame{f1, f2}}); !r.Ack {
			t.Fatalf("the window from node 3 was refused: %+v", r)
		}
		waited := make(chan error, 1)
		go func() { waited <- n.WaitApplied(f1.Zxid, time.Minute) }()
		inFlight(t, n, "a horizon ask to node 3", func() bool { return n.calls[peerCall{3, msgSync}] })
		for range gapBeatsBeforeSync {
			n.handleHeartbeat(heartbeatReq{Epoch: 1, LeaderID: 3, Commit: makeZxid(1, 5)})
		}
		inFlight(t, n, "a catch-up pull and a vote request", func() bool {
			return n.syncing && n.calls[peerCall{3, msgRequestVote}]
		})
		stopWithin(t, n, timeout)
		<-waited // the heartbeats' horizon committed f1 meanwhile
	})
}

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

// TestFreshEnsembleElectsAtOnce: voters on fresh stores owe no lease
// anything, so the first election does not wait out a timeout. With a
// 1 s election timeout, the highest ID campaigns at its first tick and
// leads, with a quorum agreeing, within four heartbeats of the start.
func TestFreshEnsembleElectsAtOnce(t *testing.T) {
	const beat = 50 * time.Millisecond
	e := &ensemble{nodes: make(map[uint64]*Node), peers: make(map[uint64]string)}
	for id := uint64(1); id <= 3; id++ {
		e.peers[id] = fmt.Sprintf("fresh-boot-%d", id)
	}
	net := transport.NewInProc()
	for id := range e.peers {
		n, err := NewNode(Config{
			ID:                id,
			Peers:             e.peers,
			Net:               net,
			HeartbeatInterval: beat,
			ElectionTimeout:   time.Second,
			Storage:           new(MemStorage),
		}, &kvSM{})
		if err != nil {
			t.Fatal(err)
		}
		e.nodes[id] = n
	}
	t.Cleanup(e.stopAll)
	start := time.Now()
	for _, n := range e.nodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	for {
		agree := 0
		for _, n := range e.nodes {
			if n.LeaderID() == 3 {
				agree++
			}
		}
		if e.nodes[3].IsLeader() && agree >= 2 {
			break
		}
		if time.Since(start) > 4*beat {
			for _, n := range e.nodes {
				t.Log(n.DebugString())
			}
			t.Fatalf("no leader agreed on within %v of a fresh start", 4*beat)
		}
		time.Sleep(time.Millisecond)
	}
	if ep := e.nodes[3].Epoch(); ep != 1 {
		t.Fatalf("node 3 leads epoch %d: the boot took more than one election", ep)
	}
	t.Logf("node 3 leads %v after the start (heartbeat %v, election timeout 1s)", time.Since(start).Round(time.Millisecond), beat)
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

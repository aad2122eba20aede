package coord

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// linkNet is a test transport whose links can be made to misbehave one
// address at a time: hold parks every call to an address, kill fails the
// parked calls and everything to that address after them (a server that
// died with requests in flight), release fails the parked calls and lets
// everything after them through (a link reset), and lose runs a number
// of calls and throws their replies away (the ambiguous failure: the
// server did the work, the client cannot know).
type linkNet struct {
	transport.Network

	mu     sync.Mutex
	gates  map[string]chan struct{} // held addresses; closed by kill
	lossy  map[string]int           // replies still to lose, per address
	parked atomic.Int32             // calls waiting on a gate
}

func newLinkNet(inner transport.Network) *linkNet {
	return &linkNet{Network: inner, gates: map[string]chan struct{}{}, lossy: map[string]int{}}
}

func (n *linkNet) hold(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gates[addr] = make(chan struct{})
}

func (n *linkNet) kill(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	close(n.gates[addr])
}

func (n *linkNet) release(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if g := n.gates[addr]; g != nil {
		close(g)
		delete(n.gates, addr)
	}
}

func (n *linkNet) lose(addr string, replies int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossy[addr] = replies
}

func (n *linkNet) gate(addr string) chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gates[addr]
}

func (n *linkNet) Dial(addr string) (transport.Conn, error) {
	if g := n.gate(addr); g != nil {
		select {
		case <-g:
			return nil, fmt.Errorf("linkNet: %s is dead", addr)
		default:
		}
	}
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &linkConn{Conn: c, net: n, addr: addr}, nil
}

type linkConn struct {
	transport.Conn
	net  *linkNet
	addr string
}

func (c *linkConn) Call(req []byte) ([]byte, error) {
	if g := c.net.gate(c.addr); g != nil {
		c.net.parked.Add(1)
		<-g
		return nil, fmt.Errorf("linkNet: connection to %s died", c.addr)
	}
	resp, err := c.Conn.Call(req)
	c.net.mu.Lock()
	lost := c.net.lossy[c.addr] > 0
	if lost {
		c.net.lossy[c.addr]--
	}
	c.net.mu.Unlock()
	if lost {
		return nil, fmt.Errorf("linkNet: reply from %s lost", c.addr)
	}
	return resp, err
}

// TestDropConnHonoursGeneration kills a session's server with 32 reads
// in flight on the one connection. All 32 calls fail, but they are one
// failover: the connection generation and the address cursor each move
// by exactly one. (Every failed call used to close whatever connection
// was current and rotate: a late failure closed the connection its
// sibling had just dialed, each redial was a spurious ErrWatchesLost,
// and the cursor ended up wherever 32 rotations left it.)
func TestDropConnHonoursGeneration(t *testing.T) {
	e := startTestEnsemble(t, 3)
	net := newLinkNet(e.net)
	s, err := Connect(net, e.ClientAddrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Create("/gen", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	gen, cur := s.connGen, s.cur
	s.mu.Unlock()

	const flight = 32
	net.hold(e.ClientAddrs[cur])
	futs := make([]*Future, flight)
	for i := range futs {
		futs[i] = s.Begin(context.Background(), Op{Kind: OpExists, Path: "/gen"})
	}
	for deadline := time.Now().Add(5 * time.Second); net.parked.Load() < flight; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d reads reached the connection", net.parked.Load(), flight)
		}
		time.Sleep(time.Millisecond)
	}
	net.kill(e.ClientAddrs[cur])
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Fatalf("read %d did not survive the failover: %v", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.connGen != gen+1 {
		t.Errorf("one server death moved the connection generation by %d, want 1", s.connGen-gen)
	}
	if want := (cur + 1) % len(s.addrs); s.cur != want {
		t.Errorf("address cursor at %d after one failover from %d, want %d", s.cur, cur, want)
	}
}

// startIsolable boots three servers, each behind its own fault injector,
// and waits for a leader. isolate then cuts one follower off the peer
// plane in both directions: nothing the others send reaches it and
// nothing it sends reaches them, so it can neither follow nor disturb
// the quorum, while its client address keeps answering. Returned are the
// client addresses and the indices of the leader and of that follower.
func startIsolable(t *testing.T, inner transport.Network) (clientAddrs []string, leader, victim int, isolate func()) {
	t.Helper()
	ensembleSeq++
	peers := map[uint64]string{}
	for id := uint64(1); id <= 3; id++ {
		peers[id] = fmt.Sprintf("isolable%d-peer-%d", ensembleSeq, id)
	}
	faults := make([]*transport.Faults, 3)
	e := &Ensemble{}
	for i := range faults {
		faults[i] = transport.NewFaults(inner)
		clientAddrs = append(clientAddrs, fmt.Sprintf("isolable%d-client-%d", ensembleSeq, i+1))
		srv, err := NewServer(ServerConfig{
			ID:                uint64(i + 1),
			PeerAddrs:         peers,
			ClientAddr:        clientAddrs[i],
			Net:               faults[i],
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		e.Servers = append(e.Servers, srv)
	}
	if err := e.WaitLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	leader, victim = leaderAndFollower(t, e)
	return clientAddrs, leader, victim, func() {
		for i, f := range faults {
			if i != victim {
				f.Block(peers[uint64(victim+1)])
				continue
			}
			for id, addr := range peers {
				if id != uint64(victim+1) {
					f.Block(addr)
				}
			}
		}
	}
}

// TestRefusingServerIsLeftBehind homes a session on a server that is
// alive to clients but cut off from the quorum: once its election timer
// runs out it knows no leader to name, so every write it is sent comes
// back as a remote refusal, forever, and it applies nothing any more.
// The session must get its writes committed and read them back inside a
// few hundred milliseconds — it used to retry the same server until the
// 10 s deadline — whether or not it lists the leader's address: its
// writes go to the leader home named before the cut, and the read that
// follows is what home refuses, after which the session leaves it.
func TestRefusingServerIsLeftBehind(t *testing.T) {
	for _, knowsLeader := range []bool{false, true} {
		t.Run(fmt.Sprintf("knowsLeader=%v", knowsLeader), func(t *testing.T) {
			inner := transport.NewInProc()
			addrs, leader, victim, isolate := startIsolable(t, inner)
			list := []string{addrs[victim], addrs[3-leader-victim]} // home, the healthy follower
			if knowsLeader {
				list = append(list, addrs[leader])
			}
			s, err := Connect(inner, list)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			if _, err := s.Create("/before", nil, znode.ModePersistent); err != nil {
				t.Fatal(err)
			}
			isolate()

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			start := time.Now()
			if _, err := s.CreateCtx(ctx, "/past-the-refuser", nil, znode.ModePersistent); err != nil {
				t.Fatalf("write through a session homed on a cut-off server: %v (after %v)", err, time.Since(start))
			}
			if _, ok, err := s.ExistsCtx(ctx, "/past-the-refuser"); err != nil || !ok {
				t.Fatalf("the write is not visible to the session that made it (exists=%v, err=%v)", ok, err)
			}
			s.mu.Lock()
			cur := s.cur
			s.mu.Unlock()
			if cur == 0 {
				t.Error("session still homed on the cut-off server")
			}
		})
	}
}

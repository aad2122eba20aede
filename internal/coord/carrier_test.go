package coord

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
	"repro/internal/wire"
)

// A follower learns the commit horizon from the leader's next data
// window or heartbeat, or asks for it when someone there waits (DESIGN
// §9.2): a stamped read parked on it, or an armed watch. These tests
// slow the heartbeat to a second, so a follower that did not ask would
// keep its reader or its watch waiting for most of one.

const slowBeat = time.Second

func startSlowBeatEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	return startSlowBeatOver(t, transport.NewInProc())
}

func startSlowBeatOver(t *testing.T, net transport.Network) *Ensemble {
	t.Helper()
	ensembleSeq++
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           3,
		Net:               net,
		AddrPrefix:        fmt.Sprintf("slowbeat%d", ensembleSeq),
		HeartbeatInterval: slowBeat,
		ElectionTimeout:   2 * slowBeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// TestFollowerReadAfterWritePullsTheHorizon: a follower-homed session
// creates a node through the leader and reads it back at home, 200
// times. The read is stamped with the create's zxid. Whether the
// follower verified that frame before the read parked or after, it asks
// the leader for the horizon, and the leader answers once the create
// commits: every read returns in a small fraction of a heartbeat, and
// home refuses none.
func TestFollowerReadAfterWritePullsTheHorizon(t *testing.T) {
	e := startSlowBeatEnsemble(t)
	_, follower := leaderAndFollower(t, e)
	s := connect(t, e, follower)
	if _, err := s.Create("/raw", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	var worst time.Duration
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("/raw/n%d", i)
		if _, err := s.Create(p, []byte(p), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		got, _, err := s.Get(p)
		worst = max(worst, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != p {
			t.Fatalf("read %q back as %q", p, got)
		}
	}
	t.Logf("slowest read after write at the follower: %v (heartbeat %v)", worst, slowBeat)
	if worst > slowBeat/10 {
		t.Errorf("a read after write took %v at the follower: it waited for the heartbeat", worst)
	}
	if n := counter(e.Servers[follower], "stamp_refusals"); n != 0 {
		t.Errorf("home refused %d reads after writes", n)
	}
}

// TestFollowerWatchFiresBeforeTheHeartbeat: a watch armed on a follower
// makes it ask the leader for the commit of every frame it verifies, so
// the event for a write it watches fires well inside one heartbeat.
func TestFollowerWatchFiresBeforeTheHeartbeat(t *testing.T) {
	e := startSlowBeatEnsemble(t)
	leader, follower := leaderAndFollower(t, e)
	watcher := connect(t, e, follower)
	writer := connect(t, e, leader)
	if _, err := watcher.Create("/wf", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	var worst time.Duration
	for i := 0; i < 5; i++ {
		if _, _, err := watcher.GetW("/wf"); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := writer.Set("/wf", []byte(fmt.Sprint(i)), -1); err != nil {
			t.Fatal(err)
		}
		evs := waitEvents(t, watcher, 1)
		worst = max(worst, time.Since(start))
		if evs[0].Type != EventDataChanged || evs[0].Path != "/wf" {
			t.Fatalf("event = %+v", evs[0])
		}
	}
	t.Logf("slowest watch event at the follower: %v (heartbeat %v)", worst, slowBeat)
	if worst > slowBeat/4 {
		t.Errorf("a watch armed on the follower fired %v after the write: it waited for the heartbeat", worst)
	}
}

// horizonTap counts the horizon exchanges on one follower's link: the
// empty windows the leader sends to follower, and the horizon requests
// and pulls sent to leader. Only a replica with a waiter asks, so in a
// test that arms a watch and reads on one follower alone every request
// counted is that follower's. shipped counts the exchanges that carried
// a frame or a snapshot.
type horizonTap struct {
	transport.Network
	mu                 sync.Mutex
	follower, leader   string // peer addresses; "" counts nothing
	exchanges, shipped int
}

func (p *horizonTap) Dial(addr string) (transport.Conn, error) {
	c, err := p.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &horizonConn{Conn: c, p: p, addr: addr}, nil
}

// watch starts the count on the link between e's leader and follower.
func (p *horizonTap) watch(e *Ensemble, leader, follower int) {
	peer := func(i int) string {
		cfg := e.Servers[i].cfg
		return cfg.PeerAddrs[cfg.ID]
	}
	p.mu.Lock()
	p.leader, p.follower = peer(leader), peer(follower)
	p.mu.Unlock()
}

func (p *horizonTap) counts() (exchanges, shipped int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exchanges, p.shipped
}

type horizonConn struct {
	transport.Conn
	p    *horizonTap
	addr string
}

func (c *horizonConn) Call(req []byte) ([]byte, error) {
	resp, err := c.Conn.Call(req)
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	switch {
	case len(req) == 0:
	case c.addr == c.p.follower && req[0] == 1:
		r := wire.NewReader(req[1:])
		r.Uint64() // epoch
		r.Uint64() // leader
		r.Uint64() // prev
		if r.Uint32() == 0 && r.Err() == nil {
			c.p.exchanges++
		}
	case c.addr == c.p.leader && req[0] == 4:
		c.p.exchanges++
		if err != nil {
			break
		}
		r := wire.NewReader(resp)
		snapshot := r.Bool()
		r.Uint64() // its zxid
		r.Bytes32()
		if snapshot || r.Uint32() > 0 {
			c.p.shipped++
		}
	}
	return resp, err
}

// TestArmedWatchSparesTheReadPull: with a watch armed on a follower, the
// follower waits for every frame it verifies, so each write costs at
// most one horizon exchange on its link, and a read after write that
// parks for it adds none. None ships a frame: on a follower a cached
// mount keeps watched, a read after write must not cost a leader
// request with frames and an fsync of them.
func TestArmedWatchSparesTheReadPull(t *testing.T) {
	net := &horizonTap{Network: transport.NewInProc()}
	e := startSlowBeatOver(t, net)
	leader, follower := leaderAndFollower(t, e)
	s := connect(t, e, follower)
	if _, err := s.Create("/spare", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ExistsW("/spare/never"); err != nil {
		t.Fatal(err)
	}
	net.watch(e, leader, follower)
	const writes = 200
	var worst time.Duration
	for i := 0; i < writes; i++ {
		p := fmt.Sprintf("/spare/n%d", i)
		if _, err := s.Create(p, nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, _, err := s.Get(p); err != nil {
			t.Fatal(err)
		}
		worst = max(worst, time.Since(start))
	}
	exchanges, shipped := net.counts()
	t.Logf("slowest read after write at the watched follower: %v; %d horizon exchanges for %d writes, %d shipped frames",
		worst, exchanges, writes, shipped)
	if worst > slowBeat/10 {
		t.Errorf("a read after write took %v at the follower: it waited for the heartbeat", worst)
	}
	if exchanges > writes {
		t.Errorf("%d horizon exchanges on the watched follower's link for %d writes, want at most one per write", exchanges, writes)
	}
	if shipped != 0 {
		t.Errorf("%d horizon exchanges shipped frames to the watched follower, want none", shipped)
	}
}

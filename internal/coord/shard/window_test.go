package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// countingNet decorates a transport.Network: each connection dialed
// through it — one per session — tracks how many calls it has in flight
// and the most it ever had. Each call is held a moment, as a real
// interconnect would, so concurrent submissions do overlap.
type countingNet struct {
	transport.Network
	mu    sync.Mutex
	conns []*countingConn
}

type countingConn struct {
	transport.Conn
	inflight, peak atomic.Int64
}

func (n *countingNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	n.mu.Lock()
	n.conns = append(n.conns, cc)
	n.mu.Unlock()
	return cc, nil
}

func (c *countingConn) Call(req []byte) ([]byte, error) {
	now := c.inflight.Add(1)
	defer c.inflight.Add(-1)
	for {
		peak := c.peak.Load()
		if now <= peak || c.peak.CompareAndSwap(peak, now) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	return c.Conn.Call(req)
}

// TestWriteWindowHoldsThroughRouter: a session never has more than its
// 64-slot window (coord's asyncWindow, a quarter of the server's retry
// dedup window) of replicated writes in flight, whichever form and
// whichever wrapper submitted them. The parent took the slot only in
// Session.Begin, and Router.Begin(create) — what core's non-atomic
// copyTree issues per leaf — ran the blocking create on a goroutine
// around it, so 300 of them put ~150 writes in flight on each session:
// more than a post-failover replay can deduplicate.
func TestWriteWindowHoldsThroughRouter(t *testing.T) {
	const window = 64
	harnessSeq++
	inner := transport.NewInProc()
	net := &countingNet{Network: inner}
	var sessions []coord.Client
	for s := 0; s < 2; s++ {
		e, err := coord.StartEnsemble(coord.EnsembleConfig{
			Servers:           1,
			Net:               inner,
			AddrPrefix:        fmt.Sprintf("window%d-%d", harnessSeq, s),
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Stop)
		sess, err := coord.Connect(net, e.ClientAddrs)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	r, err := New(sessions)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	// Eight directories, each seeded with one child so its stub chain
	// exists on the children shard: from here on only creates flow.
	var dirs []string
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/w%d", i)
		if _, err := r.Create(dir, nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Create(dir+"/seed", nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	for _, c := range net.conns {
		c.peak.Store(0)
	}

	futs := make([]*coord.Future, 300)
	for i := range futs {
		futs[i] = r.Begin(context.Background(), coord.CreateOp(fmt.Sprintf("%s/n%d", dirs[i%len(dirs)], i), nil, znode.ModePersistent))
	}
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	var busiest int64
	for i, c := range net.conns {
		peak := c.peak.Load()
		if peak > window {
			t.Errorf("session %d had %d writes in flight, window is %d", i, peak, window)
		}
		if peak > busiest {
			busiest = peak
		}
	}
	if busiest < window/2 {
		t.Fatalf("the busiest session peaked at %d writes in flight: the submissions were not pipelined", busiest)
	}
}

package coord

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// leaderAndFollower returns the indices of the ensemble's leader and of
// one follower.
func leaderAndFollower(tb testing.TB, e *Ensemble) (leader, follower int) {
	tb.Helper()
	leader, follower = -1, -1
	for i, s := range e.Servers {
		if s.IsLeader() {
			leader = i
		} else {
			follower = i
		}
	}
	if leader < 0 || follower < 0 {
		tb.Fatal("ensemble has no leader or no follower")
	}
	return leader, follower
}

// peerWindows counts the replication windows on a test ensemble's peer
// links: calls to any address but a client one whose first byte is 1,
// the zab propose window's message kind. Heartbeats, votes and sync
// pulls are not counted.
type peerWindows struct {
	transport.Network
	mu      sync.Mutex
	clients map[string]bool // set once the ensemble is up; nil counts nothing
	windows int
}

func (p *peerWindows) Dial(addr string) (transport.Conn, error) {
	c, err := p.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &windowConn{Conn: c, p: p, addr: addr}, nil
}

func (p *peerWindows) take() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.windows
	p.windows = 0
	return n
}

type windowConn struct {
	transport.Conn
	p    *peerWindows
	addr string
}

func (c *windowConn) Call(req []byte) ([]byte, error) {
	c.p.mu.Lock()
	if c.p.clients != nil && !c.p.clients[c.addr] && len(req) > 0 && req[0] == 1 {
		c.p.windows++
	}
	c.p.mu.Unlock()
	return c.Conn.Call(req)
}

// TestWriteRoundTrips pins the write path's message economy in
// wall-clock time. With every call delayed by d, a write costs the
// client call to the leader and one propose round trip (2d), wherever
// the session is homed: a follower or an observer names the leader on
// the session's first write, and every write after it goes there
// directly — one connection dialed for good, nothing proposed at home —
// whether or not the session lists the leader's address itself. On the
// peer links each write is exactly one window per follower and
// observer: nobody waits on them, so no empty commit window follows.
func TestWriteRoundTrips(t *testing.T) {
	const d = 20 * time.Millisecond
	ensembleSeq++
	net := &peerWindows{Network: &transport.Latency{Inner: transport.NewInProc(), Delay: func() time.Duration { return d }}}
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           3,
		Net:               net,
		AddrPrefix:        fmt.Sprintf("rtt%d", ensembleSeq),
		HeartbeatInterval: 50 * time.Millisecond,
		ElectionTimeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	leader, follower := leaderAndFollower(t, e)
	obs := startObserver(t, e, 101)
	home := e.ClientAddrs[follower]
	clients := map[string]bool{obs.cfg.ClientAddr: true}
	for _, a := range e.ClientAddrs {
		clients[a] = true
	}
	net.mu.Lock()
	net.clients = clients
	net.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); len(e.Servers[leader].node.ObserverLags()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the observer never joined the leader")
		}
	}
	for _, c := range []struct {
		name  string
		addrs []string
		home  *Server
	}{
		{"leader", []string{e.ClientAddrs[leader]}, e.Servers[leader]},
		{"follower", []string{home}, e.Servers[follower]},
		{"follower-listing-the-leader", []string{home, e.ClientAddrs[leader]}, e.Servers[follower]},
		{"observer", []string{obs.cfg.ClientAddr}, obs},
	} {
		s, err := Connect(e.net, c.addrs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if _, err := s.Create("/"+c.name, nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		// The best of a few tries: the bound is about message count, and
		// a scheduler hiccup only ever adds time. That no write after the
		// first took another route is what the dial count and the home's
		// proposals say.
		const tries = 5
		best, worst := time.Hour, time.Duration(0)
		proposed := counter(c.home, "writes")
		time.Sleep(2 * d) // the first create's windows come home
		net.take()
		for i := 0; i < tries; i++ {
			start := time.Now()
			if _, err := s.Create(fmt.Sprintf("/%s/n%d", c.name, i), nil, znode.ModePersistent); err != nil {
				t.Fatal(err)
			}
			best, worst = min(best, time.Since(start)), max(worst, time.Since(start))
		}
		time.Sleep(2 * d) // the last create's windows come home
		t.Logf("create, %s home: %v best, %v worst (%.2f call delays)", c.name, best, worst, float64(best)/float64(d))
		if best >= d*5/2 {
			t.Errorf("create, %s home: took %v, want under %v", c.name, best, d*5/2)
		}
		if got, want := net.take(), tries*3; got != want {
			t.Errorf("create, %s home: %d windows on the peer links for %d writes, want %d (one per follower and observer)", c.name, got, tries, want)
		}
		if c.home == e.Servers[leader] {
			continue // home leads: nothing to dial, and it proposes every write
		}
		if addr, gen := leadOf(s); addr != e.ClientAddrs[leader] || gen != 1 {
			t.Errorf("%s: writes go to %q over connection %d, want the leader's %q over the first", c.name, addr, gen, e.ClientAddrs[leader])
		}
		if got := counter(c.home, "writes") - proposed; got != 0 {
			t.Errorf("%s: home proposed %d of the session's writes", c.name, got)
		}
	}
}

// BenchmarkGroupCommit measures coordination write throughput under
// injected network latency as concurrent sessions grow, comparing the
// group-commit pipeline (DESIGN.md §9) against the serialized
// one-txn-per-quorum-round-trip baseline (zab.Config MaxBatchTxns=1,
// MaxInflightFrames=1 — the pre-pipeline propose path, reached through
// the ablateZab test hook). Serialized, every znode write pays a full
// exclusive quorum round trip, so throughput is flat in the session
// count; with group commit the leader coalesces the writes queued
// behind each round trip into multi-txn frames, so throughput scales
// with the concurrency — ≥4× at 16 sessions is the acceptance bar.
// The durable mode is the pipeline defaults on the storage engine
// (DESIGN.md §11.5), where every acknowledgement waits on an fsync that
// rides whole frames: grouped against durable is what durability costs.
// Sessions are homed on the leader, so the leader's pipeline is what
// is measured, not a second connection.
func BenchmarkGroupCommit(b *testing.B) {
	const (
		netRTT       = 500 * time.Microsecond
		opsPerClient = 25
	)
	modes := []struct {
		name          string
		batch, window int
		durable       bool
	}{
		{"serialized", 1, 1, false},
		{"grouped", 0, 0, false}, // zero = the pipeline defaults
		{"durable", 0, 0, true},
	}
	for _, mode := range modes {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", mode.name, clients), func(b *testing.B) {
				ablateZab = func(c *zab.Config) { c.MaxBatchTxns, c.MaxInflightFrames = mode.batch, mode.window }
				b.Cleanup(func() { ablateZab = nil })
				ensembleSeq++
				// 50 ms / 1 s: with the unit tests' 5 ms / 50 ms pair a
				// scheduler stall under 16 busy sessions outlasts the
				// election timeout. MaxLogEntries 2^20 keeps the fuzzy
				// snapshotter, which stalls apply, out of the timing.
				cfg := EnsembleConfig{
					Servers:           3,
					Net:               &transport.Latency{Inner: transport.NewInProc(), Delay: func() time.Duration { return netRTT }},
					AddrPrefix:        fmt.Sprintf("gcommit%d", ensembleSeq),
					HeartbeatInterval: 50 * time.Millisecond,
					ElectionTimeout:   time.Second,
					MaxLogEntries:     1 << 20,
				}
				if mode.durable {
					cfg.DataDir = b.TempDir()
				}
				e, err := StartEnsemble(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(e.Stop)
				leader, _ := leaderAndFollower(b, e)
				sessions := make([]*Session, clients)
				for c := range sessions {
					if sessions[c], err = e.Connect(leader); err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { sessions[c].Close() })
				}
				if _, err := sessions[0].Create("/gc", nil, znode.ModePersistent); err != nil {
					b.Fatal(err)
				}
				// Pre-format every path so the timed section measures the
				// write pipeline, not fmt.Sprintf.
				paths := make([][]string, clients)
				for c := range paths {
					paths[c] = make([]string, b.N*opsPerClient)
					for k := range paths[c] {
						paths[c][k] = fmt.Sprintf("/gc/c%d-%d", c, k)
					}
				}
				before, err := sessions[0].Status()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					errs := make([]error, clients)
					for c := range sessions {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for _, p := range paths[c][i*opsPerClient : (i+1)*opsPerClient] {
								if _, errs[c] = sessions[c].Create(p, nil, znode.ModePersistent); errs[c] != nil {
									return
								}
							}
						}()
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				if after, err := sessions[0].Status(); err != nil || after.Epoch != before.Epoch {
					b.Fatalf("leader election during the timed section (epoch %d -> %d, %v); result discarded", before.Epoch, after.Epoch, err)
				}
				b.ReportMetric(float64(b.N*clients*opsPerClient)/b.Elapsed().Seconds(), "writes/s")
			})
		}
	}
}

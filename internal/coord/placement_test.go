package coord

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// Write placement and the last-seen stamp (DESIGN.md §10.4, §10.5): a
// session homed on a follower or an observer writes straight to the
// leader and still reads its own writes at home.

// startFaultyEnsemble boots three servers over a fault-injecting
// in-process network, with timeouts long enough that a delayed or cut
// peer link does not start an election inside a test.
func startFaultyEnsemble(t *testing.T) (*Ensemble, *transport.Faults) {
	t.Helper()
	ensembleSeq++
	faults := transport.NewFaults(transport.NewInProc())
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           3,
		Net:               faults,
		AddrPrefix:        fmt.Sprintf("placed%d", ensembleSeq),
		HeartbeatInterval: 20 * time.Millisecond,
		ElectionTimeout:   600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e, faults
}

// awaitDirect writes until the session has found the leader — a
// connection to it, or home itself — since the search starts with a
// write and runs beside it. It reports whether the leader is home.
func awaitDirect(t *testing.T, s *Session) (homeLeads bool) {
	t.Helper()
	placed := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		homeLeads = s.homeLeads
		return s.lead != nil || s.homeLeads
	}
	for deadline := time.Now().Add(5 * time.Second); !placed(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("session never found a direct path to the leader")
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return homeLeads
}

func counter(srv *Server, name string) int64 { return srv.Metrics().Counter(name).Value() }

// TestLaggingHomeHoldsStampedReads slows the leader's stream to a
// session's home follower and writes-then-reads through the session 200
// times. The write is acknowledged by the leader before home has it; the
// read carries its zxid, so home holds it until it has applied the write
// and the session never sees the value from before. Then the link is
// slowed past the bound: home refuses the read and the session takes it
// to its next address — still never the old value.
func TestLaggingHomeHoldsStampedReads(t *testing.T) {
	e, faults := startFaultyEnsemble(t)
	_, follower := leaderAndFollower(t, e)
	s := connect(t, e, follower)
	if _, err := s.Create("/lag", []byte("0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	awaitDirect(t, s)
	homePeer := e.cfgs[follower].PeerAddrs[e.Servers[follower].ID()]

	faults.SetDelay(homePeer, 3*time.Millisecond)
	for i := 1; i <= 200; i++ {
		want := fmt.Sprint(i)
		if _, err := s.Set("/lag", []byte(want), -1); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Get("/lag")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("read %q after writing %q: home answered before it had applied the session's write", got, want)
		}
	}
	s.mu.Lock()
	stayed := s.cur == 0 && s.connGen == 1
	s.mu.Unlock()
	if !stayed {
		t.Fatal("a 3 ms lag moved the session off its home server")
	}
	if n := counter(e.Servers[follower], "stamp_refusals"); n != 0 {
		t.Fatalf("home refused %d reads it only had to hold", n)
	}

	faults.SetDelay(homePeer, stampWait+100*time.Millisecond)
	if _, err := s.Set("/lag", []byte("past the bound"), -1); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("/lag")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "past the bound" {
		t.Fatalf("read %q from the replica the session moved to", got)
	}
	if n := counter(e.Servers[follower], "stamp_refusals"); n == 0 {
		t.Error("home never refused, yet it cannot have applied the write in time")
	}
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur == 0 {
		t.Error("session still homed on the replica that refused it")
	}
}

// TestDirectPathBlocked cuts the session off the leader's client address
// and nothing else. Writes fall back to home's forward path; a direct
// write whose reply was lost — applied or not, the session cannot know —
// is sent again through home under the same (session, seq) and is one
// write, so a sequential create neither duplicates nor changes its name;
// none of it touches the home connection or the watches on it; and once
// the address is reachable again the direct path comes back.
func TestDirectPathBlocked(t *testing.T) {
	e, faults := startFaultyEnsemble(t)
	leader, follower := leaderAndFollower(t, e)
	net := newLinkNet(faults)
	addrs := []string{e.ClientAddrs[follower], e.ClientAddrs[leader]}
	s, err := Connect(net, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Create("/q", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	awaitDirect(t, s)
	if _, err := s.ChildrenW("/q"); err != nil {
		t.Fatal(err)
	}

	// The ambiguous failure: the leader applies the create, the reply is
	// lost, home forwards the retry.
	forwarded := counter(e.Servers[follower], "writes")
	net.lose(e.ClientAddrs[leader], 1)
	first, err := s.Create("/q/n-", nil, znode.ModeSequential)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(e.Servers[follower], "writes") - forwarded; got != 1 {
		t.Errorf("home proposed the write whose direct reply was lost %d times, want 1", got)
	}
	kids, err := s.Children("/q")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 || "/q/"+kids[0] != first {
		t.Fatalf("one sequential create, retried through home, left %v (acknowledged as %s)", kids, first)
	}

	faults.Block(e.ClientAddrs[leader])
	forwarded = counter(e.Servers[follower], "writes")
	for i := 0; i < 20; i++ {
		if _, err := s.Create("/q/n-", nil, znode.ModeSequential); err != nil {
			t.Fatalf("write with the leader's client address blocked: %v", err)
		}
	}
	if got := counter(e.Servers[follower], "writes") - forwarded; got != 20 {
		t.Errorf("home proposed %d of the 20 writes made while the direct path was blocked", got)
	}
	if kids, _ = s.Children("/q"); len(kids) != 21 {
		t.Fatalf("%d children after 21 acknowledged creates", len(kids))
	}

	// Losing the write connection, twice by now, is not a failover: home
	// and the watch registered on it were never touched.
	s.mu.Lock()
	gen, cur := s.connGen, s.cur
	s.mu.Unlock()
	if gen != 1 || cur != 0 {
		t.Errorf("losing the write connection moved the home connection (generation %d, address %d)", gen, cur)
	}
	if evs, err := s.WaitEvents(context.Background(), 5*time.Second); err != nil || len(evs) == 0 {
		t.Errorf("the watch on home did not survive the loss of the write connection: %v, %v", evs, err)
	}

	faults.Unblock(e.ClientAddrs[leader])
	awaitDirect(t, s)
	forwarded = counter(e.Servers[follower], "writes")
	if _, err := s.Create("/q/n-", nil, znode.ModeSequential); err != nil {
		t.Fatal(err)
	}
	if got := counter(e.Servers[follower], "writes") - forwarded; got != 0 {
		t.Error("write went through home although the direct path is back")
	}
}

// startObserver adds a non-voting replica to a running ensemble.
func startObserver(t *testing.T, e *Ensemble, id uint64) *Server {
	t.Helper()
	cfg := e.cfgs[0]
	cfg.ID, cfg.Observer, cfg.DataDir = id, true, ""
	cfg.PeerAddrs = e.PeerAddrs()
	cfg.PeerAddrs[id] = fmt.Sprintf("%s-observer-peer-%d", e.ClientAddrs[0], id)
	cfg.ClientAddr = fmt.Sprintf("%s-observer-client-%d", e.ClientAddrs[0], id)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

// TestObserverHomedSession homes a session on an observer and lists the
// voters behind it. Its writes take two call delays — client to leader,
// leader to a follower — with the observer on neither leg, and every one
// of them is visible to the read that follows it on the observer.
func TestObserverHomedSession(t *testing.T) {
	const d = 20 * time.Millisecond
	ensembleSeq++
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           3,
		Net:               &transport.Latency{Inner: transport.NewInProc(), Delay: func() time.Duration { return d }},
		AddrPrefix:        fmt.Sprintf("obshome%d", ensembleSeq),
		HeartbeatInterval: 50 * time.Millisecond,
		ElectionTimeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	obs := startObserver(t, e, 101)
	s, err := Connect(e.net, append([]string{obs.cfg.ClientAddr}, e.ClientAddrs...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Create("/obs", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	awaitDirect(t, s)

	reads, writes := counter(obs, "reads"), counter(obs, "writes")
	best := time.Hour
	for i := 0; i < 10; i++ {
		path := fmt.Sprintf("/obs/n%d", i)
		start := time.Now()
		if _, err := s.Create(path, nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
		if _, ok, err := s.Exists(path); err != nil || !ok {
			t.Fatalf("%s acknowledged by the leader but not visible on the observer (exists=%v, err=%v)", path, ok, err)
		}
	}
	t.Logf("create from an observer-homed session: %v (%.2f call delays)", best, float64(best)/float64(d))
	if best >= d*5/2 {
		t.Errorf("create took %v, want under %v", best, d*5/2)
	}
	if got := counter(obs, "reads") - reads; got != 10 {
		t.Errorf("the observer answered %d of the session's 10 reads", got)
	}
	if got := counter(obs, "writes") - writes; got != 0 {
		t.Errorf("the observer forwarded %d writes of a session that knows the leader", got)
	}
}

// TestLeaderKillMidFlight stops the leader with 16 writes of a
// follower-homed session in flight on the direct connection. Every
// future resolves — through home, exact-once, once a new leader stands —
// and the next writes go straight to the new leader.
func TestLeaderKillMidFlight(t *testing.T) {
	e := startTestEnsemble(t, 3)
	leader, follower := leaderAndFollower(t, e)
	s := connect(t, e, follower)
	if _, err := s.Create("/kill", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	awaitDirect(t, s)

	const flight = 16
	futs := make([]*Future, flight)
	for i := range futs {
		futs[i] = s.Begin(context.Background(), CreateOp("/kill/n-", nil, znode.ModeSequential))
	}
	e.StopServer(leader)
	names := map[string]bool{}
	for i, f := range futs {
		res, err := f.Result()
		if err != nil {
			t.Fatalf("write %d in flight when the leader died: %v", i, err)
		}
		names[res.Created] = true
	}
	kids, err := s.Children("/kill")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != flight || len(kids) != flight {
		t.Fatalf("%d writes acknowledged under %d names, %d children: a retry was applied twice or lost", flight, len(names), len(kids))
	}

	homeLeads := awaitDirect(t, s)
	next := e.Leader()
	if next == nil {
		t.Fatal("no leader after the kill")
	}
	s.mu.Lock()
	home := e.ClientAddrs[follower] == s.addrs[s.cur] // a slow election may have moved it
	s.mu.Unlock()
	proposed, forwarded := counter(next, "writes"), counter(e.Servers[follower], "writes")
	if _, err := s.Create("/kill/after", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if home && !homeLeads && (counter(next, "writes") == proposed || counter(e.Servers[follower], "writes") != forwarded) {
		t.Error("the write after the failover did not go to the new leader directly")
	}
}

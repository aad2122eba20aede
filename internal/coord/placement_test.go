package coord

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Write placement and the last-seen stamp (DESIGN.md §10.4, §10.5): a
// session homed on a follower or an observer is told where the leader
// is, writes straight to it, and still reads its own writes at home.

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

// leadOf reports where the session sends its writes: the address a
// redirect named as the leader's, "" while they go home.
func leadOf(s *Session) (addr string, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leadAddr, s.leadGen
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

// TestDirectPathBlocked takes the leader's client address away from a
// follower-homed session, and nothing else. A write whose reply from the
// leader was lost — applied or not, the session cannot know — goes home,
// is redirected to the leader and sent again under the same (session,
// seq): one write, so a sequential create neither duplicates nor changes
// its name. With the address blocked no write gets through — home only
// ever names the leader, it proposes nothing — and each fails by its
// deadline. None of it touches the home connection or the watches on it,
// and once the address is reachable again the writes are back on it.
func TestDirectPathBlocked(t *testing.T) {
	e, faults := startFaultyEnsemble(t)
	leader, follower := leaderAndFollower(t, e)
	home := e.Servers[follower]
	net := newLinkNet(faults)
	s, err := Connect(net, []string{e.ClientAddrs[follower]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Create("/q", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if addr, _ := leadOf(s); addr != e.ClientAddrs[leader] {
		t.Fatalf("a follower-homed session writes to %q, want the leader's %q", addr, e.ClientAddrs[leader])
	}
	if _, err := s.ChildrenW("/q"); err != nil {
		t.Fatal(err)
	}

	// The ambiguous failure: the leader applies the create, the reply is
	// lost, home names the leader and the retry goes there again.
	net.lose(e.ClientAddrs[leader], 1)
	first, err := s.Create("/q/n-", nil, znode.ModeSequential)
	if err != nil {
		t.Fatal(err)
	}
	kids, err := s.Children("/q")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 || "/q/"+kids[0] != first {
		t.Fatalf("one sequential create, retried on the leader, left %v (acknowledged as %s)", kids, first)
	}
	if _, gen := leadOf(s); gen != 2 {
		t.Errorf("the leader connection was dialed %d times, want twice: once, and again after the lost reply", gen)
	}

	faults.Block(e.ClientAddrs[leader])
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, err := s.CreateCtx(ctx, "/q/blocked-", nil, znode.ModeSequential)
		cancel()
		if err == nil {
			t.Fatal("a write got through with the leader's client address blocked")
		}
	}
	if kids, _ = s.Children("/q"); len(kids) != 1 {
		t.Fatalf("%d children after one acknowledged create", len(kids))
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
	if _, err := s.Create("/q/n-", nil, znode.ModeSequential); err != nil {
		t.Fatal(err)
	}
	if addr, _ := leadOf(s); addr != e.ClientAddrs[leader] {
		t.Errorf("writes go to %q after the leader's address came back, want %q", addr, e.ClientAddrs[leader])
	}
	if got := counter(home, "writes"); got != 0 {
		t.Errorf("home, a follower, proposed %d writes", got)
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
// voters behind it. After the first, which the observer redirects, its
// writes take two call delays — client to leader, leader to a follower —
// with the observer on neither leg, and every one of them is visible to
// the read that follows it on the observer.
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

	reads := counter(obs, "reads")
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
	if got := counter(obs, "writes"); got != 0 {
		t.Errorf("the observer proposed %d writes", got)
	}
}

// TestLeaderKillMidFlight stops the leader with 16 writes of an
// observer-homed session in flight on the connection to it. The retries
// go home and are redirected to the next leader — and that one is
// stopped too, with every retry parked on the way to it, before any
// reaches it. Every future still resolves exactly once, through a third
// leader, and the observer proposes nothing throughout. A write the
// dying leader had enqueued comes back as a refusal that does not say
// whether it was proposed; the dedup window is what makes its retry one
// write.
func TestLeaderKillMidFlight(t *testing.T) {
	e := startTestEnsemble(t, 5)
	obs := startObserver(t, e, 101)
	net := newLinkNet(e.net)
	s, err := Connect(net, []string{obs.cfg.ClientAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Create("/kill", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	first := e.Leader()
	if addr, _ := leadOf(s); addr != first.cfg.ClientAddr {
		t.Fatalf("the session writes to %q, want the leader's %q", addr, first.cfg.ClientAddr)
	}
	// Every other voter is held: the retries park on the way to whichever
	// of them the observer names next.
	for _, addr := range e.ClientAddrs {
		if addr != first.cfg.ClientAddr {
			net.hold(addr)
		}
	}

	const flight = 16
	futs := make([]*Future, flight)
	for i := range futs {
		futs[i] = s.Begin(context.Background(), CreateOp("/kill/n-", nil, znode.ModeSequential))
	}
	e.StopServer(int(first.ID() - 1))
	done := func() (n int32) {
		for _, f := range futs {
			select {
			case <-f.Done():
				n++
			default:
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); net.parked.Load()+done() < flight; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d writes parked on the way to the next leader and %d resolved, of %d", net.parked.Load(), done(), flight)
		}
	}
	if net.parked.Load() == 0 {
		t.Fatal("every write completed before the leader stopped; nothing was retried")
	}
	second := e.Leader()
	if addr, _ := leadOf(s); second == nil || addr != second.cfg.ClientAddr {
		t.Fatalf("the retries were redirected to %q, not to the new leader", addr)
	}
	for _, addr := range e.ClientAddrs {
		if addr != first.cfg.ClientAddr && addr != second.cfg.ClientAddr {
			net.release(addr)
		}
	}
	e.StopServer(int(second.ID() - 1))
	net.kill(second.cfg.ClientAddr)

	names := map[string]bool{}
	for i, f := range futs {
		res, err := f.Result()
		if err != nil {
			t.Fatalf("write %d in flight when the leaders died: %v", i, err)
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
	third := e.Leader()
	if _, err := s.Create("/kill/after", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if addr, _ := leadOf(s); third == nil || addr != third.cfg.ClientAddr {
		t.Errorf("the write after the failovers went to %q, not to the new leader", addr)
	}
	if got := counter(obs, "writes"); got != 0 {
		t.Errorf("the observer proposed %d writes", got)
	}
}

// Read placement (DESIGN.md §13.4): a lease read and a Sync take the
// write's route to the leader, which answers them without a proposal;
// everything else reads at home, and home is the first address of the
// list that will have the session.

// proposals sums the client transactions the given servers proposed.
func proposals(servers ...*Server) (n int64) {
	for _, srv := range servers {
		n += counter(srv, "writes")
	}
	return n
}

// TestLeaseReadTakesTheWritePath homes a session on a follower and lists
// the leader behind it. A lease read is answered by the leader, under
// its lease — home sees nothing of it and nothing is proposed —
// whichever form submitted it, and so is a Sync. A follower sent one
// names the leader and reads nothing. That each is one call delay from
// every home is the cost ledger's (internal/costledger, DESIGN §13.4).
func TestLeaseReadTakesTheWritePath(t *testing.T) {
	ensembleSeq++
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           3,
		Net:               transport.NewInProc(),
		AddrPrefix:        fmt.Sprintf("lease%d", ensembleSeq),
		HeartbeatInterval: 50 * time.Millisecond,
		ElectionTimeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	leader, follower := leaderAndFollower(t, e)
	s, err := Connect(e.net, []string{e.ClientAddrs[follower], e.ClientAddrs[leader]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Create("/leased", []byte("v"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}

	leased := Op{Kind: OpGet, Path: "/leased", Lease: true}
	lead, home := e.Servers[leader], e.Servers[follower]
	leaseReads, homeReads, proposed := counter(lead, "lease_reads"), counter(home, "reads"), proposals(e.Servers...)
	const tries = 5
	for i := 0; i < tries; i++ {
		if res, err := s.Do(context.Background(), leased); err != nil || string(res.Data) != "v" {
			t.Fatalf("lease read = %q, %v", res.Data, err)
		}
	}
	if res, err := s.Begin(context.Background(), leased).Result(); err != nil || res.Stat.Version != 0 {
		t.Fatalf("Begin(lease read) = %+v, %v", res, err)
	}
	if got := counter(lead, "lease_reads") - leaseReads; got != tries+1 {
		t.Errorf("the leader answered %d of %d lease reads under its lease", got, tries+1)
	}
	if got := counter(home, "reads") - homeReads; got != 0 {
		t.Errorf("home answered %d reads of a session that knows the leader", got)
	}
	if got := proposals(e.Servers...) - proposed; got != 0 {
		t.Errorf("%d transactions proposed for lease reads the leader could answer", got)
	}
	for i := 0; i < tries; i++ {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := proposals(e.Servers...) - proposed; got != 0 {
		t.Errorf("%d transactions proposed for syncs", got)
	}

	var w wire.Writer
	w.Uint8(opLeaseRead)
	w.Uint8(opGet)
	w.String("/leased")
	reply, err := home.handleClient(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, status, err := splitReply(reply); err != nil || status != notLeader(e.ClientAddrs[leader]) {
		t.Fatalf("a follower answered a lease read with %v, %v; want it refused with the leader's address", status, err)
	}
	if got := counter(home, "reads") - homeReads; got != 0 {
		t.Error("the follower read its replica for the lease read it refused")
	}
}

// TestLeaseReadIsLinearizable checks a lease read stays linearizable
// whether or not the leader holds its lease. The session's home trails
// the leader (its peer address is delayed), so a plain read there right
// after another session's write is stale; the lease read is not, 200
// times over. A session whose only address is an observer is sent to the
// leader and served under its lease. Where the leader holds no lease —
// its clock-skew bound is the whole election timeout, which disables the
// lease — a follower-homed session's lease read is served by the leader
// after a heartbeat round. Neither proposes anything.
func TestLeaseReadIsLinearizable(t *testing.T) {
	for _, noLease := range []bool{false, true} {
		name := "observer only"
		if noLease {
			name = "no lease"
		}
		t.Run(name, func(t *testing.T) {
			if noLease {
				ablateZab = func(c *zab.Config) { c.MaxClockSkew = c.ElectionTimeout }
			}
			e, faults := startFaultyEnsemble(t)
			ablateZab = nil
			leader, follower := leaderAndFollower(t, e)
			other := 3 - leader - follower
			home := e.Servers[follower]
			if !noLease {
				home = startObserver(t, e, 101)
			}
			all := append([]*Server{home}, e.Servers...)

			// The writer's home is the other follower, so it shares no
			// replica with the reader and none of its links is delayed.
			writer, err := Connect(faults, []string{e.ClientAddrs[other]})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { writer.Close() })
			if _, err := writer.Create("/x", []byte("0"), znode.ModePersistent); err != nil {
				t.Fatal(err)
			}
			s, err := Connect(faults, []string{home.cfg.ClientAddr})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			homePeer := home.cfg.PeerAddrs[home.cfg.ID]
			faults.SetDelay(homePeer, 3*time.Millisecond)
			t.Cleanup(func() { faults.SetDelay(homePeer, 0) })

			stale := 0
			for i := 1; i <= 200; i++ {
				want := fmt.Sprintf("%s %d", name, i)
				if _, err := writer.Set("/x", []byte(want), -1); err != nil {
					t.Fatal(err)
				}
				if data, _, _ := home.sm.treeRef().Get("/x"); string(data) != want {
					stale++ // what a plain read at home would answer now
				}
				leaseReads, proposed := counter(home, "lease_reads")+counter(e.Servers[leader], "lease_reads"), proposals(all...)
				res, err := s.Do(context.Background(), Op{Kind: OpGet, Path: "/x", Lease: true})
				if err != nil {
					t.Fatalf("lease read: %v", err)
				}
				if string(res.Data) != want {
					t.Fatalf("round %d: lease read %q after %q was acknowledged to another session", i, res.Data, want)
				}
				if got := proposals(all...) - proposed; got != 0 {
					t.Fatalf("round %d: %d transactions proposed for one lease read", i, got)
				}
				if got := counter(home, "lease_reads") + counter(e.Servers[leader], "lease_reads") - leaseReads; got != 1 {
					t.Fatalf("round %d: %d reads served as lease reads, want 1", i, got)
				}
			}
			if stale == 0 {
				t.Error("home never trailed the writer: the test did not exercise a read that would have been stale")
			}
			t.Logf("home trailed the acknowledged write in %d of 200 rounds", stale)
		})
	}
}

// TestSyncProposesNothing issues 1 000 Syncs from a follower-homed and
// from an observer-homed session: the leader answers each with its
// applied zxid and no server proposes anything for them.
func TestSyncProposesNothing(t *testing.T) {
	e := startTestEnsemble(t, 3)
	obs := startObserver(t, e, 101)
	_, follower := leaderAndFollower(t, e)
	all := append([]*Server{obs}, e.Servers...)
	for _, home := range []*Server{e.Servers[follower], obs} {
		s, err := Connect(e.net, []string{home.cfg.ClientAddr})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		before := make([]int64, len(all))
		for i, srv := range all {
			before[i] = counter(srv, "writes")
		}
		for i := 0; i < 1000; i++ {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		for i, srv := range all {
			if got := counter(srv, "writes") - before[i]; got != 0 {
				t.Errorf("server %d proposed %d transactions for 1 000 syncs of a session homed on %d", srv.ID(), got, home.ID())
			}
		}
	}
}

// TestObserverFirstFailover is read placement by address order, under
// faults. A session over [o1, o2, v1, v2, v3] reads on o1. o1 goes dark
// on both planes with 32 readers at work: every read resolves, by one
// failover to o2, and o2 stays home after o1 is back. Then o2 is cut
// off the log stream only — alive to clients, falling behind — and the
// session writes: the next read carries the write's zxid, o2 holds it,
// refuses it, and a voter answers with what was written.
func TestObserverFirstFailover(t *testing.T) {
	e, faults := startFaultyEnsemble(t)
	o1, o2 := startObserver(t, e, 101), startObserver(t, e, 102)
	s, err := Connect(faults, append([]string{o1.cfg.ClientAddr, o2.cfg.ClientAddr}, e.ClientAddrs...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Create("/f", []byte("old"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	place := func() (cur int, gen uint64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.cur, s.connGen
	}
	if cur, gen := place(); cur != 0 || gen != 1 {
		t.Fatalf("session homed on address %d (generation %d), want the first observer", cur, gen)
	}

	// Each read spends 2 ms on the way to o1, so all 32 readers are inside
	// a call whenever the block lands.
	const readers, each = 32, 40
	faults.SetDelay(o1.cfg.ClientAddr, 2*time.Millisecond)
	before := counter(o1, "reads")
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			for j := 0; j < each; j++ {
				if _, _, err := s.Get("/f"); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); counter(o1, "reads")-before < readers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the readers never reached the first observer")
		}
	}
	faults.Block(o1.cfg.ClientAddr, o1.cfg.PeerAddrs[o1.cfg.ID])
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("a read did not survive the observer going dark: %v", err)
		}
	}
	if got := counter(o1, "reads") - before; got >= readers*each {
		t.Fatal("every read was answered before the block landed; nothing failed over")
	}
	if cur, gen := place(); cur != 1 || gen != 2 {
		t.Fatalf("home is address %d after %d dials, want the second observer after one failover", cur, gen)
	}

	faults.Unblock(o1.cfg.ClientAddr, o1.cfg.PeerAddrs[o1.cfg.ID])
	faults.SetDelay(o1.cfg.ClientAddr, 0)
	before = counter(o1, "reads")
	for i := 0; i < 10; i++ {
		if _, _, err := s.Get("/f"); err != nil {
			t.Fatal(err)
		}
	}
	if cur, gen := place(); cur != 1 || gen != 2 || counter(o1, "reads") != before {
		t.Fatalf("home moved (address %d, generation %d) once the first observer was back; it is sticky", cur, gen)
	}

	faults.Block(o2.cfg.PeerAddrs[o2.cfg.ID])
	refused := counter(o2, "stamp_refusals")
	if _, err := s.Set("/f", []byte("new"), -1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	data, _, err := s.Get("/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "new" {
		t.Fatalf("read %q after writing %q", data, "new")
	}
	if held := time.Since(start); held < stampWait {
		t.Errorf("the read came back after %v; the lagging observer should have held it for %v", held, stampWait)
	}
	if got := counter(o2, "stamp_refusals") - refused; got != 1 {
		t.Errorf("the lagging observer refused %d reads, want 1", got)
	}
	if cur, _ := place(); cur != 2 {
		t.Errorf("home is address %d after the refusal, want the first voter", cur)
	}
}

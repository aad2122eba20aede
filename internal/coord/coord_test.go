package coord

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
)

var ensembleSeq int

func startTestEnsemble(t *testing.T, servers int) *Ensemble {
	t.Helper()
	ensembleSeq++
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           servers,
		Net:               transport.NewInProc(),
		AddrPrefix:        fmt.Sprintf("coord%d", ensembleSeq),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   30 * time.Millisecond,
		MaxLogEntries:     256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// leaderIndex returns the index of the ensemble's leader. A session
// homed there reads every write another session has made without a
// Sync, which a follower-homed one is not promised.
func leaderIndex(tb testing.TB, e *Ensemble) int {
	tb.Helper()
	for i, s := range e.Servers {
		if s != nil && s.IsLeader() {
			return i
		}
	}
	tb.Fatal("ensemble has no leader")
	return -1
}

func connect(t *testing.T, e *Ensemble, preferred int) *Session {
	t.Helper()
	s, err := e.Connect(preferred)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSessionBasicCRUD(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)

	created, err := s.Create("/dufs", []byte("root"), znode.ModePersistent)
	if err != nil {
		t.Fatal(err)
	}
	if created != "/dufs" {
		t.Fatalf("created = %q", created)
	}
	data, stat, err := s.Get("/dufs")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "root" || stat.Version != 0 {
		t.Fatalf("data=%q stat=%+v", data, stat)
	}
	if _, err := s.Set("/dufs", []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	data, stat, err = s.Get("/dufs")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v1" || stat.Version != 1 {
		t.Fatalf("after set: data=%q stat=%+v", data, stat)
	}
	if err := s.Delete("/dufs", -1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("/dufs"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("get after delete err = %v, want ErrNoNode", err)
	}
}

func TestErrorCodesCrossTheWire(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)

	if _, err := s.Create("/a/b", nil, znode.ModePersistent); !errors.Is(err, ErrNoParent) {
		t.Fatalf("orphan create err = %v, want ErrNoParent", err)
	}
	if _, err := s.Create("/a", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/a", nil, znode.ModePersistent); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("dup create err = %v, want ErrNodeExists", err)
	}
	if _, err := s.Create("/a/b", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/a", -1); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("delete non-empty err = %v, want ErrNotEmpty", err)
	}
	if _, err := s.Set("/a", nil, 7); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale set err = %v, want ErrBadVersion", err)
	}
	if _, err := s.Create("bad-path", nil, znode.ModePersistent); !errors.Is(err, ErrBadPath) {
		t.Fatalf("bad path err = %v, want ErrBadPath", err)
	}
}

func TestSessionIDsAreUnique(t *testing.T) {
	e := startTestEnsemble(t, 3)
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := e.Connect(i)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			mu.Lock()
			defer mu.Unlock()
			if seen[s.ID()] {
				t.Errorf("duplicate session ID %d", s.ID())
			}
			seen[s.ID()] = true
		}(i)
	}
	wg.Wait()
}

func TestReadsServedByAnyReplica(t *testing.T) {
	e := startTestEnsemble(t, 3)
	writer := connect(t, e, 0)
	if _, err := writer.Create("/shared", []byte("x"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	// Every replica must eventually serve the read locally.
	for i := range e.Servers {
		reader := connect(t, e, i)
		deadline := time.Now().Add(3 * time.Second)
		for {
			data, _, err := reader.Get("/shared")
			if err == nil && string(data) == "x" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never served /shared: %v", i, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestChildrenAcrossSessions(t *testing.T) {
	e := startTestEnsemble(t, 3)
	a := connect(t, e, 0)
	b := connect(t, e, 1)
	if _, err := a.Create("/dir", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sess := a
		if i%2 == 1 {
			sess = b
		}
		if _, err := sess.Create(fmt.Sprintf("/dir/c%d", i), nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	// Writes are linearized, but a's replica may lag b's writes;
	// sync() before the cross-session read.
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	kids, err := a.Children("/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 5 {
		t.Fatalf("children = %v", kids)
	}
}

func TestEphemeralCleanupOnClose(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)
	if _, err := s.Create("/eph", []byte("tmp"), znode.ModeEphemeral); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	other := connect(t, e, -1)
	if _, ok, err := other.Exists("/eph"); err != nil || ok {
		t.Fatalf("ephemeral survived session close (ok=%v err=%v)", ok, err)
	}
}

func TestSequentialCreateForClientIDs(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)
	if _, err := s.Create("/clients", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	p1, err := s.Create("/clients/c-", nil, znode.ModeSequential)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Create("/clients/c-", nil, znode.ModeSequential)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatalf("sequential creates collided: %q", p1)
	}
}

func TestFig1ConsistencyScenario(t *testing.T) {
	// The paper's Figure 1: client 1 runs `mkdir d1`, client 2 runs
	// `mv d1 d2` concurrently. Without coordination, two metadata
	// servers can apply the operations in different orders and end up
	// inconsistent. With the coordination service, every replica
	// applies the same total order, so all replicas agree.
	//
	// A rename at the metadata layer is delete(old)+create(new) fused
	// into the client's sequence; the key property is replica
	// agreement, not which of the two outcomes happened.
	e := startTestEnsemble(t, 3)
	c1 := connect(t, e, 0)
	c2 := connect(t, e, 1)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = c1.Create("/d1", []byte("dir"), znode.ModePersistent)
	}()
	go func() {
		defer wg.Done()
		// mv d1 d2: read d1, create d2, delete d1. Any step may fail
		// if d1 does not exist yet — that is a legal POSIX outcome.
		data, _, err := c2.Get("/d1")
		if err != nil {
			return
		}
		if _, err := c2.Create("/d2", data, znode.ModePersistent); err != nil {
			return
		}
		_ = c2.Delete("/d1", -1)
	}()
	wg.Wait()

	// All replicas must converge to the same namespace.
	waitReplicasAgree(t, e)
	states := make([]string, len(e.Servers))
	for i, srv := range e.Servers {
		_, d1 := srv.Tree().Exists("/d1")
		_, d2 := srv.Tree().Exists("/d2")
		states[i] = fmt.Sprintf("d1=%v,d2=%v", d1, d2)
	}
	for i := 1; i < len(states); i++ {
		if states[i] != states[0] {
			t.Fatalf("replicas disagree: %v", states)
		}
	}
	// And the outcome must be one of the two serializable results:
	// only d1 (rename lost the race) or only d2 (rename won).
	if states[0] != "d1=true,d2=false" && states[0] != "d1=false,d2=true" {
		t.Fatalf("non-serializable outcome: %v", states[0])
	}
}

func waitReplicasAgree(t *testing.T, e *Ensemble) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		fp := e.Servers[0].Tree().Fingerprint()
		same := true
		for _, srv := range e.Servers[1:] {
			if srv.Tree().Fingerprint() != fp {
				same = false
				break
			}
		}
		if same {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("replicas never converged")
}

func TestQuorumFailover(t *testing.T) {
	// Paper §IV-I: the service needs a majority alive; it tolerates
	// minority failure (including the leader) without losing data.
	e := startTestEnsemble(t, 5)
	s := connect(t, e, -1)
	for i := 0; i < 10; i++ {
		if _, err := s.Create(fmt.Sprintf("/n%d", i), nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the leader and one follower (a minority of 5).
	leader := e.Leader()
	if leader == nil {
		t.Fatal("no leader")
	}
	leader.Stop()
	for _, srv := range e.Servers {
		if srv != leader && !srv.IsLeader() {
			srv.Stop()
			break
		}
	}
	if err := e.WaitLeader(15 * time.Second); err != nil {
		for _, srv := range e.Servers {
			t.Logf("server state: %s", srv.DebugString())
		}
		t.Fatal(err)
	}
	// A fresh session must see all ten nodes and accept new writes.
	s2 := connect(t, e, -1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, _ := s2.Exists("/n9"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("data lost after minority failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s2.Create("/after-failover", nil, znode.ModePersistent); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
}

// TestReadYourWritesAcrossFailover stops a session's home the moment its
// write is acknowledged — the leader, which may be the only member that
// knew the write committed, or a follower, which named the leader and
// may not have the write yet — and reads the node back through the same
// session. The server the session fails over to must have applied the
// write before it answers.
func TestReadYourWritesAcrossFailover(t *testing.T) {
	for round := 0; round < 8; round++ {
		e := startTestEnsemble(t, 3)
		if err := e.WaitLeader(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		at := 0
		for i, srv := range e.Servers {
			if srv.IsLeader() {
				at = i
			}
		}
		at = (at + round%2) % len(e.Servers) // odd rounds: a follower
		s := connect(t, e, at)
		path := fmt.Sprintf("/ryw%d", round)
		if _, err := s.Create(path, nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		e.Servers[at].Stop()
		if _, ok, err := s.Exists(path); err != nil || !ok {
			t.Fatalf("round %d: acknowledged create of %s not visible after failover (exists=%v, err=%v)", round, path, ok, err)
		}
	}
}

func TestFullRestartPreservesNamespace(t *testing.T) {
	// Paper §IV-I: "it can tolerate the failure of all servers by
	// restarting them later" — every member comes back from its data
	// directory.
	e, err := StartEnsemble(EnsembleConfig{
		Servers: 3, Net: transport.NewInProc(), AddrPrefix: "fullrestart",
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   30 * time.Millisecond,
		DataDir:           t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	s, err := e.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Create(fmt.Sprintf("/p%d", i), []byte("v"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	if err := e.Restart(); err != nil {
		t.Fatal(err)
	}
	s2, err := e.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The sync barrier orders the reads after the recovered tail has
	// re-committed under the new epoch.
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := s2.Exists(fmt.Sprintf("/p%d", i)); err != nil || !ok {
			t.Fatalf("node /p%d missing after full restart (err=%v)", i, err)
		}
	}
}

func TestConcurrentSessionsThroughput(t *testing.T) {
	// A smoke test of the paper's workload shape: many client
	// processes hammering the service concurrently.
	e := startTestEnsemble(t, 3)
	root := connect(t, e, -1)
	if _, err := root.Create("/load", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := e.Connect(c)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for i := 0; i < perClient; i++ {
				path := fmt.Sprintf("/load/c%d-%d", c, i)
				if _, err := s.Create(path, []byte("x"), znode.ModePersistent); err != nil {
					t.Errorf("create %s: %v", path, err)
					return
				}
				if _, _, err := s.Get(path); err != nil {
					t.Errorf("get %s: %v", path, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// The reader's replica may lag the other sessions' servers;
	// sync() is the cross-session freshness barrier.
	if err := root.Sync(); err != nil {
		t.Fatal(err)
	}
	kids, err := root.Children("/load")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != clients*perClient {
		t.Fatalf("children = %d, want %d", len(kids), clients*perClient)
	}
}

func TestSingleServerEnsemble(t *testing.T) {
	// The paper's "1 ZooKeeper server" configuration must work: a
	// quorum of one.
	e := startTestEnsemble(t, 1)
	s := connect(t, e, -1)
	if _, err := s.Create("/solo", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Exists("/solo"); err != nil || !ok {
		t.Fatalf("exists = %v, %v", ok, err)
	}
}

func TestStatus(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)
	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeaderID == 0 || st.Epoch == 0 {
		t.Fatalf("status = %+v", st)
	}
}

func TestTCPEnsembleEndToEnd(t *testing.T) {
	// The same service over real sockets, as cmd/coordd deploys it.
	if testing.Short() {
		t.Skip("short mode")
	}
	net := transport.TCP{}
	// Pre-pick free ports by listening and closing.
	addrs := make(map[uint64]string)
	clientAddrs := make(map[uint64]string)
	for id := uint64(1); id <= 3; id++ {
		addrs[id] = pickFreePort(t)
		clientAddrs[id] = pickFreePort(t)
	}
	var servers []*Server
	var cAddrs []string
	for id := uint64(1); id <= 3; id++ {
		srv, err := NewServer(ServerConfig{
			ID: id, PeerAddrs: addrs, ClientAddr: clientAddrs[id], Net: net,
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   60 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Stop()
		servers = append(servers, srv)
		cAddrs = append(cAddrs, clientAddrs[id])
	}
	e := &Ensemble{Servers: servers, ClientAddrs: cAddrs, net: net}
	if err := e.WaitLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s, err := e.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Create("/tcp", []byte("works"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.Get("/tcp")
	if err != nil || string(data) != "works" {
		t.Fatalf("get = %q, %v", data, err)
	}
}

func pickFreePort(t *testing.T) string {
	t.Helper()
	ln, err := transport.TCP{}.Listen("127.0.0.1:0", transport.HandlerFunc(func(b []byte) ([]byte, error) { return b, nil }))
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.(interface{ Addr() net.Addr }).Addr().String()
	ln.Close()
	return addr
}

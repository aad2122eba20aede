package coord

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// TestChaosAcknowledgedWritesSurvive hammers a 5-server ensemble with
// writers while a chaos goroutine repeatedly kills and resurrects a
// minority of servers (including leaders), each on the in-memory store
// it stopped with. Afterwards, every write the service ACKNOWLEDGED must
// exist — the durability contract of the atomic broadcast (paper §IV-I).
func TestChaosAcknowledgedWritesSurvive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const servers = 5
	net := transport.NewInProc()
	peers := make(map[uint64]string, servers)
	for i := 1; i <= servers; i++ {
		peers[uint64(i)] = fmt.Sprintf("chaos-p%d", i)
	}
	stores := make(map[uint64]*zab.MemStorage, servers)
	mk := func(id uint64) *Server {
		if stores[id] == nil {
			stores[id] = new(zab.MemStorage)
		}
		srv, err := newServer(ServerConfig{
			ID: id, PeerAddrs: peers,
			ClientAddr:        fmt.Sprintf("chaos-c%d", id),
			Net:               net,
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   30 * time.Millisecond,
			MaxLogEntries:     128,
		}, stores[id])
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	var mu sync.Mutex
	live := make(map[uint64]*Server, servers)
	var clientAddrs []string
	for i := 1; i <= servers; i++ {
		live[uint64(i)] = mk(uint64(i))
		clientAddrs = append(clientAddrs, fmt.Sprintf("chaos-c%d", i))
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range live {
			if s != nil {
				s.Stop()
			}
		}
	}()

	stopChaos := make(chan struct{})
	var chaosWg sync.WaitGroup
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		rng := rand.New(rand.NewSource(1))
		for round := 0; ; round++ {
			select {
			case <-stopChaos:
				return
			case <-time.After(40 * time.Millisecond):
			}
			// Kill one random server (a minority of 5 even with the
			// restart lag), wait, resurrect it on its store; whatever it
			// missed meanwhile it must sync.
			id := uint64(rng.Intn(servers) + 1)
			mu.Lock()
			victim := live[id]
			live[id] = nil
			mu.Unlock()
			if victim == nil {
				continue
			}
			victim.Stop()
			time.Sleep(30 * time.Millisecond)
			mu.Lock()
			live[id] = mk(id)
			mu.Unlock()
		}
	}()

	// Writers: each records the paths the service acknowledged.
	const writers = 4
	const perWriter = 40
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := Connect(net, clientAddrs)
			if err != nil {
				t.Errorf("writer %d connect: %v", w, err)
				return
			}
			defer sess.Close()
			for i := 0; i < perWriter; i++ {
				path := fmt.Sprintf("/chaos-w%d-%d", w, i)
				if _, err := sess.Create(path, []byte("x"), znode.ModePersistent); err == nil {
					acked[w] = append(acked[w], path)
				}
				// On error the write may or may not have committed —
				// both are legal; only ACKs carry a durability promise.
			}
		}(w)
	}
	wg.Wait()
	close(stopChaos)
	chaosWg.Wait()

	// Let the ensemble settle, then verify every acknowledged path.
	ens := &Ensemble{net: net, ClientAddrs: clientAddrs}
	mu.Lock()
	for _, s := range live {
		if s != nil {
			ens.Servers = append(ens.Servers, s)
		}
	}
	mu.Unlock()
	if err := ens.WaitLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	sess, err := Connect(net, clientAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	total := 0
	for w := range acked {
		for _, path := range acked[w] {
			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, ok, _ := sess.Exists(path); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("acknowledged write %s lost", path)
				}
				time.Sleep(5 * time.Millisecond)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("chaos was so severe nothing was acknowledged; test proves nothing")
	}
	t.Logf("verified %d acknowledged writes across %d writers under chaos", total, writers)
}

// TestChaosLeaderFailoverMidBatch aims chaos at the group-commit
// pipeline specifically: concurrent writers keep multi-txn frames in
// flight while the CURRENT LEADER is repeatedly killed, so frames die
// at every stage — queued, proposed-but-unacked, quorum-acked-but-
// uncommitted on followers. Afterwards the durability contract must
// hold exactly:
//
//   - every ACKED write (single create or atomic Multi) exists;
//   - no unacked Multi is half-applied: its ops either all committed
//     (a frame that survived the failover) or none did.
func TestChaosLeaderFailoverMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const servers = 5
	net := transport.NewInProc()
	peers := make(map[uint64]string, servers)
	for i := 1; i <= servers; i++ {
		peers[uint64(i)] = fmt.Sprintf("midbatch-p%d", i)
	}
	// mk reports failure with Errorf, not Fatal: it is also called from
	// the chaos goroutine, where FailNow would kill the wrong goroutine.
	dataDir := t.TempDir()
	mk := func(id uint64) *Server {
		srv, err := NewServer(ServerConfig{
			ID: id, PeerAddrs: peers,
			ClientAddr:        fmt.Sprintf("midbatch-c%d", id),
			Net:               net,
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   30 * time.Millisecond,
			MaxLogEntries:     128,
			DataDir:           filepath.Join(dataDir, fmt.Sprintf("node%d", id)),
		})
		if err != nil {
			t.Errorf("server %d: %v", id, err)
			return nil
		}
		return srv
	}
	var mu sync.Mutex
	live := make(map[uint64]*Server, servers)
	var clientAddrs []string
	for i := 1; i <= servers; i++ {
		srv := mk(uint64(i))
		if srv == nil {
			t.FailNow()
		}
		live[uint64(i)] = srv
		clientAddrs = append(clientAddrs, fmt.Sprintf("midbatch-c%d", i))
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range live {
			if s != nil {
				s.Stop()
			}
		}
	}()

	// Chaos: find whoever currently leads and kill exactly it, so the
	// in-flight frames of the group-commit pipeline are orphaned.
	stopChaos := make(chan struct{})
	var chaosWg sync.WaitGroup
	var failovers int
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		for {
			select {
			case <-stopChaos:
				return
			case <-time.After(60 * time.Millisecond):
			}
			mu.Lock()
			var victim *Server
			var victimID uint64
			for id, s := range live {
				if s != nil && s.IsLeader() {
					victim, victimID = s, id
					break
				}
			}
			if victim != nil {
				live[victimID] = nil
				failovers++
			}
			mu.Unlock()
			if victim == nil {
				continue
			}
			victim.Stop()
			// The victim rejoins from its data directory (§IV-I), as a
			// production deployment would. Rejoining EMPTY instead would
			// make it a zero-tip voter during the very election its death
			// triggers, able to hand the quorum to a lagging candidate
			// that never held an acked frame — a genuine state loss no
			// protocol survives without durability (see DESIGN.md §9.4).
			time.Sleep(40 * time.Millisecond)
			reborn := mk(victimID)
			if reborn == nil {
				return // mk already flagged the failure
			}
			mu.Lock()
			live[victimID] = reborn
			mu.Unlock()
		}
	}()

	// Writers alternate single creates with 2-op atomic Multis for a
	// fixed window that spans several leader kills. acked records
	// successes; pairs records every ATTEMPTED Multi for the
	// all-or-nothing check, acked or not.
	const writers = 6
	writeWindow := time.Now().Add(1200 * time.Millisecond)
	type pair struct {
		a, b  string
		acked bool
	}
	acked := make([][]string, writers)
	pairs := make([][]pair, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := Connect(net, clientAddrs)
			if err != nil {
				t.Errorf("writer %d connect: %v", w, err)
				return
			}
			defer sess.Close()
			for i := 0; time.Now().Before(writeWindow); i++ {
				if i%2 == 0 {
					path := fmt.Sprintf("/mb-w%d-%d", w, i)
					if _, err := sess.Create(path, []byte("x"), znode.ModePersistent); err == nil {
						acked[w] = append(acked[w], path)
					}
					continue
				}
				p := pair{
					a: fmt.Sprintf("/mb-w%d-%d-a", w, i),
					b: fmt.Sprintf("/mb-w%d-%d-b", w, i),
				}
				_, err := sess.Multi([]Op{
					CreateOp(p.a, []byte("x"), znode.ModePersistent),
					CreateOp(p.b, []byte("x"), znode.ModePersistent),
				})
				p.acked = err == nil
				pairs[w] = append(pairs[w], p)
			}
		}(w)
	}
	wg.Wait()
	close(stopChaos)
	chaosWg.Wait()

	ens := &Ensemble{net: net, ClientAddrs: clientAddrs}
	mu.Lock()
	for _, s := range live {
		if s != nil {
			ens.Servers = append(ens.Servers, s)
		}
	}
	kills := failovers
	mu.Unlock()
	if err := ens.WaitLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	sess, err := Connect(net, clientAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	exists := func(path string) bool {
		_, ok, err := sess.Exists(path)
		return err == nil && ok
	}
	waitExists := func(path string) bool {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if exists(path) {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	dumpReplicas := func(path string) {
		for _, s := range ens.Servers {
			_, ok := s.Tree().Exists(path)
			t.Logf("server %d: exists(%s)=%v %s", s.ID(), path, ok, s.DebugString())
		}
	}
	ackedTotal, pairTotal := 0, 0
	for w := 0; w < writers; w++ {
		for _, path := range acked[w] {
			if !waitExists(path) {
				dumpReplicas(path)
				t.Fatalf("acknowledged single write %s lost", path)
			}
			ackedTotal++
		}
		for _, p := range pairs[w] {
			pairTotal++
			if p.acked {
				if !waitExists(p.a) || !waitExists(p.b) {
					dumpReplicas(p.a)
					dumpReplicas(p.b)
					t.Fatalf("acknowledged multi %s/%s lost a member", p.a, p.b)
				}
				continue
			}
			// Unacked: the frame either wholly committed under a later
			// leader or wholly vanished — never half.
			a, b := exists(p.a), exists(p.b)
			if a != b {
				t.Fatalf("unacked multi half-applied: %s=%v %s=%v", p.a, a, p.b, b)
			}
		}
	}
	if ackedTotal == 0 || pairTotal == 0 {
		t.Fatalf("chaos too severe (acked=%d pairs=%d); test proves nothing", ackedTotal, pairTotal)
	}
	t.Logf("survived %d leader kills: %d acked singles, %d multi pairs all-or-nothing", kills, ackedTotal, pairTotal)
}

// TestFlakyTransportStillConverges wraps the network so a fraction of
// peer RPCs fail, and verifies the ensemble still commits writes and
// converges — the retry/sync machinery at work.
func TestFlakyTransportStillConverges(t *testing.T) {
	inner := transport.NewInProc()
	flaky := &flakyNet{Network: inner, failEvery: 7}
	ensembleSeq++
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           3,
		Net:               flaky,
		AddrPrefix:        fmt.Sprintf("flaky%d", ensembleSeq),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	s, err := e.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		// Under injected failures an individual request can exhaust its
		// retry budget during an election; the durability contract is
		// per-acknowledgement, so retry at the application level like
		// any ZooKeeper client would.
		deadline := time.Now().Add(30 * time.Second)
		for {
			_, err := s.Create(fmt.Sprintf("/flaky-%d", i), nil, znode.ModePersistent)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("create %d under flaky transport never succeeded: %v", i, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitReplicasAgree(t, e)
}

// flakyNet fails every Nth call on dialed connections. Client session
// traffic and listener registration pass through untouched; only Call
// is sabotaged, exercising the RPC retry paths.
type flakyNet struct {
	transport.Network
	mu        sync.Mutex
	count     int
	failEvery int
}

func (f *flakyNet) Dial(addr string) (transport.Conn, error) {
	c, err := f.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &flakyConn{Conn: c, net: f}, nil
}

type flakyConn struct {
	transport.Conn
	net *flakyNet
}

func (c *flakyConn) Call(req []byte) ([]byte, error) {
	c.net.mu.Lock()
	c.net.count++
	fail := c.net.count%c.net.failEvery == 0
	c.net.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("flaky: injected failure")
	}
	return c.Conn.Call(req)
}

package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/shard"
	"repro/internal/coord/znode"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/transport"
	"repro/internal/vfs"
)

func startObserverCluster(t *testing.T, observers, maxLogEntries int) *Cluster {
	t.Helper()
	seq++
	c, err := Start(Config{
		Name:               fmt.Sprintf("obs%d", seq),
		Net:                transport.NewFaults(transport.NewInProc()),
		CoordServers:       3,
		Backends:           1,
		Kind:               MemFS,
		ServersPerBackend:  1,
		CoordObservers:     observers,
		CoordMaxLogEntries: maxLogEntries,
		HeartbeatInterval:  5 * time.Millisecond,
		ElectionTimeout:    40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// waitObserverCaughtUp polls until observer (0, idx) has applied at
// least the leader's current commit horizon.
func waitObserverCaughtUp(t *testing.T, c *Cluster, idx int) {
	t.Helper()
	target := c.Ensemble.Leader().CommitZxid()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if obs := c.Observer(0, idx); obs != nil && obs.LastApplied() >= target {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	obs := c.Observer(0, idx)
	t.Fatalf("observer %d stuck at %x, leader committed %x", idx, obs.LastApplied(), target)
}

// TestObserverSyncBarrierReadYourWrites exercises ZooKeeper's
// sync-then-read recipe against a deliberately lagging observer: a
// write lands on the leader while the observer's peer address is
// blocked (the leader's log stream cannot reach it; its own outbound
// calls still land), and an observer-homed session's Sync — answered by
// the leader with its applied zxid — stamps the read that follows it, which the observer holds
// until its own replica reflects that write. So the read sees the data
// even though the replica was behind when Sync was called.
func TestObserverSyncBarrierReadYourWrites(t *testing.T) {
	c := startObserverCluster(t, 1, 0)
	fnet := c.net.(*transport.Faults)
	waitObserverCaughtUp(t, c, 0)

	leaderSess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leaderSess.Close()
	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()
	// The leader acknowledged the session's own creation; the observer has
	// applied it before it is cut off.
	waitObserverCaughtUp(t, c, 0)

	// Inject replication delay, then write behind the observer's back.
	fnet.Block(c.observerPeerAddr(0, 0))
	if _, err := leaderSess.Create("/barrier", []byte("v1"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	// The cut-off replica must not see the write yet.
	if _, ok, err := obsSess.Exists("/barrier"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("cut-off observer already sees the write; the block is not delaying replication")
	}

	// Heal the delay only after the barrier is already in flight.
	healed := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		fnet.Unblock(c.observerPeerAddr(0, 0))
		close(healed)
	}()
	start := time.Now()
	if err := obsSess.Sync(); err != nil {
		t.Fatalf("sync barrier from an observer-homed session: %v", err)
	}
	// Post-barrier, the same session's read on the same replica must
	// see the pre-barrier write: read-your-writes across tiers.
	data, _, err := obsSess.Get("/barrier")
	if err != nil {
		t.Fatalf("read after sync barrier: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("the read after the barrier returned after %v, before the replica could have caught up", elapsed)
	}
	if string(data) != "v1" {
		t.Fatalf("read after sync barrier = %q, want %q", data, "v1")
	}
	<-healed
}

// TestObserverHomedWritesReadYourWrites checks the stronger rule the
// observer tier gives sessions for free: a write from a session whose
// only address is an observer goes to the leader the observer names, and
// the very next read on the observer sees it with no explicit barrier —
// the read carries the write's zxid, and the observer answers once it has
// applied that much.
func TestObserverHomedWritesReadYourWrites(t *testing.T) {
	c := startObserverCluster(t, 1, 0)
	waitObserverCaughtUp(t, c, 0)
	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("/ryw-%02d", i)
		if _, err := obsSess.Create(path, []byte("x"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		if _, _, err := obsSess.Get(path); err != nil {
			t.Fatalf("write %s acked by the leader but not readable on the observer: %v", path, err)
		}
	}
	if got := c.Observer(0, 0).Metrics().Counter("writes").Value(); got != 0 {
		t.Errorf("the observer proposed %d writes", got)
	}
}

// TestObserverSnapshotRejoinAfterRestart kills an observer, keeps
// writing until the leader truncates its log past the observer's old
// tail position, then revives the observer: it must rebuild itself via
// a shipped snapshot (not frame replay), catch back up, and serve every
// acked write — with zero impact on the writes acked while it was down.
func TestObserverSnapshotRejoinAfterRestart(t *testing.T) {
	// MaxLogEntries 8 forces truncation once the margin is covered, so
	// the restarted replica's from=0 poll cannot be served by frames.
	c := startObserverCluster(t, 1, 8)
	waitObserverCaughtUp(t, c, 0)

	sess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const before, during = 40, 120
	for i := 0; i < before; i++ {
		if _, err := sess.Create(fmt.Sprintf("/pre-%03d", i), []byte("a"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}

	c.StopObserver(0, 0)
	// Every write during the outage must ack normally — the observer
	// tier is read-only capacity, never on the commit path.
	for i := 0; i < during; i++ {
		if _, err := sess.Create(fmt.Sprintf("/down-%03d", i), []byte("b"), znode.ModePersistent); err != nil {
			t.Fatalf("write %d failed while observer was down: %v", i, err)
		}
	}

	if err := c.StartObserver(0, 0); err != nil {
		t.Fatal(err)
	}
	waitObserverCaughtUp(t, c, 0)
	obs := c.Observer(0, 0)
	if got := obs.Metrics().Counter("zab.snapshot_installs").Value(); got < 1 {
		t.Fatalf("restarted observer caught up with %d snapshot installs, want >= 1 (log should have truncated past its tail)", got)
	}

	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()
	for i := 0; i < before; i++ {
		if _, _, err := obsSess.Get(fmt.Sprintf("/pre-%03d", i)); err != nil {
			t.Fatalf("pre-outage write /pre-%03d missing on rejoined observer: %v", i, err)
		}
	}
	for i := 0; i < during; i++ {
		if _, _, err := obsSess.Get(fmt.Sprintf("/down-%03d", i)); err != nil {
			t.Fatalf("outage-window write /down-%03d missing on rejoined observer: %v", i, err)
		}
	}
}

// TestLeaseReadWirePath checks the opLeaseRead protocol end to end: the
// quorum-funded leader answers, and an observer — which can never
// linearize — names the leader instead (coord's
// TestLeaseReadTakesTheWritePath pins the refusal on the server), so a
// session whose only address is one gets its lease read answered by the
// leader, with nothing proposed.
func TestLeaseReadWirePath(t *testing.T) {
	c := startObserverCluster(t, 1, 0)
	waitObserverCaughtUp(t, c, 0)

	leaderSess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leaderSess.Close()
	if _, err := leaderSess.Create("/leased", []byte("fast"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}

	leased := coord.Op{Kind: coord.OpGet, Path: "/leased", Lease: true}
	leader := c.Ensemble.Leader().Metrics()
	if res, err := leaderSess.Do(t.Context(), leased); err != nil || string(res.Data) != "fast" {
		t.Fatalf("lease read on leader = %q, %v", res.Data, err)
	}
	if got := leader.Counter("lease_reads").Value(); got != 1 {
		t.Fatalf("the leader counted %d lease reads, want 1", got)
	}

	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()
	obs := c.Observer(0, 0).Metrics()
	served, syncs := leader.Counter("lease_reads").Value(), leader.Counter("writes").Value()
	res, err := obsSess.Do(t.Context(), leased)
	if err != nil || string(res.Data) != "fast" {
		t.Fatalf("lease read through an observer-only session = %q, %v", res.Data, err)
	}
	if got := obs.Counter("lease_reads").Value(); got != 0 {
		t.Fatalf("the observer served %d reads under a lease it cannot hold", got)
	}
	if got := leader.Counter("lease_reads").Value() - served; got != 1 {
		t.Fatalf("the leader served %d lease reads of the observer-only session, want 1", got)
	}
	if got := leader.Counter("writes").Value() - syncs; got != 0 {
		t.Fatalf("%d transactions proposed for a lease read the leader could answer", got)
	}
}

// TestObserverStatusReportsLag checks both status surfaces: the
// observer reports itself as a non-voting replica with a replication
// tip, and the leader's status lists the observer with its lag.
func TestObserverStatusReportsLag(t *testing.T) {
	c := startObserverCluster(t, 2, 0)
	waitObserverCaughtUp(t, c, 0)
	waitObserverCaughtUp(t, c, 1)

	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()
	st, err := obsSess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsObserver {
		t.Fatal("observer status does not mark the replica as an observer")
	}
	if st.IsLeader {
		t.Fatal("observer status claims leadership")
	}
	if st.AppliedZxid == 0 {
		t.Fatal("observer status reports a zero replication tip after catch-up")
	}

	leaderSess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leaderSess.Close()
	// Both observers joined before they caught up; the retry only rides
	// out a leader change.
	deadline := time.Now().Add(2 * time.Second)
	for {
		lst, err := leaderSess.Status()
		if err != nil {
			t.Fatal(err)
		}
		if lst.IsObserver {
			t.Fatal("voter status marked as observer")
		}
		if len(lst.Observers) == 2 {
			seen := map[uint64]bool{}
			for _, o := range lst.Observers {
				seen[o.ID] = true
			}
			if !seen[101] || !seen[102] {
				t.Fatalf("leader observer list = %+v, want IDs 101 and 102", lst.Observers)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never listed both observers: %+v", lst.Observers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObserverServesWatches checks what running observers as plain
// servers bought: a session connected only to an observer registers
// data, exists and child watches there, and each fires on a write made
// through a voter once the observer's replica applies it.
func TestObserverServesWatches(t *testing.T) {
	c := startObserverCluster(t, 1, 0)
	waitObserverCaughtUp(t, c, 0)

	voterSess, err := c.Ensemble.Connect(c.LeaderIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	defer voterSess.Close()
	obsSess, err := coord.Connect(c.net, []string{c.ObserverAddr(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSess.Close()

	if _, err := obsSess.Create("/w", []byte("v0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := obsSess.GetW("/w"); err != nil {
		t.Fatalf("GetW on observer: %v", err)
	}
	if _, ok, err := obsSess.ExistsW("/w/absent"); err != nil || ok {
		t.Fatalf("ExistsW on observer = %v, %v", ok, err)
	}
	if _, err := obsSess.ChildrenW("/w"); err != nil {
		t.Fatalf("ChildrenW on observer: %v", err)
	}

	if _, err := voterSess.Set("/w", []byte("v1"), -1); err != nil {
		t.Fatal(err)
	}
	if _, err := voterSess.Create("/w/absent", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{"data /w": false, "data /w/absent": false, "children /w": false}
	deadline := time.Now().Add(5 * time.Second)
	for pending := len(want); pending > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("watches through the observer did not all fire: %v", want)
		}
		evs, err := obsSess.WaitEvents(t.Context(), 200*time.Millisecond)
		if err != nil {
			t.Fatalf("WaitEvents on observer: %v", err)
		}
		for _, ev := range evs {
			key := "data " + ev.Path
			if ev.Type == coord.EventChildrenChanged {
				key = "children " + ev.Path
			}
			if fired, ok := want[key]; ok && !fired {
				want[key] = true
				pending--
			}
		}
	}
}

// TestObserversBehindShardRouter places the per-shard sessions of a
// shard.Router observer-first: 2 shards with one observer each. Stats
// and readdirs through the router are answered by the observers; a
// Multi and a cross-shard rename still go through; and every write,
// from the first, is proposed by a leader — an observer or a follower
// only ever names it.
func TestObserversBehindShardRouter(t *testing.T) {
	seq++
	c, err := Start(Config{
		Name:              fmt.Sprintf("obsshard%d", seq),
		CoordServers:      3,
		CoordShards:       2,
		CoordObservers:    1,
		Backends:          1,
		Kind:              MemFS,
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	sess, err := c.ConnectCoord("observer", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	router, ok := sess.(*shard.Router)
	if !ok {
		t.Fatalf("sharded cluster handed out %T, want *shard.Router", sess)
	}
	fs, err := core.New(core.Config{Session: sess, Backends: []vfs.FileSystem{c.memfses[0]}})
	if err != nil {
		t.Fatal(err)
	}

	// sum adds one counter up over the members pick selects.
	sum := func(name string, pick func(srv *coord.Server, observer bool) bool) (n int64) {
		add := func(srv *coord.Server, observer bool) {
			if pick(srv, observer) {
				n += srv.Metrics().Counter(name).Value()
			}
		}
		for s, ens := range c.Ensembles {
			for _, srv := range ens.Servers {
				add(srv, false)
			}
			add(c.Observer(s, 0), true)
		}
		return n
	}
	observers := func(_ *coord.Server, observer bool) bool { return observer }
	voters := func(_ *coord.Server, observer bool) bool { return !observer }
	leaders := func(srv *coord.Server, _ bool) bool { return srv.IsLeader() }

	// Directories on both shards.
	var dirs [2]string
	for i := 0; dirs[0] == "" || dirs[1] == ""; i++ {
		dir := fmt.Sprintf("/d%d", i)
		if err := fs.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		dirs[router.ShardFor("/dufs"+dir+"/x")] = dir
	}

	obsReads, voterReads := sum("reads", observers), sum("reads", voters)
	proposed := sum("writes", leaders)
	const files = 8
	for _, dir := range dirs {
		for i := 0; i < files; i++ {
			if err := vfs.WriteFile(fs, fmt.Sprintf("%s/f%d", dir, i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	reads := int64(0)
	for _, dir := range dirs {
		for i := 0; i < files; i++ {
			if _, ok, err := sess.Exists(fmt.Sprintf("/dufs%s/f%d", dir, i)); err != nil || !ok {
				t.Fatalf("stat through the router: exists=%v, %v", ok, err)
			}
			reads++
		}
		if entries, err := sess.ChildrenData("/dufs" + dir); err != nil || len(entries) != files+1 {
			t.Fatalf("readdir through the router: %d entries, %v", len(entries), err)
		}
		reads++
	}
	if _, err := sess.Multi([]coord.Op{
		coord.CheckDataOp("/dufs"+dirs[0]+"/f0", -1, nil),
		coord.CreateOp("/dufs"+dirs[0]+"/multi", nil, znode.ModePersistent),
	}); err != nil {
		t.Fatalf("multi through the router: %v", err)
	}
	if err := fs.Rename(dirs[0]+"/f1", dirs[1]+"/moved"); err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}
	if _, err := fs.Stat(dirs[1] + "/moved"); err != nil {
		t.Fatalf("renamed file: %v", err)
	}
	if _, err := fs.Stat(dirs[0] + "/f1"); err == nil {
		t.Fatal("the source of the cross-shard rename is still there")
	}

	if got := sum("reads", observers) - obsReads; got < reads {
		t.Errorf("the observers answered %d reads, want at least the %d stats and readdirs", got, reads)
	}
	if got := sum("reads", voters) - voterReads; got != 0 {
		t.Errorf("voters answered %d reads of observer-homed sessions", got)
	}
	if got := c.StrayWrites(); got != 0 {
		t.Errorf("%d writes were proposed by an observer or a follower", got)
	}
	if got := sum("writes", leaders) - proposed; got < 2*files+2 {
		t.Errorf("the leaders proposed %d writes, want at least %d", got, 2*files+2)
	}

	// The router itself places no lease read; "leader" sets the flag on
	// the sessions beneath it, and each shard's leader answers under its
	// lease once it has funded one.
	if _, err := sess.Do(t.Context(), coord.Op{Kind: coord.OpExists, Path: "/dufs" + dirs[0], Lease: true}); err == nil {
		t.Error("the shard router accepted Op.Lease")
	}
	leased, err := c.ConnectCoord("leader", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leased.Close() })
	bothLeadersServed := func() bool {
		for _, ens := range c.Ensembles {
			if ens.Leader().Metrics().Counter("lease_reads").Value() == 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !bothLeadersServed(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("lease reads below the router: the leaders answered %d under their leases, want some on each shard", sum("lease_reads", leaders))
		}
		for _, dir := range dirs {
			if _, ok, err := leased.Exists("/dufs" + dir + "/f0"); err != nil || !ok {
				t.Fatalf("lease read below the router: exists=%v, %v", ok, err)
			}
		}
	}
}

// TestReadSplitFollowsPlacement runs the load generator against 3 voters
// and 2 observers and reads the split off the servers' own counters:
// observer-first sessions put most reads on observers and none under the
// leader's lease, "leader" sessions the reverse.
func TestReadSplitFollowsPlacement(t *testing.T) {
	c := startObserverCluster(t, 2, 0)
	waitObserverCaughtUp(t, c, 0)
	waitObserverCaughtUp(t, c, 1)
	load := loadgen.Config{Name: "split", Rate: 400, Arrival: loadgen.Uniform, Duration: 500 * time.Millisecond, Dirs: 2, Keys: 8, OpTimeout: 5 * time.Second, Seed: 1}
	prep, err := c.ConnectCoord("", -1)
	if err != nil {
		t.Fatal(err)
	}
	defer prep.Close()
	if err := loadgen.Prepare(t.Context(), prep, load); err != nil {
		t.Fatal(err)
	}
	for _, readFrom := range []string{"observer", "leader"} {
		load.Seed++ // names the run's creates
		var targets []loadgen.Target
		for i := 0; i < 2; i++ {
			s, err := c.ConnectCoord(readFrom, i)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			targets = append(targets, loadgen.NewClientTarget(s))
		}
		readSplit := c.ReadSplit()
		res, err := loadgen.Run(t.Context(), load, targets)
		if err != nil {
			t.Fatal(err)
		}
		split := readSplit()
		t.Logf("-read-from %s: %v (%d ok, %d err)", readFrom, split, res.Completed, res.Errors)
		total := split["leader"] + split["voter"] + split["observer"]
		most, none := "observer", "leader"
		if readFrom == "leader" {
			most, none = none, most
		}
		if res.Errors != 0 || total == 0 || split[most]*2 <= total || split[none] != 0 {
			t.Errorf("-read-from %s: %d errors, read split %v; want most reads on %q and none on %q", readFrom, res.Errors, split, most, none)
		}
	}
}

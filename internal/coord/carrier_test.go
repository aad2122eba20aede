package coord

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// A follower learns the commit horizon from the leader's next data
// window or heartbeat unless someone there is waiting for it (DESIGN
// §9.2): a stamped read parked on it, or an armed watch. These tests
// slow the heartbeat to a second, so a follower that nobody told would
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
// times. The read is stamped with the create's zxid. When the follower
// already acked that frame before the read parked, the leader heard of
// no waiter, so the read pulls the horizon itself; otherwise the ack
// says Waiting and the leader sends it. Either way every read returns
// in a small fraction of a heartbeat, and home refuses none.
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
// makes its acks say Waiting, so the leader pushes the commit of a write
// it watches at once and the event fires well inside one heartbeat.
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

// TestArmedWatchSparesTheReadPull: with a watch armed on a follower,
// every ack it sends says Waiting, so the leader pushes each commit
// advance there and a read after write that parks for a frame already
// acked is brought the horizon without asking. Such a read must not
// pull: on a follower a cached mount keeps watched, that would be one
// more leader request and fsync per read after write.
func TestArmedWatchSparesTheReadPull(t *testing.T) {
	net := &peerWindows{Network: transport.NewInProc()}
	e := startSlowBeatOver(t, net)
	_, follower := leaderAndFollower(t, e)
	s := connect(t, e, follower)
	if _, err := s.Create("/spare", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ExistsW("/spare/never"); err != nil {
		t.Fatal(err)
	}
	net.watchClients(e)
	var worst time.Duration
	for i := 0; i < 200; i++ {
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
	t.Logf("slowest read after write at the watched follower: %v; %d pulls", worst, net.pulled())
	if worst > slowBeat/10 {
		t.Errorf("a read after write took %v at the follower: it waited for the heartbeat", worst)
	}
	if n := net.pulled(); n != 0 {
		t.Errorf("reads after writes at a follower with a watch armed pulled the horizon %d times, want none", n)
	}
}

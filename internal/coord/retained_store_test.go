package coord

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// TestDoubleRestartKeepsAcknowledgedWrites restarts two of three
// in-memory voters in turn, each time while the rest of the ensemble holds
// writes the restarted one never saw, and then lets the two restarted
// members decide the next election between them. A member that came back
// empty is a zero-tip voter: two of them form a quorum that elects a
// leader holding none of the acknowledged writes, and the third member
// then syncs its namespace away. A member that comes back on the store it
// stopped with refuses that candidate, so every acknowledged write
// survives.
//
// The election is steered with transport.Faults alone: A (the first
// leader) restarts unable to hear anyone, so it neither catches up nor
// stops campaigning; B (the second leader) restarts while A, B and C are
// all unreachable; B is reopened at a moment when A's next campaign is due
// before C's, so B's vote is asked for by A first.
func TestDoubleRestartKeepsAcknowledgedWrites(t *testing.T) {
	const electionTimeout = 80 * time.Millisecond
	fnet := transport.NewFaults(transport.NewInProc())
	ensembleSeq++
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           3,
		Net:               fnet,
		AddrPrefix:        fmt.Sprintf("dblrestart%d", ensembleSeq),
		HeartbeatInterval: 10 * time.Millisecond,
		ElectionTimeout:   electionTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	sess, err := e.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var acked []string
	write := func(batch string) {
		for i := 0; i < 20; i++ {
			path := fmt.Sprintf("/%s-%d", batch, i)
			if _, err := sess.Create(path, nil, znode.ModePersistent); err != nil {
				t.Fatalf("create %s: %v", path, err)
			}
			acked = append(acked, path)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	leader := func() (idx int) {
		waitFor("a leader", func() bool {
			idx = -1
			for i, s := range e.Servers {
				if s != nil && s.IsLeader() {
					idx = i
				}
			}
			return idx >= 0
		})
		return idx
	}
	peer := func(i int) string { return e.cfgs[i].PeerAddrs[e.cfgs[i].ID] }
	epoch := func(i int) uint64 { return e.Servers[i].node.Epoch() }

	write("first")
	a := leader()
	e.StopServer(a)
	b := leader()
	write("second") // held by B and C only
	c := 3 - a - b

	fnet.Block(peer(a))
	if err := e.StartServer(a); err != nil {
		t.Fatal(err)
	}
	// A's campaigns are all refused, but each one raises its epoch: let it
	// get far enough ahead that B, once restarted, can still grant it.
	waitFor("A's epoch to pass B's", func() bool { return epoch(a) >= epoch(b)+3 })

	e.StopServer(b)
	fnet.Block(peer(b), peer(c))
	if err := e.StartServer(b); err != nil {
		t.Fatal(err)
	}
	restarted := time.Now()

	// Nobody can reach anybody, so an epoch that moves is its owner's own
	// campaign, and the next one follows within [1x, 2x) ElectionTimeout.
	// Reopen B just after C campaigned (C's next campaign is a full
	// timeout away; its vote requests of this one have met a blocked B)
	// when A has not campaigned for more than a timeout (so A's next is
	// due sooner) and B is old enough to grant a vote.
	ea, ec := epoch(a), epoch(c)
	lastA, prev := time.Now(), time.Now()
	var armed time.Time
	waitFor("a moment that favours A", func() bool {
		now := time.Now()
		defer func() { prev = now }()
		if x := epoch(a); x != ea {
			ea, lastA, armed = x, now, time.Time{}
			return false
		}
		if x := epoch(c); x != ec {
			ec = x
			if prev.Sub(lastA) > electionTimeout && prev.Sub(restarted) > electionTimeout {
				armed = now
			}
			return false
		}
		return !armed.IsZero() && now.Sub(armed) >= 5*time.Millisecond && ea > epoch(b)+1
	})
	fnet.Unblock(peer(b))
	waitFor("A's next campaign", func() bool { return epoch(a) != ea })
	fnet.Clear()

	if err := e.WaitLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	check, err := e.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	if err := check.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	var missing []string
	for _, path := range acked {
		if _, ok, err := check.Exists(path); err != nil || !ok {
			missing = append(missing, path)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("%d of %d acknowledged writes lost (first %s); members A=%d B=%d C=%d, leader now %d",
			len(missing), len(acked), missing[0], a, b, c, leader())
	}
}

// TestWrapStorageMustStream: the node runs on the stream snapshot forms
// only, so a WrapStorage that hides them is refused at start, not found
// out at the first snapshot.
func TestWrapStorageMustStream(t *testing.T) {
	type plain struct{ zab.Storage }
	_, err := NewServer(ServerConfig{
		ID:          1,
		PeerAddrs:   map[uint64]string{1: "wrapmuststream-peer-1"},
		ClientAddr:  "wrapmuststream-client-1",
		Net:         transport.NewInProc(),
		WrapStorage: func(s zab.Storage) zab.Storage { return plain{s} },
	})
	if err == nil {
		t.Fatal("NewServer accepted a store without the stream snapshot methods")
	}
}

package zab

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// TestSnapshotPullTakesNoApplyLock: a pull the log cannot answer ships
// the snapshot the store holds, so the leader serves it while applyMu is
// held — as a long apply drain or a snapshot cut holds it — instead of
// stalling every ack, heartbeat and read behind a tree walk.
func TestSnapshotPullTakesNoApplyLock(t *testing.T) {
	e := newEnsemble(t, 1)
	leader := e.waitLeader(t)
	proposeOK(t, leader, "x")

	leader.applyMu.Lock()
	type reply struct {
		resp syncResp
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := leader.handleSync(syncReq{FromZxid: makeZxid(99, 1)})
		done <- reply{resp, err}
	}()
	var r reply
	select {
	case r = <-done:
	case <-time.After(time.Second):
		t.Error("a snapshot pull waited for applyMu")
		leader.applyMu.Unlock()
		r = <-done
		leader.applyMu.Lock()
	}
	leader.applyMu.Unlock()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.resp.HasSnapshot || len(r.resp.Entries) == 0 || r.resp.Entries[len(r.resp.Entries)-1].Last() != leader.LastZxid() {
		t.Fatalf("pull = snapshot %v at %x with %d frames, want the stored snapshot and every frame past it", r.resp.HasSnapshot, r.resp.SnapZxid, len(r.resp.Entries))
	}
}

// TestDivergentFollowerCatchesUpFromGenesis: a member kept an
// uncommitted tail of epoch 1 that the new leader's log does not hold;
// the leader has applied nothing and its store holds only the genesis
// snapshot. The pull ships that snapshot at zxid 0 and the whole log past
// it, and both members end with the same history, without the tail.
func TestDivergentFollowerCatchesUpFromGenesis(t *testing.T) {
	barrier := func(z uint64) Frame { return Frame{Zxid: z, Noop: true} }
	txn := func(z uint64, s string) Frame { return Frame{Zxid: z, Txns: [][]byte{[]byte(s)}} }
	store := func(epoch uint64, frames ...Frame) *MemStorage {
		st := new(MemStorage)
		if err := st.SaveHardState(epoch, epoch); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(frames); err != nil {
			t.Fatal(err)
		}
		return st
	}
	e := &ensemble{
		nodes: make(map[uint64]*Node),
		sms:   make(map[uint64]*kvSM),
		net:   transport.NewInProc(),
		peers: map[uint64]string{1: "genesis-1", 2: "genesis-2"},
	}
	t.Cleanup(e.stopAll)
	// Member 1 holds the divergent tail; member 2 an epoch-2 barrier, so
	// only member 2 can win an election.
	e.startNode(t, 1, store(1, barrier(makeZxid(1, 1)), txn(makeZxid(1, 2), "base"), txn(makeZxid(1, 3), "tail")))
	e.startNode(t, 2, store(2, barrier(makeZxid(1, 1)), txn(makeZxid(1, 2), "base"), barrier(makeZxid(2, 1))))
	if leader := e.waitLeader(t); leader.ID() != 2 {
		t.Fatalf("member %d leads; only member 2 holds the newest log", leader.ID())
	}
	proposeOK(t, e.nodes[2], "after")
	waitConverged(t, e, 2, 1, 2)
	for id := uint64(1); id <= 2; id++ {
		if got, _ := e.sms[id].snapshotState(); !slices.Equal(got, []string{"base", "after"}) {
			t.Fatalf("member %d applied %q, want [base after]", id, got)
		}
	}
	if n := e.nodes[1].cSnapInstalls.Value(); n < 1 {
		t.Fatal("the divergent member caught up without installing a snapshot")
	}
}

// syncSpy records the sync replies a member receives.
type syncSpy struct {
	transport.Network
	mu      sync.Mutex
	replies []syncResp
}

func (s *syncSpy) Dial(addr string) (transport.Conn, error) {
	c, err := s.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &spyConn{Conn: c, spy: s}, nil
}

type spyConn struct {
	transport.Conn
	spy *syncSpy
}

func (c *spyConn) Call(req []byte) ([]byte, error) {
	resp, err := c.Conn.Call(req)
	if err == nil && len(req) > 0 && req[0] == msgSync {
		if m, derr := decodeSyncResp(resp); derr == nil {
			c.spy.mu.Lock()
			c.spy.replies = append(c.spy.replies, m)
			c.spy.mu.Unlock()
		}
	}
	return resp, err
}

// TestSyncReplyFramesWithinBudget: a member behind by more frame bytes
// than one sync reply carries catches up through several pulls, and no
// reply's frames exceed maxSyncBytes.
func TestSyncReplyFramesWithinBudget(t *testing.T) {
	e := &ensemble{
		nodes: make(map[uint64]*Node),
		sms:   make(map[uint64]*kvSM),
		net:   transport.NewInProc(),
		peers: map[uint64]string{1: "budget-1", 2: "budget-2", 3: "budget-3"},
	}
	t.Cleanup(e.stopAll)
	e.startNode(t, 1, new(MemStorage))
	e.startNode(t, 2, new(MemStorage))
	leader := e.waitLeader(t)
	const txns = 12
	payload := bytes.Repeat([]byte("p"), maxSyncBytes/8)
	for i := 0; i < txns; i++ {
		proposeOK(t, leader, fmt.Sprintf("%02d%s", i, payload))
	}

	// Member 3 is built but not started: the test pulls on its behalf,
	// one pull at a time, until it holds the leader's log.
	spy := &syncSpy{Network: e.net}
	sm := &kvSM{}
	victim, err := NewNode(Config{ID: 3, Peers: e.peers, Net: spy, HeartbeatInterval: 5 * time.Millisecond, ElectionTimeout: 30 * time.Millisecond}, sm)
	if err != nil {
		t.Fatal(err)
	}
	for victim.LastZxid() < leader.LastZxid() {
		if len(spy.replies) > txns {
			t.Fatalf("%d pulls and member 3 is at %x of %x", len(spy.replies), victim.LastZxid(), leader.LastZxid())
		}
		victim.syncFromLeader(leader.ID(), victim.LastZxid())
	}
	if len(spy.replies) < 2 {
		t.Fatalf("caught up in %d pull(s); %d txns of %d bytes exceed one reply's budget", len(spy.replies), txns, len(payload))
	}
	for i, r := range spy.replies {
		size := 0
		for _, f := range r.Entries {
			var w wire.Writer
			encodeEntry(&w, f)
			size += w.Len()
		}
		if len(r.Entries) == 0 || size > maxSyncBytes {
			t.Fatalf("pull %d carried %d frames in %d bytes, want at least one within %d", i, len(r.Entries), size, maxSyncBytes)
		}
	}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	e.nodes[3], e.sms[3] = victim, sm
	waitConverged(t, e, txns, 1, 2, 3)
}

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

// TestHorizonPullTakesNoApplyLock is the follower's side of
// TestSnapshotPullTakesNoApplyLock: a pull that ships no snapshot only
// appends frames and moves the commit horizon, so it completes while
// applyMu is held — as an apply drain holds it — and a reader's pull
// never waits behind the state machine.
func TestHorizonPullTakesNoApplyLock(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	proposeOK(t, leader, "x")
	var f *Node
	for _, n := range e.nodes {
		if n != leader {
			f = n
			break
		}
	}
	commit := leader.CommitZxid()

	f.applyMu.Lock()
	done := make(chan struct{})
	go func() {
		f.syncFromLeader(leader.ID(), f.LastZxid())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("a pull that ships no snapshot waited for applyMu")
		f.applyMu.Unlock()
		<-done
		f.applyMu.Lock()
	}
	f.applyMu.Unlock()
	if got := f.CommitZxid(); got < commit {
		t.Fatalf("follower's commit horizon %x after the pull, want at least the leader's %x", got, commit)
	}
}

// pullRaceNet decorates a test ensemble's peer links: it fails every
// call of the kinds in deafTo to the member at deaf, so that member
// hears of the leader only through what is left and its own pulls;
// delays each window to the member at slow by slowBy, so a frame the
// leader appends commits that much later; and delivers the reply of the
// next pull holdPull late.
type pullRaceNet struct {
	transport.Network
	mu       sync.Mutex
	deaf     string
	deafTo   []uint8
	slow     string
	slowBy   time.Duration
	holdPull time.Duration
}

func (p *pullRaceNet) Dial(addr string) (transport.Conn, error) {
	c, err := p.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &pullRaceConn{Conn: c, p: p, addr: addr}, nil
}

type pullRaceConn struct {
	transport.Conn
	p    *pullRaceNet
	addr string
}

func (c *pullRaceConn) Call(req []byte) ([]byte, error) {
	c.p.mu.Lock()
	deaf := c.addr == c.p.deaf && slices.Contains(c.p.deafTo, req[0])
	var before, after time.Duration
	if c.addr == c.p.slow && req[0] == msgPropose {
		before = c.p.slowBy
	}
	if req[0] == msgSync {
		after, c.p.holdPull = c.p.holdPull, 0
	}
	c.p.mu.Unlock()
	if deaf {
		return nil, fmt.Errorf("pull race: %s hears no message of kind %d", c.addr, req[0])
	}
	time.Sleep(before)
	resp, err := c.Conn.Call(req)
	time.Sleep(after)
	return resp, err
}

// startPullRace boots a three-member ensemble behind a pullRaceNet,
// commits a first frame everywhere, and returns the leader and the two
// followers. The heartbeat is never what a test waits for: each makes
// one follower deaf to it, and finishes well inside the election
// timeout that deafness starts.
func startPullRace(t *testing.T, name string) (net *pullRaceNet, leader, f, g *Node) {
	t.Helper()
	const beat = 500 * time.Millisecond
	net = &pullRaceNet{Network: transport.NewInProc()}
	e := startTappedBeat(t, name, net, beat, 4*beat)
	leader = e.waitLeader(t)
	for _, n := range e.nodes {
		switch {
		case n == leader:
		case f == nil:
			f = n
		default:
			g = n
		}
	}
	proposeOK(t, leader, "warm-up")
	waitConverged(t, e, 1, 1, 2, 3)
	return net, leader, f, g
}

// TestPulledFrameAnnouncesItsReader: a reader parks on a follower for a
// zxid past what it has verified, counting on the ack of the window
// that will cover it. Here a catch-up pull covers it instead, and the
// pull's reply left the leader before the frame committed, so no ack
// and no horizon reach the reader. The pull that raised verified past
// it must pull again rather than leave the reader to the next heartbeat
// — which this follower never gets.
func TestPulledFrameAnnouncesItsReader(t *testing.T) {
	net, leader, f, g := startPullRace(t, "pullrace")
	net.mu.Lock()
	net.deaf, net.deafTo = f.cfg.Peers[f.ID()], []uint8{msgPropose, msgHeartbeat}
	net.slow, net.slowBy = g.cfg.Peers[g.ID()], 100*time.Millisecond
	net.mu.Unlock()

	before := leader.LastZxid()
	go leader.Propose([]byte("z"))
	for leader.LastZxid() == before {
		time.Sleep(time.Millisecond)
	}
	z := leader.LastZxid()
	net.mu.Lock()
	net.holdPull = 300 * time.Millisecond
	net.mu.Unlock()
	f.mu.Lock()
	f.triggerSyncLocked()
	f.mu.Unlock()
	for leader.CommitZxid() < z {
		time.Sleep(time.Millisecond)
	}
	f.mu.Lock()
	verified := f.verified
	f.mu.Unlock()
	if verified >= z {
		t.Fatalf("the follower verified %x before the reader parked: the pull's reply was not held", verified)
	}
	start := time.Now()
	err := f.WaitApplied(z, time.Second)
	t.Logf("reader parked for %x woke after %v: %v", z, time.Since(start), err)
	if err != nil {
		t.Errorf("a reader parked past verified, covered by a pull, was left to the heartbeat: %v", err)
	}
}

// TestArmedWaiterPullsTheHorizon: a follower acks a frame while nobody
// waits there, so the leader sends it no carrier when the frame
// commits. A watch armed afterwards (WaiterArrived) must fetch the
// horizon itself instead of waiting for the next heartbeat — which this
// follower never gets.
func TestArmedWaiterPullsTheHorizon(t *testing.T) {
	net, leader, f, _ := startPullRace(t, "armrace")
	net.mu.Lock()
	net.deaf, net.deafTo = f.cfg.Peers[f.ID()], []uint8{msgHeartbeat}
	net.mu.Unlock()

	var z uint64
	for i := 0; ; i++ {
		if i == 20 {
			t.Fatal("every frame reached the follower already committed")
		}
		proposeOK(t, leader, fmt.Sprintf("z%d", i))
		z = leader.CommitZxid()
		for {
			f.mu.Lock()
			verified := f.verified
			f.mu.Unlock()
			if verified >= z {
				break
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // a carrier sent anyway would land
		if f.CommitZxid() < z {
			break
		}
	}
	start := time.Now()
	f.WaiterArrived()
	for f.CommitZxid() < z {
		if time.Since(start) > time.Second {
			t.Fatalf("the follower holds %x verified and a waiter, and never learned it committed", z)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("the follower learned %x committed %v after the waiter arrived", z, time.Since(start))
}

// verifiedBeforeCommit sets a startPullRace ensemble up so that a
// follower holds a frame verified while the leader's commit of it is
// still held back: f hears no window and no heartbeat and fetches the
// frame z with a catch-up pull, and the leader commits z only once g's
// window, delayed by 100 ms, comes home. It returns once f has verified
// z, which the leader has not committed yet.
func verifiedBeforeCommit(t *testing.T, name string) (leader, f *Node, z uint64) {
	t.Helper()
	net, leader, f, g := startPullRace(t, name)
	net.mu.Lock()
	net.deaf, net.deafTo = f.cfg.Peers[f.ID()], []uint8{msgPropose, msgHeartbeat}
	net.slow, net.slowBy = g.cfg.Peers[g.ID()], 100*time.Millisecond
	net.mu.Unlock()

	before := leader.LastZxid()
	go leader.Propose([]byte("z"))
	for leader.LastZxid() == before {
		time.Sleep(time.Millisecond)
	}
	z = leader.LastZxid()
	f.mu.Lock()
	f.triggerSyncLocked()
	f.mu.Unlock()
	for {
		f.mu.Lock()
		verified := f.verified
		f.mu.Unlock()
		if verified >= z {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if leader.CommitZxid() >= z {
		t.Fatalf("the leader committed %x before the follower verified it: the slow peer held nothing back", z)
	}
	return leader, f, z
}

// TestReaderParkedBeforeTheCommitAsks: a reader parks on a follower for
// a frame the follower holds verified while the leader has not committed
// it yet — as one does right after a failover, before the new leader's
// barrier commits. Whatever it fetches then predates the commit; its
// request must wait at the leader for it, so the reader wakes with the
// commit and not with the next heartbeat, which this follower never
// gets.
func TestReaderParkedBeforeTheCommitAsks(t *testing.T) {
	_, f, z := verifiedBeforeCommit(t, "parkrace")
	start := time.Now()
	err := f.WaitApplied(z, time.Second)
	took := time.Since(start)
	t.Logf("reader parked for %x before its commit woke after %v: %v", z, took, err)
	if err != nil || took > 250*time.Millisecond {
		t.Errorf("a reader parked for a verified frame before its commit waited %v (%v), want under 250ms", took, err)
	}
}

// TestWatchArmedBeforeTheCommitAsks is TestReaderParkedBeforeTheCommitAsks
// for the first watch armed on the follower (WaiterArrived): it waits
// for every frame the follower has verified, and the follower must
// learn of their commit when it happens.
func TestWatchArmedBeforeTheCommitAsks(t *testing.T) {
	_, f, z := verifiedBeforeCommit(t, "armbefore")
	start := time.Now()
	f.WaiterArrived()
	for f.CommitZxid() < z {
		if time.Since(start) > time.Second {
			t.Fatalf("a watch armed over %x, verified and not yet committed, never learned of its commit", z)
		}
		time.Sleep(time.Millisecond)
	}
	took := time.Since(start)
	t.Logf("the follower learned %x committed %v after the watch was armed", z, took)
	if took > 250*time.Millisecond {
		t.Errorf("a watch armed before the commit of %x learned of it after %v, want under 250ms", z, took)
	}
}

package zab

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// kvSM is a deterministic append-log state machine for tests: every
// applied txn is recorded, and the result echoes the txn with its zxid.
type kvSM struct {
	mu      sync.Mutex
	applied []string
	zxids   []uint64
}

func (s *kvSM) Apply(txn []byte, zxid uint64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = append(s.applied, string(txn))
	s.zxids = append(s.zxids, zxid)
	out := make([]byte, 8+len(txn))
	binary.BigEndian.PutUint64(out, zxid)
	copy(out[8:], txn)
	return out
}

func (s *kvSM) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.applied)))
	for i, a := range s.applied {
		buf = binary.BigEndian.AppendUint64(buf, s.zxids[i])
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

func (s *kvSM) Restore(snap []byte, snapZxid uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = nil
	s.zxids = nil
	if len(snap) < 4 {
		return nil
	}
	n := binary.BigEndian.Uint32(snap)
	off := 4
	for i := uint32(0); i < n; i++ {
		z := binary.BigEndian.Uint64(snap[off:])
		s.zxids = append(s.zxids, z)
		off += 8
		l := binary.BigEndian.Uint32(snap[off:])
		off += 4
		s.applied = append(s.applied, string(snap[off:off+int(l)]))
		off += int(l)
	}
	return nil
}

func (s *kvSM) snapshotState() ([]string, []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.applied...), append([]uint64(nil), s.zxids...)
}

type ensemble struct {
	nodes  map[uint64]*Node
	sms    map[uint64]*kvSM
	stores map[uint64]*MemStorage // each member's store, kept across stops
	net    *transport.InProc
	peers  map[uint64]string
}

func newEnsemble(t *testing.T, n int) *ensemble {
	t.Helper()
	e := &ensemble{
		nodes: make(map[uint64]*Node),
		sms:   make(map[uint64]*kvSM),
		net:   transport.NewInProc(),
		peers: make(map[uint64]string),
	}
	for i := 1; i <= n; i++ {
		e.peers[uint64(i)] = fmt.Sprintf("zab-%d", i)
	}
	for i := 1; i <= n; i++ {
		e.startNode(t, uint64(i), new(MemStorage))
	}
	t.Cleanup(e.stopAll)
	return e
}

// startNode boots member id on st: a fresh store is a member that lost
// its disk, the member's previous store is a restart with it intact.
func (e *ensemble) startNode(t *testing.T, id uint64, st *MemStorage) {
	t.Helper()
	sm := &kvSM{}
	if e.stores == nil {
		e.stores = make(map[uint64]*MemStorage)
	}
	e.stores[id] = st
	node, err := NewNode(Config{
		ID:                id,
		Peers:             e.peers,
		Net:               e.net,
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   30 * time.Millisecond,
		MaxLogEntries:     128,
		Storage:           st,
	}, sm)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	e.nodes[id] = node
	e.sms[id] = sm
}

func (e *ensemble) stopAll() {
	for _, n := range e.nodes {
		n.Stop()
	}
}

// waitLeader blocks until exactly one live node claims leadership and a
// majority agrees on it.
func (e *ensemble) waitLeader(t *testing.T) *Node {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var leader *Node
		leaders := 0
		for _, n := range e.nodes {
			if n.IsLeader() {
				leaders++
				leader = n
			}
		}
		if leaders == 1 {
			agree := 0
			for _, n := range e.nodes {
				if n.LeaderID() == leader.ID() {
					agree++
				}
			}
			if agree >= len(e.peers)/2+1 {
				return leader
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no stable leader elected within deadline")
	return nil
}

func proposeOK(t *testing.T, n *Node, txn string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := n.Propose([]byte(txn))
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Propose(%q) never succeeded: %v", txn, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// proposeOnLeader is proposeOK through whichever member leads, for the
// moments after a failover or a heal when another election may follow
// the first: only the leader accepts a proposal.
func (e *ensemble) proposeOnLeader(t *testing.T, txn string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := e.waitLeader(t).Propose([]byte(txn))
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Propose(%q) never succeeded: %v", txn, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitConverged(t *testing.T, e *ensemble, want int, ids ...uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, id := range ids {
			applied, _ := e.sms[id].snapshotState()
			if len(applied) != want {
				done = false
				break
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids {
		applied, _ := e.sms[id].snapshotState()
		t.Logf("node %d applied %d entries", id, len(applied))
	}
	t.Fatalf("replicas did not converge to %d applied entries", want)
}

func TestElectsSingleLeader(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	if leader.Epoch() == 0 {
		t.Fatal("leader epoch is 0")
	}
}

func TestProposeReplicatesInOrder(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	const ops = 50
	for i := 0; i < ops; i++ {
		proposeOK(t, leader, fmt.Sprintf("op-%03d", i))
	}
	waitConverged(t, e, ops, 1, 2, 3)
	want, _ := e.sms[leader.ID()].snapshotState()
	for id, sm := range e.sms {
		got, zxids := sm.snapshotState()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d applied[%d] = %q, want %q", id, i, got[i], want[i])
			}
		}
		for i := 1; i < len(zxids); i++ {
			if zxids[i] <= zxids[i-1] {
				t.Fatalf("node %d zxids not strictly increasing: %d then %d", id, zxids[i-1], zxids[i])
			}
		}
	}
}

// TestNonLeaderRefusesProposals: only the leader orders a transaction. A
// follower's and an observer's Propose fail with ErrNoLeader and enqueue
// nothing; what each offers instead is the leader's contact, heard on its
// heartbeat within one interval, and dropped once a new epoch begins.
func TestNonLeaderRefusesProposals(t *testing.T) {
	const timeout = 100 * time.Millisecond
	o := startObserved(t, "refuse", 3, 1, timeout, 0)
	leader := o.waitLeader(t)
	elected := time.Now()
	for id, n := range o.nodes {
		if n == leader {
			continue
		}
		for n.LeaderContact() != o.contact(leader.ID()) {
			if time.Since(elected) > timeout {
				t.Fatalf("member %d names %q as the leader's contact, want %q", id, n.LeaderContact(), o.contact(leader.ID()))
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := n.Propose([]byte("refused")); err != ErrNoLeader {
			t.Fatalf("member %d: Propose returned %v, want ErrNoLeader", id, err)
		}
		n.mu.Lock()
		queued := len(n.propQ) + len(n.waiters)
		n.mu.Unlock()
		if queued != 0 {
			t.Fatalf("member %d enqueued %d transactions it does not lead", id, queued)
		}
	}
	t.Logf("the followers and the observer named the leader %v after it was seen elected", time.Since(elected))
	if got := leader.LeaderContact(); got != o.contact(leader.ID()) {
		t.Fatalf("the leader names %q, want its own contact", got)
	}
	proposeOK(t, leader, "ordered")
	waitIdentical(t, o, "ordered", 1, 2, 3, 101)
	for id := range o.nodes {
		if applied, _ := o.sms[id].snapshotState(); slices.Contains(applied, "refused") {
			t.Fatalf("member %d applied a transaction a non-leader refused", id)
		}
	}

	old, epoch := o.contact(leader.ID()), leader.Epoch()
	o.stop(leader.ID())
	next := o.waitLeader(t)
	for id, n := range o.nodes {
		for deadline := time.Now().Add(5 * time.Second); n.LeaderContact() != o.contact(next.ID()); time.Sleep(time.Millisecond) {
			if n.Epoch() > epoch && n.LeaderContact() == old {
				t.Fatalf("member %d still names the epoch-%d leader in epoch %d", id, epoch, n.Epoch())
			}
			if time.Now().After(deadline) {
				t.Fatalf("member %d names %q, want the new leader's %q", id, n.LeaderContact(), o.contact(next.ID()))
			}
		}
	}
}

func TestConcurrentProposalsTotalOrder(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	const workers = 8
	const perWorker = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				proposeOK(t, leader, fmt.Sprintf("w%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	waitConverged(t, e, workers*perWorker, 1, 2, 3)
	base, _ := e.sms[1].snapshotState()
	for id := uint64(2); id <= 3; id++ {
		got, _ := e.sms[id].snapshotState()
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("node %d order diverges at %d: %q vs %q", id, i, got[i], base[i])
			}
		}
	}
}

func TestMinorityFailureStillCommits(t *testing.T) {
	e := newEnsemble(t, 5)
	leader := e.waitLeader(t)
	// Stop two non-leader nodes (a minority of 5).
	stopped := 0
	var live []uint64
	for id, n := range e.nodes {
		if id != leader.ID() && stopped < 2 {
			n.Stop()
			stopped++
			continue
		}
		live = append(live, id)
	}
	for i := 0; i < 10; i++ {
		proposeOK(t, leader, fmt.Sprintf("after-failure-%d", i))
	}
	waitConverged(t, e, 10, live...)
}

func TestLeaderFailureElectsNewLeaderAndPreservesLog(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	for i := 0; i < 5; i++ {
		proposeOK(t, leader, fmt.Sprintf("pre-%d", i))
	}
	waitConverged(t, e, 5, 1, 2, 3)
	oldID := leader.ID()
	leader.Stop()
	delete(e.nodes, oldID)

	newLeader := e.waitLeader(t)
	if newLeader.ID() == oldID {
		t.Fatal("stopped node still leads")
	}
	for i := 0; i < 5; i++ {
		e.proposeOnLeader(t, fmt.Sprintf("post-%d", i))
	}
	var live []uint64
	for id := range e.nodes {
		live = append(live, id)
	}
	waitConverged(t, e, 10, live...)
	applied, _ := e.sms[newLeader.ID()].snapshotState()
	for i := 0; i < 5; i++ {
		if applied[i] != fmt.Sprintf("pre-%d", i) {
			t.Fatalf("pre-failure entry %d lost: %v", i, applied[:5])
		}
	}
}

func TestNoQuorumBlocksWrites(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	for id, n := range e.nodes {
		if id != leader.ID() {
			n.Stop()
		}
	}
	_, err := leader.Propose([]byte("doomed"))
	if err == nil {
		t.Fatal("Propose succeeded without a quorum")
	}
}

func TestLaggingFollowerCatchesUpViaSync(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	// Stop one follower, write enough to force log truncation
	// (MaxLogEntries=128), then restart it and expect a snapshot sync.
	var victim uint64
	for id, n := range e.nodes {
		if id != leader.ID() {
			victim = id
			n.Stop()
			break
		}
	}
	const ops = 400
	for i := 0; i < ops; i++ {
		proposeOK(t, leader, fmt.Sprintf("op-%d", i))
	}
	delete(e.nodes, victim)
	e.startNode(t, victim, new(MemStorage))
	waitConverged(t, e, ops, victim)
	got, _ := e.sms[victim].snapshotState()
	if got[0] != "op-0" || got[ops-1] != fmt.Sprintf("op-%d", ops-1) {
		t.Fatalf("restarted follower state bad: first=%q last=%q", got[0], got[ops-1])
	}
}

// TestFullRestartOnRetainedMemStorage stops every member of an
// in-memory ensemble and restarts each on the MemStorage it left
// behind — a whole-ensemble restart with the disks intact (paper
// §IV-I). Every acknowledged write must be applied again on every
// member, recovered from the stores alone: nothing else survives.
func TestFullRestartOnRetainedMemStorage(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	// Enough writes to push the log past MaxLogEntries, so recovery is a
	// snapshot plus a tail, not a bare log replay.
	const ops = 300
	for i := 0; i < ops; i++ {
		proposeOK(t, leader, fmt.Sprintf("durable-%d", i))
	}
	waitConverged(t, e, ops, 1, 2, 3)
	e.stopAll()
	rc, z, ok := e.stores[leader.ID()].SnapshotStream()
	if !ok || z == 0 {
		t.Fatalf("no snapshot was saved in %d writes; the restart would exercise log replay only", ops)
	}
	rc.Close()

	for id := uint64(1); id <= 3; id++ {
		e.startNode(t, id, e.stores[id])
	}
	e.proposeOnLeader(t, "after-restart")
	waitConverged(t, e, ops+1, 1, 2, 3)
	for id, sm := range e.sms {
		applied, _ := sm.snapshotState()
		for i := 0; i < ops; i++ {
			if applied[i] != fmt.Sprintf("durable-%d", i) {
				t.Fatalf("node %d lost acked write %d across the restart: got %q", id, i, applied[i])
			}
		}
	}
}

func TestProposeOnStoppedNode(t *testing.T) {
	e := newEnsemble(t, 3)
	leader := e.waitLeader(t)
	leader.Stop()
	if _, err := leader.Propose([]byte("x")); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{}, &kvSM{}); err == nil {
		t.Fatal("NewNode without Net succeeded")
	}
	if _, err := NewNode(Config{Net: transport.NewInProc(), ID: 9, Peers: map[uint64]string{1: "a"}}, &kvSM{}); err == nil {
		t.Fatal("NewNode with ID outside peers succeeded")
	}
}

// TestGroupCommitCoalescesAndReturnsPerTxnResults drives a 3-node
// ensemble behind injected latency with many concurrent proposers.
// Under that load the proposer MUST coalesce transactions into
// multi-txn frames (queue builds up behind the quorum round trip), and
// every caller must get back ITS OWN transaction's result, not a
// neighbour's from the same frame.
func TestGroupCommitCoalescesAndReturnsPerTxnResults(t *testing.T) {
	net := &transport.Latency{
		Inner: transport.NewInProc(),
		Delay: func() time.Duration { return 300 * time.Microsecond },
	}
	peers := map[uint64]string{1: "gc-1", 2: "gc-2", 3: "gc-3"}
	nodes := make(map[uint64]*Node)
	sms := make(map[uint64]*kvSM)
	regs := make(map[uint64]*metrics.Registry)
	for id := range peers {
		sm := &kvSM{}
		reg := metrics.NewRegistry()
		n, err := NewNode(Config{
			ID:                id,
			Peers:             peers,
			Net:               net,
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   40 * time.Millisecond,
			Metrics:           reg,
		}, sm)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[id], sms[id], regs[id] = n, sm, reg
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	var leader *Node
	deadline := time.Now().Add(5 * time.Second)
	for leader == nil {
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		time.Sleep(2 * time.Millisecond)
	}

	const workers = 24
	const perWorker = 12
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				txn := fmt.Sprintf("w%d-%d", w, i)
				res, err := leader.Propose([]byte(txn))
				if err != nil {
					errCh <- fmt.Errorf("propose %s: %w", txn, err)
					return
				}
				// kvSM echoes zxid || txn: the result must be OURS.
				if len(res) < 8 || !bytes.Equal(res[8:], []byte(txn)) {
					errCh <- fmt.Errorf("propose %s got someone else's result %q", txn, res[8:])
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	waitConverged(t, &ensemble{nodes: nodes, sms: sms, peers: peers}, workers*perWorker, 1, 2, 3)
	d := regs[leader.ID()].Distribution("zab.proposer.batch_txns")
	if d.Count() == 0 {
		t.Fatal("proposer batch distribution never observed a frame")
	}
	if d.Max() < 2 {
		t.Fatalf("no multi-txn frame formed under %d concurrent writers (max batch = %d)", workers, d.Max())
	}
	t.Logf("frames=%d batch mean=%.1f max=%d queue gauge=%d",
		d.Count(), d.Mean(), d.Max(), regs[leader.ID()].Gauge("zab.proposer.queue_depth").Value())
}

// TestSerializedModeStillCorrect pins the ablation baseline: with
// MaxBatchTxns=1 and MaxInflightFrames=1 the pipeline degrades to the
// one-frame-per-quorum-round-trip lockstep and everything still
// replicates in order.
func TestSerializedModeStillCorrect(t *testing.T) {
	e := &ensemble{
		nodes: make(map[uint64]*Node),
		sms:   make(map[uint64]*kvSM),
		net:   transport.NewInProc(),
		peers: map[uint64]string{1: "ser-1", 2: "ser-2", 3: "ser-3"},
	}
	for id := range e.peers {
		sm := &kvSM{}
		n, err := NewNode(Config{
			ID:                id,
			Peers:             e.peers,
			Net:               e.net,
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   30 * time.Millisecond,
			MaxBatchTxns:      1,
			MaxInflightFrames: 1,
		}, sm)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		e.nodes[id], e.sms[id] = n, sm
	}
	defer e.stopAll()
	leader := e.waitLeader(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				proposeOK(t, leader, fmt.Sprintf("s%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	waitConverged(t, e, 40, 1, 2, 3)
}

// TestBarrierExemptFromInflightWindow pins the livelock fix: a leader
// re-elected with an inherited uncommitted tail that already fills the
// pipelining window must still propose its epoch barrier — nothing
// inherited can commit until a current-epoch frame exists, so gating
// the barrier on the window would wedge the shard forever.
func TestBarrierExemptFromInflightWindow(t *testing.T) {
	e := &ensemble{
		nodes: make(map[uint64]*Node),
		sms:   make(map[uint64]*kvSM),
		net:   transport.NewInProc(),
		peers: map[uint64]string{1: "bar-1", 2: "bar-2"},
	}
	mk := func(id uint64) {
		sm := &kvSM{}
		n, err := NewNode(Config{
			ID:                id,
			Peers:             e.peers,
			Net:               e.net,
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   30 * time.Millisecond,
			MaxInflightFrames: 1,
		}, sm)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		e.nodes[id], e.sms[id] = n, sm
	}
	mk(1)
	mk(2)
	defer e.stopAll()
	leader := e.waitLeader(t)
	follower := e.nodes[3-leader.ID()]
	proposeOK(t, leader, "committed-before")

	// Cut the follower, then fire writes that fill the window as an
	// uncommitted tail and force the stall watchdog to step the leader
	// down.
	follower.Stop()
	for i := 0; i < 2; i++ {
		go leader.Propose([]byte(fmt.Sprintf("tail-%d", i))) //nolint:errcheck
	}
	deadline := time.Now().Add(5 * time.Second)
	for leader.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("quorumless leader never stepped down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart the follower empty WITH THE SAME window=1 config.
	// Whichever node wins the next election inherits the uncommitted
	// tail (the restarted node syncs it from the other's log before or
	// after voting), so the new leader's window is already full when
	// its barrier queues.
	mk(follower.ID())
	// Without the barrier exemption this times out: the barrier never
	// proposes, nothing commits, and the watchdog churns elections.
	e.proposeOnLeader(t, "after-recovery")
}

// TestProposeWindowCodec round-trips a multi-frame propose window and
// rejects structurally impossible counts instead of allocating them.
func TestProposeWindowCodec(t *testing.T) {
	req := proposeReq{
		Epoch:    7,
		LeaderID: 3,
		PrevZxid: makeZxid(7, 4),
		Entries: []Frame{
			{Zxid: makeZxid(7, 5), Txns: [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}},
			{Zxid: makeZxid(7, 8), Noop: true},
			{Zxid: makeZxid(7, 9), Txns: [][]byte{[]byte("d")}},
		},
		Commit: makeZxid(7, 4),
	}
	b := req.encode()
	r := wire.NewReader(b)
	if kind := r.Uint8(); kind != msgPropose {
		t.Fatalf("kind = %d", kind)
	}
	got := decodeProposeReq(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != req.Epoch || got.PrevZxid != req.PrevZxid || got.Commit != req.Commit {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	if got.Entries[0].Last() != makeZxid(7, 7) {
		t.Fatalf("frame 0 last = %x", got.Entries[0].Last())
	}
	if !got.Entries[1].Noop || got.Entries[1].Last() != makeZxid(7, 8) {
		t.Fatalf("noop frame decoded wrong: %+v", got.Entries[1])
	}
	if string(got.Entries[2].Txns[0]) != "d" {
		t.Fatalf("frame 2 txn = %q", got.Entries[2].Txns[0])
	}

	// A claimed entry count larger than the remaining bytes must fail
	// the reader, not allocate.
	w := wire.NewWriter(32)
	w.Uint64(1) // epoch
	w.Uint64(1) // leader
	w.Uint64(0) // prev
	w.Uint32(1 << 30)
	bad := wire.NewReader(w.Bytes())
	decodeProposeReq(bad)
	if bad.Err() == nil {
		t.Fatal("oversized entry count not rejected")
	}

	// Amplification guard: a count that FITS the remaining byte count
	// but exceeds what those bytes could structurally encode (>= 13
	// bytes per entry) must also fail before allocating slice headers
	// ~40x the message size.
	w = wire.NewWriter(256)
	w.Uint64(1)
	w.Uint64(1)
	w.Uint64(0)
	w.Uint32(100) // claims 100 entries...
	for i := 0; i < 100; i++ {
		w.Uint8(0) // ...backed by only 100 bytes
	}
	amp := wire.NewReader(w.Bytes())
	decodeProposeReq(amp)
	if amp.Err() == nil {
		t.Fatal("amplifying entry count not rejected")
	}
}

func TestZxidArithmetic(t *testing.T) {
	z := makeZxid(3, 7)
	if epochOf(z) != 3 || z&0xffffffff != 7 {
		t.Fatalf("zxid layout wrong: %x", z)
	}
	if makeZxid(2, 0xffffffff) >= makeZxid(3, 1) {
		t.Fatal("epoch must dominate ordering")
	}
}

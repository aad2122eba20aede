package zab

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestWakeWaiterNonBlocking pins the invariant the decoupled apply loop
// depends on: wakeWaiterLocked must never block, even against a waiter
// whose buffered slot is already full (the can't-happen case a plain
// send would turn into a deadlock inside the node mutex). It must also
// remove the waiter so a second wake for the same zxid is a no-op.
func TestWakeWaiterNonBlocking(t *testing.T) {
	n := &Node{waiters: map[uint64]*pendingTxn{}}

	// Healthy path: empty buffered(1) channel receives the outcome.
	p := &pendingTxn{ch: make(chan proposeOutcome, 1)}
	n.waiters[7] = p
	n.wakeWaiterLocked(7, []byte("res"))
	select {
	case out := <-p.ch:
		if out.zxid != 7 || string(out.result) != "res" {
			t.Fatalf("outcome = %+v, want zxid 7 result %q", out, "res")
		}
	default:
		t.Fatal("wake delivered nothing to an empty waiter channel")
	}
	if _, ok := n.waiters[7]; ok {
		t.Fatal("waiter not removed after wake")
	}

	// Adversarial path: the slot is already occupied. A plain send
	// would block forever (no receiver); the wake must return anyway.
	full := &pendingTxn{ch: make(chan proposeOutcome, 1)}
	full.ch <- proposeOutcome{zxid: 99}
	n.waiters[8] = full
	done := make(chan struct{})
	go func() {
		n.wakeWaiterLocked(8, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("wakeWaiterLocked blocked on a full waiter channel")
	}
	if _, ok := n.waiters[8]; ok {
		t.Fatal("waiter not removed after dropped wake")
	}
	if out := <-full.ch; out.zxid != 99 {
		t.Fatalf("pre-existing outcome clobbered: %+v", out)
	}

	// Missing waiter: a wake for an unknown zxid is a no-op.
	n.wakeWaiterLocked(12345, nil)
}

// slowSM is a state machine that sleeps in every ApplyBatch, so the
// leader's inline appliers, its applyLoop and snapshot cuts overlap. It
// counts the applies of every zxid and flags one that does not follow
// the zxid applied before it.
type slowSM struct {
	mu      sync.Mutex
	applied map[uint64]int
	last    uint64 // highest zxid applied
	reorder []uint64
}

func newSlowSM() *slowSM { return &slowSM{applied: map[uint64]int{}} }

func (s *slowSM) Apply(txn []byte, zxid uint64) []byte {
	return s.ApplyBatch([][]byte{txn}, zxid)[0]
}

func (s *slowSM) ApplyBatch(txns [][]byte, firstZxid uint64) [][]byte {
	time.Sleep(200 * time.Microsecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, len(txns))
	for i, txn := range txns {
		z := firstZxid + uint64(i)
		s.applied[z]++
		if z <= s.last {
			s.reorder = append(s.reorder, z)
		}
		s.last = z
		out[i] = append(binary.BigEndian.AppendUint64(nil, z), txn...)
	}
	return out
}

// Snapshot is the highest zxid applied: what a consistent cut must
// agree with.
func (s *slowSM) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return binary.BigEndian.AppendUint64(nil, s.last)
}

func (s *slowSM) Restore(snap []byte, snapZxid uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = snapZxid
	return nil
}

// syncedStore is a MemStorage whose durable horizon moves only when a
// Sync lands, so a leader's own quorum vote waits for its sync loop and
// commits come from that loop as well as from window completions.
type syncedStore struct {
	*MemStorage
	durable atomic.Uint64
}

func (s *syncedStore) Sync() error {
	tip := s.MemStorage.LastDurableZxid()
	for d := s.durable.Load(); d < tip && !s.durable.CompareAndSwap(d, tip); d = s.durable.Load() {
	}
	return nil
}

func (s *syncedStore) LastDurableZxid() uint64 { return s.durable.Load() }

// TestInlineApplyOrdering drives a leader whose state machine is slow
// with 64 concurrent proposers and a log bound small enough that the
// snapshotter cuts, while a follower's snapshot pull is served over and
// over: commits are applied on the window completions and the sync
// loop that make them, and by applyLoop when those find applyMu taken.
// Every proposer must get its own transaction's result, LastApplied must
// never move backwards, every zxid must be applied once and in order,
// every pulled snapshot must be the state at the zxid it names, and
// nothing may deadlock.
func TestInlineApplyOrdering(t *testing.T) {
	net := transport.NewInProc()
	peers := map[uint64]string{1: "inline-1", 2: "inline-2", 3: "inline-3"}
	nodes := map[uint64]*Node{}
	sms := map[uint64]*slowSM{}
	for id := range peers {
		sm := newSlowSM()
		n, err := NewNode(Config{
			ID:                id,
			Peers:             peers,
			Net:               net,
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   200 * time.Millisecond,
			MaxLogEntries:     16,
			Storage:           &syncedStore{MemStorage: new(MemStorage)},
		}, sm)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[id], sms[id] = n, sm
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	var leader *Node
	for deadline := time.Now().Add(5 * time.Second); leader == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no leader elected")
		}
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
			}
		}
	}
	if _, err := leader.Propose([]byte("first")); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	var newest atomic.Uint64 // the newest snapshot a pull shipped
	bg.Add(2)
	go func() { // a follower pulling snapshots, over and over
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := leader.handleSync(syncReq{FromZxid: makeZxid(99, 1)})
			if err != nil {
				t.Errorf("snapshot pull: %v", err)
				return
			}
			if got := binary.BigEndian.Uint64(resp.Snapshot); got != resp.SnapZxid {
				t.Errorf("snapshot cut at %x holds the state at %x", resp.SnapZxid, got)
				return
			}
			newest.Store(max(newest.Load(), resp.SnapZxid))
		}
	}()
	go func() { // LastApplied only moves up
		defer bg.Done()
		var prev uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			z := leader.LastApplied()
			if z < prev {
				t.Errorf("LastApplied went back from %x to %x", prev, z)
				return
			}
			prev = z
		}
	}()

	const proposers, each = 64, 20
	var wg sync.WaitGroup
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				txn := fmt.Sprintf("p%d-%d", p, i)
				res, err := leader.Propose([]byte(txn))
				if err != nil {
					t.Errorf("%s: %v", txn, err)
					return
				}
				if len(res) < 8 || string(res[8:]) != txn {
					t.Errorf("%s: got the result of %q", txn, res)
					return
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("proposals wedged: apply deadlocked")
	}
	// A drain under load keeps applyMu until the queue empties, so the
	// snapshot the log bound asked for is cut once the writes stop: pull
	// until a pull ships it.
	for deadline := time.Now().Add(10 * time.Second); newest.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("every pull shipped the genesis snapshot; no cut was checked")
		}
	}
	close(stop)
	bg.Wait()

	sm := sms[leader.ID()]
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if len(sm.reorder) > 0 {
		t.Fatalf("zxids applied out of order: %x", sm.reorder)
	}
	if got, want := len(sm.applied), proposers*each+1; got != want {
		t.Fatalf("leader applied %d distinct zxids, want %d", got, want)
	}
	for z, c := range sm.applied {
		if c != 1 {
			t.Fatalf("zxid %x applied %d times", z, c)
		}
	}
}

// pacedSM sleeps in ApplyBatch for every txn it is handed, so
// coalescing frames into one run does not speed it up: a state machine
// slower than the quorum. It takes whole runs (it has the batch and
// stream forms) and keeps no state.
type pacedSM struct{}

func (pacedSM) Apply(txn []byte, zxid uint64) []byte { return nil }

func (pacedSM) ApplyBatch(txns [][]byte, firstZxid uint64) [][]byte {
	time.Sleep(time.Duration(len(txns)) * 200 * time.Microsecond)
	return make([][]byte, len(txns))
}

func (pacedSM) Snapshot() []byte                               { return nil }
func (pacedSM) Restore(snap []byte, snapZxid uint64) error     { return nil }
func (pacedSM) SnapshotTo(w io.Writer) error                   { return nil }
func (pacedSM) RestoreFrom(r io.Reader, snapZxid uint64) error { return nil }

// TestSlowApplyBoundsTheBacklog pins the commit→apply backpressure: with
// one txn per frame and a state machine slower than the quorum, many
// concurrent proposers keep the leader's proposer at its gate, and the
// leader's committed-but-unapplied backlog (CommitZxid − LastApplied,
// in frames here) must never exceed maxApplyQueueFrames plus the
// pipelining window plus the epoch barrier: the frames an applier is
// applying count toward the gate. Every proposal must complete.
func TestSlowApplyBoundsTheBacklog(t *testing.T) {
	const inflight = 16
	net := transport.NewInProc()
	peers := map[uint64]string{1: "backlog-1", 2: "backlog-2", 3: "backlog-3"}
	nodes := map[uint64]*Node{}
	for id := range peers {
		n, err := NewNode(Config{
			ID:                id,
			Peers:             peers,
			Net:               net,
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   time.Second,
			MaxBatchTxns:      1,
			MaxInflightFrames: inflight,
		}, pacedSM{})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	var leader *Node
	for deadline := time.Now().Add(10 * time.Second); leader == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no leader elected")
		}
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
			}
		}
	}
	// The first proposal applies the epoch barrier too, so from here on
	// commit and applied point share an epoch and their difference counts
	// frames.
	if _, err := leader.Propose([]byte("first")); err != nil {
		t.Fatal(err)
	}
	epoch := leader.Epoch()

	const bound = maxApplyQueueFrames + inflight + 1
	stop := make(chan struct{})
	sampled := make(chan uint64)
	go func() {
		var worst uint64
		for {
			select {
			case <-stop:
				sampled <- worst
				return
			default:
			}
			leader.mu.Lock()
			if epochOf(leader.commitZxid) == epoch {
				worst = max(worst, leader.commitZxid-leader.lastApplied)
			}
			leader.mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const proposers, each = 400, 3
	var wg sync.WaitGroup
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := leader.Propose([]byte(fmt.Sprintf("p%d-%d", p, i))); err != nil {
					t.Errorf("p%d-%d: %v", p, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	worst := <-sampled
	t.Logf("largest sampled backlog %d frames (bound %d)", worst, bound)
	if leader.Epoch() != epoch {
		t.Fatalf("leadership changed mid-test (epoch %d -> %d): the backlog was not measured under one leader", epoch, leader.Epoch())
	}
	if worst > bound {
		t.Fatalf("committed-but-unapplied backlog reached %d frames, bound %d", worst, bound)
	}
	if worst < maxApplyQueueFrames {
		t.Fatalf("backlog peaked at %d frames: the proposer never reached its gate, so the bound was not tested", worst)
	}
}

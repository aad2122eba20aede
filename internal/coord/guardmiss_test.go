package coord

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// missBatch is a batch whose leading check fails on a node that exists,
// so its abort carries data and a stat: what a file's chmod sends.
func missBatch(path string) []Op {
	return []Op{CheckDataOp(path, -1, []byte("not its data")), SetOp(path, []byte("never"), -1)}
}

// TestGuardMissIsAnsweredAtTheLeader sends a batch whose leading check
// fails from sessions homed on the leader and on a follower. The leader
// answers it from its state: nothing is proposed — its commit horizon
// and its writes counter stay where they were — and the reply is the
// abort the same batch gets when it is proposed and applied.
func TestGuardMissIsAnsweredAtTheLeader(t *testing.T) {
	e := startTestEnsemble(t, 3)
	leaderIdx, followerIdx := leaderAndFollower(t, e)
	leader := e.Servers[leaderIdx]
	for _, home := range []int{leaderIdx, followerIdx} {
		s := connect(t, e, home)
		if _, err := s.Create("/g", []byte("data"), znode.ModePersistent); err != nil && !errors.Is(err, ErrNodeExists) {
			t.Fatal(err)
		}
		commit, writes, misses := leader.CommitZxid(), counter(leader, "writes"), counter(leader, "guard_misses")
		answered, err := s.Multi(missBatch("/g"))
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("home %d: the batch returned %v, want ErrBadVersion", home, err)
		}
		if leader.CommitZxid() != commit || counter(leader, "writes") != writes {
			t.Fatalf("home %d: the guard miss was proposed (commit %x → %x, writes %d → %d)",
				home, commit, leader.CommitZxid(), writes, counter(leader, "writes"))
		}
		if got := counter(leader, "guard_misses"); got != misses+1 {
			t.Fatalf("home %d: guard_misses %d → %d, want one more", home, misses, got)
		}

		// The same batch with a write of the session in flight goes to
		// the log, and its applied abort is the answer given above.
		s.window <- struct{}{}
		applied, err := s.Multi(missBatch("/g"))
		<-s.window
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("home %d: the proposed batch returned %v", home, err)
		}
		if counter(leader, "writes") != writes+1 || counter(leader, "guard_misses") != misses+1 {
			t.Fatalf("home %d: a session with a write in flight was answered from the leader's state", home)
		}
		if !reflect.DeepEqual(answered, applied) {
			t.Fatalf("home %d: answered %+v, applied %+v", home, answered, applied)
		}
	}
}

// TestGuardMissFallsBackToTheLog: the leader answers a batch from its
// state only where that is a lease read of a failing leading check. A
// batch whose checks hold, one that leads with a write (the check
// behind it is never evaluated ahead of the batch), one stamped ahead of
// the leader and one that reaches a follower are proposed or refused as
// ever; and a leader without a lease that cannot finish a heartbeat
// round proposes it too.
func TestGuardMissFallsBackToTheLog(t *testing.T) {
	ablateZab = func(c *zab.Config) { c.MaxClockSkew = c.ElectionTimeout } // no lease: a barrier needs a round
	e, faults := startFaultyEnsemble(t)
	ablateZab = nil
	leaderIdx, followerIdx := leaderAndFollower(t, e)
	leader, follower := e.Servers[leaderIdx], e.Servers[followerIdx]
	s := connect(t, e, leaderIdx)
	if _, err := s.Create("/g", []byte("data"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	seq := uint64(1 << 40)
	txn := func(ops []Op) []byte {
		seq++
		return encodeMultiTxn(ops, s.ID(), seq, 1)
	}
	for _, c := range []struct {
		name  string
		to    *Server
		stamp uint64
		ops   []Op
		miss  bool
	}{
		{"a failing leading check", leader, 0, missBatch("/g"), true},
		{"a check on a missing node", leader, 0, []Op{CheckDataOp("/none", -1, nil), DeleteOp("/g", -1)}, true},
		{"checks that hold", leader, 0, []Op{CheckDataOp("/g", -1, []byte("da")), CheckDataOp("/g", -1, nil), SetOp("/g", []byte("data"), -1)}, false},
		{"a check behind a write", leader, 0, []Op{SetOp("/g", []byte("data"), -1), CheckDataOp("/g", -1, []byte("x"))}, false},
		{"a stamp ahead of the leader", leader, 1 << 62, missBatch("/g"), false},
		{"a follower", follower, 0, missBatch("/g"), false},
	} {
		if _, ok := c.to.answerGuardMiss(c.stamp, txn(c.ops)); ok != c.miss {
			t.Fatalf("%s: answered at the leader = %v, want %v", c.name, ok, c.miss)
		}
	}

	// Cut the leader off from both followers: its barrier cannot finish a
	// round within stampWait, and the batch goes to the log.
	var peers []string
	for i, srv := range e.Servers {
		if i != leaderIdx {
			peers = append(peers, srv.cfg.PeerAddrs[srv.cfg.ID])
		}
	}
	faults.Block(peers...)
	_, ok := leader.answerGuardMiss(0, txn(missBatch("/g")))
	faults.Unblock(peers...)
	if ok {
		t.Fatal("a leader that could not vouch for its state answered from it")
	}

	// Through the whole server: the request sent while the session is idle
	// is an idle multi, and a follower names the leader for it.
	w := []byte{opIdleMulti, 0, 0, 0, 0, 0, 0, 0, 0}
	reply, err := follower.handleClient(append(w, txn(missBatch("/g"))...))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, status, err := splitReply(reply); err != nil || !errors.As(status, new(notLeader)) {
		t.Fatalf("a follower answered an idle multi with %v, %v; want it to name the leader", status, err)
	}
	if _, err := leader.handleClient(append(w, opCreate)); err == nil {
		t.Fatal("an idle multi wrapping a create was served")
	}
	if _, err := leader.handleClient(w); err == nil {
		t.Fatal("an idle multi wrapping nothing was served")
	}
}

// TestRetryOfAnIdleMultiGoesToTheLog: an attempt that may have been
// proposed is never followed by one the leader answers from its state,
// since only the dedup window answers a retry of a proposed batch
// rightly. The first attempt is applied, and then its reply is lost, or
// replaced by the redirect a leader that steps down gives the txns it
// had enqueued (one of which may still commit under the next leader,
// as this one did). The retry must return that commit, not the failed
// check the commit left behind.
func TestRetryOfAnIdleMultiGoesToTheLog(t *testing.T) {
	for _, c := range []struct {
		name  string
		fault func(addr string) ([]byte, error)
	}{
		{"a lost reply", func(string) ([]byte, error) { return nil, errors.New("the reply was lost") }},
		{"a redirect after the proposal", func(addr string) ([]byte, error) { return stamped(errResult(notLeader(addr)), 0), nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := startTestEnsemble(t, 1)
			net := &idleReplyFault{Network: e.net, fault: func() ([]byte, error) { return c.fault(e.ClientAddrs[0]) }}
			s, err := Connect(net, e.ClientAddrs)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			if _, err := s.Create("/r", []byte("file"), znode.ModePersistent); err != nil {
				t.Fatal(err)
			}
			res, err := s.Multi([]Op{CheckDataOp("/r", -1, []byte("file")), DeleteOp("/r", -1)})
			if !net.fired.Load() {
				t.Fatal("no reply was replaced; the test is vacuous")
			}
			if err != nil || len(res) != 2 || string(res[0].Data) != "file" {
				t.Fatalf("the retried batch returned %+v, %v; want the first attempt's commit", res, err)
			}
		})
	}
}

// idleReplyFault replaces the reply to the first idle multi, after the
// server has handled it, with what fault returns.
type idleReplyFault struct {
	transport.Network
	fault func() ([]byte, error)
	fired atomic.Bool
}

func (n *idleReplyFault) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &idleReplyConn{Conn: c, n: n}, nil
}

type idleReplyConn struct {
	transport.Conn
	n *idleReplyFault
}

func (c *idleReplyConn) Call(req []byte) ([]byte, error) {
	resp, err := c.Conn.Call(req)
	if err == nil && req[0] == opIdleMulti && c.n.fired.CompareAndSwap(false, true) {
		return c.n.fault()
	}
	return resp, err
}

// TestUnsettledWriteSendsBatchesToTheLog: a write the session stopped
// waiting for may still be in the leader's pipeline, where ReadBarrier
// would not wait for it, so until a server answers it, a batch whose
// leading check fails is proposed — ordered behind it — rather than
// answered from the leader's state. A write held on its way to the
// server past its caller's deadline is settled when its answer arrives
// after all; one whose late result is a failed connection, or whose
// every attempt failed before the deadline, never is.
func TestUnsettledWriteSendsBatchesToTheLog(t *testing.T) {
	e := startTestEnsemble(t, 1)
	leader := e.Servers[0]
	net := &faultSets{Network: e.net}
	s, err := Connect(net, e.ClientAddrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Create("/g", []byte("data"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	missed := func(want bool, when string) {
		t.Helper()
		writes, misses := counter(leader, "writes"), counter(leader, "guard_misses")
		if _, err := s.Multi(missBatch("/g")); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("%s: the batch returned %v, want ErrBadVersion", when, err)
		}
		got := counter(leader, "guard_misses") == misses+1 && counter(leader, "writes") == writes
		if got != want {
			t.Fatalf("%s: answered at the leader = %v, want %v (writes %d → %d)",
				when, got, want, writes, counter(leader, "writes"))
		}
	}
	// set sends a set with a 20 ms deadline, held on its way until gate
	// closes (nil: not held), and wants the deadline back.
	set := func(gate chan struct{}, fail bool) {
		t.Helper()
		net.gate.Store(&gate)
		net.fail.Store(fail)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := s.SetCtx(ctx, "/g", []byte("later"), -1); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("the set returned %v, want the context's deadline", err)
		}
	}
	missed(true, "before any write was abandoned")

	held := make(chan struct{})
	set(held, false)
	missed(false, "with the abandoned write held")
	if _, err := s.Create("/after", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	missed(false, "with the abandoned write held and a later one answered")
	close(held)
	for deadline := time.Now().Add(5 * time.Second); s.unsettled.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned write's answer never settled it")
		}
	}
	if data, _, err := s.Get("/g"); err != nil || string(data) != "later" {
		t.Fatalf("/g = %q, %v after the abandoned write was answered", data, err)
	}
	missed(true, "once the abandoned write was answered")

	held = make(chan struct{})
	set(held, true)
	close(held)
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if s.unsettled.Load() == 0 {
			t.Fatal("a write whose late result is a failed connection was settled")
		}
	}
	set(nil, true)
	if s.unsettled.Load() != 2 {
		t.Fatalf("%d writes unsettled, want 2", s.unsettled.Load())
	}
	net.fail.Store(false)
	if _, err := s.Set("/g", []byte("data"), -1); err != nil {
		t.Fatal(err)
	}
	missed(false, "after writes that never reached the server")
}

// faultSets holds every set request on its way to the server until the
// gate closes, then fails it there while fail is set.
type faultSets struct {
	transport.Network
	gate atomic.Pointer[chan struct{}]
	fail atomic.Bool
}

func (n *faultSets) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &faultSetsConn{Conn: c, n: n}, nil
}

type faultSetsConn struct {
	transport.Conn
	n *faultSets
}

func (c *faultSetsConn) Call(req []byte) ([]byte, error) {
	if req[0] == opSet {
		if gate := c.n.gate.Load(); gate != nil && *gate != nil {
			<-*gate
		}
		if c.n.fail.Load() {
			return nil, errors.New("the connection failed")
		}
	}
	return c.Conn.Call(req)
}

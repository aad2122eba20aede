package zab

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// soloNode builds member 1 of a three-member ensemble without starting
// it, so a test can feed its handlers by hand.
func soloNode(t *testing.T, st StreamStorage) *Node {
	t.Helper()
	n, err := NewNode(Config{
		ID:      1,
		Peers:   map[uint64]string{1: "solo-1", 2: "solo-2", 3: "solo-3"},
		Net:     transport.NewInProc(),
		Storage: st,
	}, &kvSM{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func txnFrame(epoch uint64, seq uint32, txn string) Frame {
	return Frame{Zxid: makeZxid(epoch, seq), Txns: [][]byte{[]byte(txn)}}
}

// TestHeartbeatDoesNotCommitDivergentTail: a follower holding an
// uncommitted frame the new leader never had must not commit it when
// that leader's first heartbeat names a (numerically larger) horizon of
// its own epoch. The horizon is capped at what the follower verified
// against the CURRENT leader, not at its log tip.
func TestHeartbeatDoesNotCommitDivergentTail(t *testing.T) {
	n := soloNode(t, nil)
	f1, f2 := txnFrame(1, 1, "f1"), txnFrame(1, 2, "f2")
	if r := n.handlePropose(proposeReq{Epoch: 1, LeaderID: 2, Entries: []Frame{f1, f2}}); !r.Ack || r.LastZxid != f2.Zxid {
		t.Fatalf("window refused: %+v", r)
	}
	n.handleHeartbeat(heartbeatReq{Epoch: 1, LeaderID: 2, Commit: f1.Zxid})
	if got := n.CommitZxid(); got != f1.Zxid {
		t.Fatalf("commit = %x after the epoch-1 heartbeat, want %x", got, f1.Zxid)
	}

	// Member 3 wins epoch 2 without ever having held f2.
	n.handleHeartbeat(heartbeatReq{Epoch: 2, LeaderID: 3, Commit: makeZxid(2, 1)})
	if got := n.CommitZxid(); got != f1.Zxid {
		t.Fatalf("commit = %x after the new leader's heartbeat: divergent tail %x committed", got, f2.Zxid)
	}
	// Its first window attaches at f1, where this log has f2: the tail
	// is told apart as divergent and still not committed.
	r := n.handlePropose(proposeReq{Epoch: 2, LeaderID: 3, PrevZxid: f1.Zxid,
		Entries: []Frame{{Zxid: makeZxid(2, 1), Noop: true}}, Commit: makeZxid(2, 1)})
	if r.Ack || !r.NeedSync {
		t.Fatalf("window over a divergent tail answered %+v, want NeedSync", r)
	}
	if got := n.CommitZxid(); got != f1.Zxid {
		t.Fatalf("commit = %x after the refused window", got)
	}
}

// TestWindowKinds pins how a follower tells the windows of a reordered
// stream apart.
func TestWindowKinds(t *testing.T) {
	n := soloNode(t, nil)
	n.cfg.HeartbeatInterval = 20 * time.Millisecond
	f1, f2, f3 := txnFrame(1, 1, "a"), txnFrame(1, 2, "b"), txnFrame(1, 3, "c")
	win := func(prev uint64, commit uint64, entries ...Frame) proposeReq {
		return proposeReq{Epoch: 1, LeaderID: 2, PrevZxid: prev, Entries: entries, Commit: commit}
	}
	if r := n.handlePropose(win(0, 0, f1)); !r.Ack {
		t.Fatalf("first window: %+v", r)
	}

	// Early: f3 arrives before f2, parks, and is released by f2's append.
	early := make(chan proposeResp, 1)
	go func() { early <- n.handlePropose(win(f2.Zxid, 0, f3)) }()
	select {
	case r := <-early:
		t.Fatalf("early window answered %+v before its predecessor arrived", r)
	case <-time.After(5 * time.Millisecond):
	}
	if r := n.handlePropose(win(f1.Zxid, 0, f2)); !r.Ack {
		t.Fatalf("gap-closing window: %+v", r)
	}
	if r := <-early; !r.Ack || r.LastZxid != f3.Zxid {
		t.Fatalf("released window: %+v", r)
	}

	// An empty window naming a held position below the tip (a probe the
	// frames after it overtook) is acked, and commits what it names.
	if r := n.handlePropose(win(f1.Zxid, f2.Zxid)); !r.Ack || r.NeedSync {
		t.Fatalf("empty window at a held position: %+v", r)
	}
	if got := n.CommitZxid(); got != f2.Zxid {
		t.Fatalf("commit = %x, want %x", got, f2.Zxid)
	}
	// Overlap: a retransmit of held frames is acked without appending.
	if r := n.handlePropose(win(0, 0, f1, f2, f3)); !r.Ack || r.LastZxid != f3.Zxid {
		t.Fatalf("overlapping window: %+v", r)
	}

	// Lost predecessor: nothing closes the gap, so the parked window is
	// refused — plainly, with the tip — after one heartbeat interval.
	start := time.Now()
	r := n.handlePropose(win(makeZxid(1, 4), 0, txnFrame(1, 5, "e")))
	if r.Ack || r.NeedSync || r.LastZxid != f3.Zxid {
		t.Fatalf("window with a lost predecessor: %+v", r)
	}
	if d := time.Since(start); d < n.cfg.HeartbeatInterval {
		t.Fatalf("refused after %v, before the heartbeat interval ran out", d)
	}
	// Probe: an empty window naming a position this log does not hold.
	if r := n.handlePropose(win(makeZxid(1, 9), 0)); r.Ack || !r.NeedSync {
		t.Fatalf("probe of an unheld position: %+v", r)
	}
	// A gap below a position of an OLDER epoch is not waited out. It is
	// what a follower that lags a newly elected leader sees first — the
	// barrier, attaching at the leader's inherited tip — and the barrier's
	// quorum must not wait a park and a back-off for it: the follower
	// pulls at once. (Catch-up windows of an older epoch that overtake
	// one another pay the same pull.)
	start = time.Now()
	r = n.handlePropose(proposeReq{Epoch: 2, LeaderID: 3, PrevZxid: makeZxid(1, 4),
		Entries: []Frame{{Zxid: makeZxid(2, 1), Noop: true}}})
	if r.Ack || !r.NeedSync {
		t.Fatalf("barrier past a lagging tip: %+v", r)
	}
	if d := time.Since(start); d >= n.cfg.HeartbeatInterval {
		t.Fatalf("barrier past a lagging tip parked for %v", d)
	}
}

// gatedStore is a MemStorage whose Sync parks until released, with a
// durable horizon that only moves when a Sync completes.
type gatedStore struct {
	*MemStorage
	entered chan struct{} // one token per Sync that parked
	release chan struct{} // closed to let every Sync through
	durable atomic.Uint64
}

func (g *gatedStore) Sync() error {
	tip := g.MemStorage.LastDurableZxid()
	g.entered <- struct{}{}
	<-g.release
	for {
		d := g.durable.Load()
		if tip <= d || g.durable.CompareAndSwap(d, tip) {
			return nil
		}
	}
}

func (g *gatedStore) LastDurableZxid() uint64 { return g.durable.Load() }

// TestAckNeverExceedsDurableHorizon: while one window's sync is parked,
// a duplicate of the same window appends nothing and so syncs nothing —
// its cumulative ack must stop at the durable horizon instead of
// promising the frames the first handler has yet to harden.
func TestAckNeverExceedsDurableHorizon(t *testing.T) {
	st := &gatedStore{MemStorage: new(MemStorage), entered: make(chan struct{}, 1), release: make(chan struct{})}
	n := soloNode(t, st)
	w := proposeReq{Epoch: 1, LeaderID: 2, Entries: []Frame{txnFrame(1, 1, "a"), txnFrame(1, 2, "b")}}
	first := make(chan proposeResp, 1)
	go func() { first <- n.handlePropose(w) }()
	<-st.entered

	dup := n.handlePropose(w)
	if !dup.Ack {
		t.Fatalf("duplicate window refused: %+v", dup)
	}
	if dup.LastZxid > st.LastDurableZxid() {
		t.Fatalf("duplicate window acked %x with the durable horizon at %x", dup.LastZxid, st.LastDurableZxid())
	}
	close(st.release)
	if r := <-first; !r.Ack || r.LastZxid != makeZxid(1, 2) {
		t.Fatalf("first window: %+v", r)
	}
}

// peerTap is a transport.Network decorator over the peer links of a test
// ensemble: it counts calls by kind, delays each by a seeded random
// amount so windows overtake one another (and, with maxReplyDelay, each
// window's reply too, so acks overtake one another), and can hold back
// one chosen window as a lossy link would.
type peerTap struct {
	transport.Network
	maxDelay, maxReplyDelay time.Duration

	mu  sync.Mutex
	rng *rand.Rand
	// lose, when non-nil, picks windows to hold and then fail without
	// delivering. A lost window is held until a data window that starts
	// past it has been sent to the same member, so that one arrives
	// behind the gap and parks there, or until loseFor has passed.
	// Windows enter Call on goroutines of their own, so the successor
	// may be sent first; then the lost window fails at once.
	lose    func(addr string, m proposeReq) bool
	loseFor time.Duration
	sentTo  map[string]uint64 // the highest PrevZxid of a data window sent to each member
	held    chan struct{}     // closed when the held window's successor is sent
	heldFor string            // the member the held window was on its way to
	heldEnd uint64            // the held window's last zxid

	dataWindows, emptyWindows, votes       atomic.Int64
	syncPulls, needSyncs, refusals, others atomic.Int64
	refusedAfter                           atomic.Int64 // ns the last plain refusal took
}

func (p *peerTap) reset() {
	for _, c := range []*atomic.Int64{&p.dataWindows, &p.emptyWindows,
		&p.votes, &p.syncPulls, &p.needSyncs, &p.refusals, &p.others} {
		c.Store(0)
	}
}

func (p *peerTap) Dial(addr string) (transport.Conn, error) {
	c, err := p.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: p, addr: addr}, nil
}

type tapConn struct {
	transport.Conn
	tap  *peerTap
	addr string
}

func (c *tapConn) Call(req []byte) ([]byte, error) {
	p := c.tap
	var window *proposeReq
	switch req[0] {
	case msgPropose:
		r := wire.NewReader(req[1:])
		m := decodeProposeReq(r)
		window = &m
		if len(m.Entries) > 0 {
			p.dataWindows.Add(1)
		} else {
			p.emptyWindows.Add(1)
		}
	case msgHeartbeat: // expected at any time; not counted
	case msgRequestVote:
		p.votes.Add(1)
	case msgSync:
		p.syncPulls.Add(1)
	default:
		p.others.Add(1)
	}
	p.mu.Lock()
	var delay, replyDelay time.Duration
	if p.maxDelay > 0 {
		delay = time.Duration(p.rng.Int63n(int64(p.maxDelay)))
	}
	if window != nil && p.maxReplyDelay > 0 {
		replyDelay = time.Duration(p.rng.Int63n(int64(p.maxReplyDelay)))
	}
	lost := window != nil && p.lose != nil && p.lose(c.addr, *window)
	var successor chan struct{}
	switch {
	case lost:
		end := window.Entries[len(window.Entries)-1].Last()
		if p.sentTo[c.addr] < end {
			successor = make(chan struct{})
			p.held, p.heldFor, p.heldEnd = successor, c.addr, end
		}
	case window != nil && len(window.Entries) > 0:
		if p.sentTo == nil {
			p.sentTo = map[string]uint64{}
		}
		p.sentTo[c.addr] = max(p.sentTo[c.addr], window.PrevZxid)
		if p.held != nil && c.addr == p.heldFor && window.PrevZxid >= p.heldEnd {
			close(p.held)
			p.held = nil
		}
	}
	p.mu.Unlock()
	if lost {
		if successor != nil {
			select {
			case <-successor:
			case <-time.After(p.loseFor):
			}
		}
		return nil, errors.New("tap: window lost")
	}
	time.Sleep(delay)
	start := time.Now()
	resp, err := c.Conn.Call(req)
	time.Sleep(replyDelay)
	if window != nil && err == nil {
		if r, derr := decodeProposeResp(resp); derr == nil && !r.Ack {
			if r.NeedSync {
				p.needSyncs.Add(1)
			} else {
				p.refusals.Add(1)
				p.refusedAfter.Store(int64(time.Since(start)))
			}
		}
	}
	return resp, err
}

// startTapped boots a three-member ensemble behind tap. The timing pair
// is the saturating benchmarks' (50 ms / 1 s): under -race a 32-way
// proposer herd stalls the scheduler for longer than the unit tests'
// 30 ms election timeout.
func startTapped(t *testing.T, name string, tap *peerTap) *ensemble {
	t.Helper()
	return startTappedBeat(t, name, tap, 50*time.Millisecond, time.Second)
}

// startTappedBeat is startTapped with its own heartbeat interval and
// election timeout, over any decorated network.
func startTappedBeat(t *testing.T, name string, tap transport.Network, beat, timeout time.Duration) *ensemble {
	t.Helper()
	e := &ensemble{
		nodes: make(map[uint64]*Node),
		sms:   make(map[uint64]*kvSM),
		peers: make(map[uint64]string),
	}
	for id := uint64(1); id <= 3; id++ {
		e.peers[id] = fmt.Sprintf("%s-%d", name, id)
	}
	for id := range e.peers {
		sm := &kvSM{}
		n, err := NewNode(Config{
			ID:                id,
			Peers:             e.peers,
			Net:               tap,
			HeartbeatInterval: beat,
			ElectionTimeout:   timeout,
			MaxLogEntries:     1 << 20,
		}, sm)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		e.nodes[id], e.sms[id] = n, sm
	}
	t.Cleanup(e.stopAll)
	return e
}

// TestShuffledDelivery drives 32 concurrent proposers through links
// that delay every call by a random 0–2 ms, so windows and heartbeats
// all overtake one another. Reordering must be absorbed
// by the stream itself: every member applies the same sequence, and no
// follower ever asks to sync.
func TestShuffledDelivery(t *testing.T) {
	tap := &peerTap{Network: transport.NewInProc(), maxDelay: 2 * time.Millisecond, rng: rand.New(rand.NewSource(1))}
	e := startTapped(t, "shuffle", tap)
	leader := e.waitLeader(t)
	proposeOK(t, leader, "warm-up")
	waitConverged(t, e, 1, 1, 2, 3)
	epoch := leader.Epoch()
	tap.reset()

	const proposers, total = 32, 2000
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, proposers)
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= total; i = next.Add(1) {
				if _, err := leader.Propose([]byte(fmt.Sprintf("w-%d", i))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	waitConverged(t, e, total+1, 1, 2, 3)

	want, _ := e.sms[leader.ID()].snapshotState()
	for id, sm := range e.sms {
		if got, _ := sm.snapshotState(); !slices.Equal(got, want) {
			t.Fatalf("member %d applied a different sequence than the leader", id)
		}
	}
	if s, ns := tap.syncPulls.Load(), tap.needSyncs.Load(); s != 0 || ns != 0 {
		t.Fatalf("reordering was answered with %d sync pulls and %d NeedSync replies, want none", s, ns)
	}
	for _, n := range e.nodes {
		if n.Epoch() != epoch {
			t.Fatalf("member %d moved to epoch %d during the run (was %d)", n.ID(), n.Epoch(), epoch)
		}
	}
	t.Logf("%d data windows, %d empty, %d plain refusals for %d writes",
		tap.dataWindows.Load(), tap.emptyWindows.Load(), tap.refusals.Load(), total)
}

// TestShuffledReadBackAsksTheHorizon: under TestShuffledDelivery's
// reordering, with the replies delayed too and a half-second heartbeat,
// writers on the leader each read their write back on a follower. The
// follower has placed the write's window before, while or after the
// reader parks, in whatever order the windows and acks travel; in each
// case it asks the leader for the horizon, and no read waits for a
// heartbeat.
func TestShuffledReadBackAsksTheHorizon(t *testing.T) {
	const beat = 500 * time.Millisecond
	tap := &peerTap{Network: transport.NewInProc(), maxDelay: 2 * time.Millisecond,
		maxReplyDelay: 2 * time.Millisecond, rng: rand.New(rand.NewSource(1))}
	e := startTappedBeat(t, "staleack", tap, beat, 2*beat)
	leader := e.waitLeader(t)
	var followers []*Node
	for _, f := range e.nodes {
		if f != leader {
			followers = append(followers, f)
		}
	}
	proposeOK(t, leader, "warm-up")
	const writers, rounds = 8, 25
	var mu sync.Mutex
	var worst time.Duration
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, zxid, err := leader.ProposeZxid([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs <- err
					return
				}
				start := time.Now()
				if err := followers[(w+i)%2].WaitApplied(zxid, 2*beat); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				worst = max(worst, time.Since(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	t.Logf("slowest read-back on a follower: %v (heartbeat %v); %d data windows, %d empty", worst, beat, tap.dataWindows.Load(), tap.emptyWindows.Load())
	if worst > beat/4 {
		t.Errorf("a reader parked on a follower waited %v: it was stranded until the heartbeat", worst)
	}
}

// TestLostWindowIsRefusedNotSynced loses one window on the way to one
// follower. Its successor parks there, is refused after a heartbeat
// interval, and the stream rewinds and resends — the follower never
// pulls, so no snapshot is shipped.
func TestLostWindowIsRefusedNotSynced(t *testing.T) {
	tap := &peerTap{Network: transport.NewInProc(), rng: rand.New(rand.NewSource(1))}
	e := startTapped(t, "lostwin", tap)
	leader := e.waitLeader(t)
	proposeOK(t, leader, "warm-up")
	waitConverged(t, e, 1, 1, 2, 3)
	var victim uint64
	for id := range e.nodes {
		if id != leader.ID() {
			victim = id
			break
		}
	}
	hb := 50 * time.Millisecond
	tap.mu.Lock()
	lostOnce := false
	tap.loseFor = 20 * hb // a deadline: the successor's send releases it
	tap.lose = func(addr string, m proposeReq) bool {
		if lostOnce || addr != e.peers[victim] || len(m.Entries) == 0 || len(m.Entries[0].Txns) == 0 ||
			string(m.Entries[0].Txns[0]) != "lost-on-the-way" {
			return false
		}
		lostOnce = true
		return true
	}
	tap.mu.Unlock()
	tap.reset()

	proposeOK(t, leader, "lost-on-the-way")
	proposeOK(t, leader, "parked-behind-it")
	waitConverged(t, e, 3, 1, 2, 3)

	if got := tap.refusals.Load(); got == 0 {
		t.Fatal("the successor of the lost window was never refused")
	}
	if d := time.Duration(tap.refusedAfter.Load()); d < hb || d > 3*hb {
		t.Fatalf("parked window refused after %v, want about one heartbeat interval (%v)", d, hb)
	}
	if s, ns := tap.syncPulls.Load(), tap.needSyncs.Load(); s != 0 || ns != 0 {
		t.Fatalf("a lost window cost %d sync pulls and %d NeedSync replies, want a rewind only", s, ns)
	}
	want, _ := e.sms[leader.ID()].snapshotState()
	if got, _ := e.sms[victim].snapshotState(); !slices.Equal(got, want) {
		t.Fatalf("victim applied %v, leader %v", got, want)
	}
}

// TestMessagesPerWrite counts what one isolated write costs on the peer
// links. Proposed on the leader — what every session's write is down
// here, whichever server it is homed on — it takes exactly one window
// per follower: with nobody waiting on a follower, the commit horizon
// rides its next window or heartbeat, and there is no empty commit
// carrier and no separate commit message. Proposed on a follower, it is
// refused without a single peer message.
func TestMessagesPerWrite(t *testing.T) {
	tap := &peerTap{Network: transport.NewInProc(), rng: rand.New(rand.NewSource(1))}
	e := startTapped(t, "msgcount", tap)
	leader := e.waitLeader(t)
	var follower *Node
	for _, n := range e.nodes {
		if n != leader {
			follower = n
			break
		}
	}
	proposeOK(t, leader, "warm-up")
	waitConverged(t, e, 1, 1, 2, 3)
	time.Sleep(120 * time.Millisecond) // let the warm-up's windows land

	for _, c := range []struct {
		via     *Node
		windows int64 // data windows; there is no empty one
	}{{leader, 2}, {follower, 0}} {
		tap.reset()
		if c.via == leader {
			proposeOK(t, leader, "isolated")
			waitConverged(t, e, 2, 1, 2, 3)
		} else if _, err := c.via.Propose([]byte("refused")); err != ErrNoLeader {
			t.Fatalf("a follower's Propose returned %v, want ErrNoLeader", err)
		}
		time.Sleep(120 * time.Millisecond)
		if d, em := tap.dataWindows.Load(), tap.emptyWindows.Load(); d != c.windows || em != 0 {
			t.Fatalf("write on member %d: %d data windows, %d empty windows; want %d and none", c.via.ID(), d, em, c.windows)
		}
		if v, s, o := tap.votes.Load(), tap.syncPulls.Load(), tap.others.Load(); v != 0 || s != 0 || o != 0 {
			t.Fatalf("write on member %d: %d votes, %d sync pulls, %d other messages on the peer links", c.via.ID(), v, s, o)
		}
	}
}

// groupNet gives each member its own view of a shared network, so a
// partition can cut both directions between two sides.
type groupNet struct {
	transport.Network
	src  uint64
	part *partition
}

type partition struct {
	mu     sync.Mutex
	minor  map[uint64]bool // members on the minority side; nil = healed
	idOf   map[string]uint64
	active bool
}

func (p *partition) cut(a uint64, addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active && p.minor[a] != p.minor[p.idOf[addr]]
}

func (g *groupNet) Dial(addr string) (transport.Conn, error) {
	if g.part.cut(g.src, addr) {
		return nil, fmt.Errorf("partition: %s unreachable from %d", addr, g.src)
	}
	c, err := g.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &groupConn{Conn: c, g: g, addr: addr}, nil
}

type groupConn struct {
	transport.Conn
	g    *groupNet
	addr string
}

func (c *groupConn) Call(req []byte) ([]byte, error) {
	if c.g.part.cut(c.g.src, c.addr) {
		return nil, fmt.Errorf("partition: %s unreachable from %d", c.addr, c.g.src)
	}
	return c.Conn.Call(req)
}

// everSM is a kvSM that also remembers every transaction it was ever
// asked to apply, across snapshot installs.
type everSM struct {
	kvSM
	everMu sync.Mutex
	ever   map[string]bool
}

func (s *everSM) Apply(txn []byte, zxid uint64) []byte {
	s.everMu.Lock()
	s.ever[string(txn)] = true
	s.everMu.Unlock()
	return s.kvSM.Apply(txn, zxid)
}

// TestMinorityTailNeverApplied partitions the leader and one follower
// of a five-member ensemble away from the other three with a write in
// flight. The minority holds that write as an uncommitted tail; the
// majority elects a leader that never saw it and moves on. After the
// heal every member must hold the same state, and the lost write must
// not have been applied anywhere, even transiently.
func TestMinorityTailNeverApplied(t *testing.T) {
	inner := transport.NewInProc()
	part := &partition{idOf: make(map[string]uint64)}
	peers := make(map[uint64]string)
	for id := uint64(1); id <= 5; id++ {
		peers[id] = fmt.Sprintf("minority-%d", id)
		part.idOf[peers[id]] = id
	}
	nodes := make(map[uint64]*Node)
	sms := make(map[uint64]*everSM)
	for id := range peers {
		sm := &everSM{ever: make(map[string]bool)}
		n, err := NewNode(Config{
			ID:                id,
			Peers:             peers,
			Net:               &groupNet{Network: inner, src: id, part: part},
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   50 * time.Millisecond,
		}, sm)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[id], sms[id] = n, sm
	}
	e := &ensemble{nodes: nodes, sms: make(map[uint64]*kvSM), peers: peers}
	for id, sm := range sms {
		e.sms[id] = &sm.kvSM
	}
	t.Cleanup(e.stopAll)

	old := e.waitLeader(t)
	proposeOK(t, old, "before")
	waitConverged(t, e, 1, 1, 2, 3, 4, 5)

	minor := map[uint64]bool{old.ID(): true}
	var majority []uint64
	for id := range nodes {
		if id == old.ID() {
			continue
		}
		if len(minor) < 2 {
			minor[id] = true
		} else {
			majority = append(majority, id)
		}
	}
	part.mu.Lock()
	part.minor, part.active = minor, true
	part.mu.Unlock()

	// The write reaches the minority follower and can never commit.
	lostDone := make(chan error, 1)
	go func() {
		_, err := old.Propose([]byte("lost"))
		lostDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for held := 0; held < 2; {
		held = 0
		for id := range minor {
			if nodes[id].LastZxid() > nodes[id].CommitZxid() {
				held++
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the minority never held the write as an uncommitted tail")
		}
		time.Sleep(time.Millisecond)
	}

	// The majority elects among itself and commits without it.
	side := &ensemble{nodes: make(map[uint64]*Node), sms: e.sms, peers: map[uint64]string{}}
	for _, id := range majority {
		side.nodes[id], side.peers[id] = nodes[id], peers[id]
	}
	for i := 0; i < 3; i++ {
		side.proposeOnLeader(t, fmt.Sprintf("after-%d", i))
	}
	if err := <-lostDone; err == nil {
		t.Fatal("a write acknowledged by two of five members was reported committed")
	}

	part.mu.Lock()
	part.active = false
	part.mu.Unlock()
	// A retried propose may land twice while the returning members'
	// inflated epochs churn the leadership, so convergence is "every
	// member holds the same sequence and it ends in the marker".
	e.proposeOnLeader(t, "healed")
	var want []string
	deadline = time.Now().Add(10 * time.Second)
	for same := false; !same; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("members did not converge after the heal")
		}
		want, _ = sms[majority[0]].snapshotState()
		same = len(want) > 0 && want[len(want)-1] == "healed"
		for _, sm := range sms {
			got, _ := sm.snapshotState()
			same = same && slices.Equal(got, want)
		}
	}
	if !slices.Equal(want[:4], []string{"before", "after-0", "after-1", "after-2"}) {
		t.Fatalf("converged on %v", want)
	}
	for id, sm := range sms {
		sm.everMu.Lock()
		applied := sm.ever["lost"]
		sm.everMu.Unlock()
		if applied {
			t.Fatalf("member %d applied the write that never committed", id)
		}
	}
}

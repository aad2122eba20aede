// Package zab implements the replication core of the coordination
// service: a leader-based atomic broadcast in the spirit of ZooKeeper's
// Zab protocol (paper §II-C, ref [8]).
//
// Every state mutation is wrapped in a transaction, assigned a zxid
// (epoch in the high 32 bits, a per-epoch counter in the low 32 bits),
// replicated to a quorum of followers, and only then committed and
// applied — in strict zxid order, identically on every server. That is
// the property DUFS leans on: "all modifications on the namespace
// appear to be atomic and strictly ordered to all the clients".
//
// # Group commit and pipelining
//
// The leader write path is a production-style Zab pipeline rather than
// a one-transaction-per-quorum-round-trip lockstep:
//
//   - Client proposals land in a queue. A proposer goroutine drains
//     it and coalesces the pending transactions into one FRAME (up to
//     MaxBatchTxns transactions / maxBatchBytes bytes) that
//     replicates, commits and recovers as a single unit.
//   - One sender goroutine per follower streams frames as WINDOWS,
//     several in flight at once, without waiting for earlier acks:
//     acks are cumulative and may return in any order, every window
//     carries the commit horizon (there is no separate commit
//     message), and the leader keeps proposing (up to
//     MaxInflightFrames uncommitted frames) meanwhile.
//   - A frame's transactions commit together when a quorum holds the
//     frame; each waiting proposer is woken with its own per-txn
//     apply result. An unacknowledged frame either wholly commits or
//     wholly vanishes — transactions never partially survive a
//     leader failover.
//
// Differences from production Zab, chosen for clarity and testability:
//
//   - Leader election is a Raft-style vote (epoch + last-zxid
//     up-to-dateness check) rather than ZooKeeper's fast leader
//     election; the elected-leader safety property is the same.
//   - Every node runs on a Storage: each frame is persisted and synced
//     before it is acknowledged — follower acks sync their window
//     first, the leader's own quorum vote is capped at its durable
//     horizon by a group-sync loop — votes survive restart, and
//     NewNode recovers from the newest fuzzy snapshot plus the log
//     tail. What that survives is the store's choice: the default
//     MemStorage keeps it on the heap (acknowledgement = quorum
//     replication); internal/coord/storage puts it on disk, giving
//     ZooKeeper's §IV-I guarantee that the service "can tolerate the
//     failure of all servers".
//
// # Observers
//
// An observer (Config.Observer) is a Node that does not vote. It joins
// the leader (learner.go), which streams it the log exactly as it does
// a follower, and it runs the follower code unchanged: windows, the
// verified-match cap, sync pulls, the apply loop, and a proposal refused
// with the leader's contact. The differences are all in who counts: the
// leader keeps observer streams apart from the voters', so their acks
// commit nothing and fund no lease, and an observer neither campaigns
// nor grants a vote.
package zab

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord/zab/core"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// StateMachine is the replicated application state. Apply must be
// deterministic: given the same transaction stream in the same order,
// every replica must produce the same state. Application-level
// failures (e.g. "node exists") are encoded inside the result bytes,
// not returned as errors, so they replicate deterministically too.
type StateMachine interface {
	// Apply executes a committed transaction. Called in strict zxid
	// order, never concurrently.
	Apply(txn []byte, zxid uint64) []byte
	// Snapshot serializes the full state at the current applied point.
	Snapshot() []byte
	// Restore replaces the state with a snapshot taken at snapZxid.
	Restore(snap []byte, snapZxid uint64) error
}

// BatchStateMachine is a StateMachine extension: a state
// machine that can apply a whole group-commit frame in one call —
// transaction i of txns carries zxid firstZxid+i — returning one
// result per transaction. Implementations can amortize per-apply
// overhead (locking, notification batching) across the frame; the
// semantics must be identical to N ordered Apply calls. The returned
// container is only valid until the next ApplyBatch call — callers
// consume the results before applying another frame, which lets
// implementations reuse one scratch slice across frames.
type BatchStateMachine interface {
	StateMachine
	ApplyBatch(txns [][]byte, firstZxid uint64) [][]byte
}

// StreamingStateMachine is a StateMachine extension: a state machine
// whose snapshots move as streams, so snapshotting never materializes
// the full serialized state in memory. Paired with a StreamStorage it
// gives the node O(chunk) snapshot memory end to end; the blob methods
// must stay byte-compatible with the streamed form.
type StreamingStateMachine interface {
	StateMachine
	// SnapshotTo serializes the full state at the current applied point
	// to w. It must write the same bytes Snapshot would return.
	SnapshotTo(w io.Writer) error
	// RestoreFrom replaces the state with the snapshot streamed from r,
	// taken at snapZxid. It must consume r to EOF (that is where a
	// validating stream reports corruption) and must leave the state
	// untouched on error.
	RestoreFrom(r io.Reader, snapZxid uint64) error
}

// machine is the state-machine contract the node body runs against: batch apply plus both snapshot forms. liftMachine
// resolves it once, at construction.
type machine interface {
	BatchStateMachine
	StreamingStateMachine
}

// liftMachine returns sm itself when it already applies batches and
// streams snapshots, and otherwise derives those from the three plain
// methods.
func liftMachine(sm StateMachine) machine {
	if m, ok := sm.(machine); ok {
		return m
	}
	return plainMachine{sm}
}

// plainMachine gives a three-method StateMachine the batch and stream
// forms: N ordered Apply calls, and snapshots buffered whole.
type plainMachine struct{ StateMachine }

func (p plainMachine) ApplyBatch(txns [][]byte, firstZxid uint64) [][]byte {
	results := make([][]byte, len(txns))
	for i, txn := range txns {
		results[i] = p.Apply(txn, firstZxid+uint64(i))
	}
	return results
}

func (p plainMachine) SnapshotTo(w io.Writer) error {
	_, err := w.Write(p.Snapshot())
	return err
}

func (p plainMachine) RestoreFrom(r io.Reader, snapZxid uint64) error {
	snap, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return p.Restore(snap, snapZxid)
}

// Config describes one ensemble member.
type Config struct {
	// ID is this server's identity; it must be a key of Peers.
	ID uint64
	// Peers maps every voting member's ID to its transport address,
	// including this server. An observer lists the voters plus itself;
	// no voter lists an observer.
	Peers map[uint64]string
	// Observer makes this member a non-voting replica: it joins the
	// leader for a log stream and serves its state like a follower, but
	// never campaigns, never grants a vote and is counted in no quorum.
	Observer bool
	// Net is the transport to use (TCP or in-process).
	Net transport.Network
	// Contact is where clients reach this member (its client address).
	// While it leads, every heartbeat carries it, so any other member can
	// name the leader to a client it refuses (LeaderContact).
	Contact string

	// HeartbeatInterval is the leader's heartbeat period.
	// Defaults to 15ms.
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base follower patience before starting an
	// election; the effective timeout is randomized in [1x, 2x), except
	// before a voter's first campaign: 1x plus one HeartbeatInterval per
	// voter with a higher ID, counted from its start (core.New).
	// Defaults to 10 * HeartbeatInterval.
	ElectionTimeout time.Duration
	// MaxLogEntries bounds the in-memory log; once exceeded, applied
	// entries are folded into a state-machine snapshot.
	// Defaults to 8192.
	MaxLogEntries int
	// MaxBatchTxns bounds how many transactions the proposer coalesces
	// into one group-commit frame. 1 disables batching (every
	// transaction is its own frame). Defaults to 128.
	MaxBatchTxns int
	// MaxInflightFrames bounds how many proposed-but-uncommitted
	// frames the leader keeps in flight (the pipelining window). 1
	// reduces the pipeline to the lockstep propose→commit cycle.
	// Defaults to 16.
	MaxInflightFrames int
	// MaxClockSkew bounds the clock drift assumed between ensemble
	// members for the leader read lease: a quorum of heartbeat acks
	// gathered at time T lets the leader serve lease reads until
	// T + ElectionTimeout - MaxClockSkew on its own clock. Defaults to
	// ElectionTimeout / 10. A bound at or above ElectionTimeout
	// disables the lease (the deadline never lies in the future): every
	// ReadBarrier then waits for a heartbeat round instead.
	MaxClockSkew time.Duration
	// Clock overrides the time source consulted by the read lease, the
	// election timer and the quorum-loss watchdog (tests inject skewed
	// or frozen clocks here).
	// Defaults to time.Now.
	Clock func() time.Time
	// Metrics, when non-nil, receives the leader's proposer gauges
	// ("zab.proposer.queue_depth", "zab.proposer.inflight_frames"),
	// the batch-size distribution ("zab.proposer.batch_txns"), the
	// observer gauges ("zab.observer.{count,lag_txns,lag_ms}": on the
	// leader, its observer streams' count and worst lag; on an observer,
	// lag_txns is its own distance from the leader's commit horizon) and
	// the "zab.snapshot_installs" counter of snapshots pulled from a
	// leader.
	Metrics *metrics.Registry
	// Storage is where the node keeps its log, votes and snapshots, and
	// what NewNode recovers from. Nil means a fresh MemStorage.
	Storage StreamStorage
}

// Errors returned by Propose.
var (
	ErrStopped  = errors.New("zab: node stopped")
	ErrNoLeader = errors.New("zab: no leader known")
	ErrNoQuorum = errors.New("zab: failed to reach quorum")
)

// Node is one member of the replicated ensemble.
type Node struct {
	cfg Config
	sm  machine
	st  StreamStorage

	mu          sync.Mutex
	el          core.Election // role, epoch, vote, leader, timers (election.go)
	log         []Frame
	snapZxid    uint64 // zxid covered by the latest state snapshot
	commitZxid  uint64
	lastApplied uint64
	// applied mirrors lastApplied (setAppliedLocked is its only writer) for
	// readers that must not queue on mu: every stamped client read loads it.
	applied atomic.Uint64
	nextSeq uint32 // per-epoch proposal counter (leader only)
	syncing bool
	stopped bool
	// waiting reports waiters the node cannot see itself (SetWaiting).
	waiting func() bool

	// Leader-side group-commit state. leaderGen increments on every
	// leadership transition; the proposer and sender goroutines carry
	// the generation they were started under and exit when it moves.
	//
	// Each leader goroutine sleeps on a condition of its own — the
	// proposer on propCond, the sync loop on syncCond, each stream's
	// sender on followerStream.cond — and a state change signals only
	// the waiters whose predicate it can change (DESIGN §9.5).
	// propGate records what the waiting proposer waits for.
	leaderGen uint64
	propQ     []*pendingTxn
	propCond  *sync.Cond
	propGate  proposerGate
	syncCond  *sync.Cond
	// batchScratch is drainBatchLocked's reusable output buffer,
	// consumed within one proposer iteration under mu.
	batchScratch []*pendingTxn
	// appendScratch carries the proposer's one new frame to
	// Storage.Append (which must not retain the slice), under mu.
	appendScratch [1]Frame
	waiters       map[uint64]*pendingTxn     // txn zxid -> waiter (leader only)
	streams       map[uint64]*followerStream // peer -> its log stream (leader only)
	tipsScratch   []uint64                   // quorum-sort scratch, under mu

	// Follower-side commit discipline: verified is the highest zxid up
	// to which this log is known to equal the log of the current epoch's
	// leader, leaderCommit the highest commit horizon heard in this
	// epoch; a follower commits min(leaderCommit, verified), never its
	// bare tip (followCommitLocked). An epoch change resets both.
	verified     uint64
	leaderCommit uint64
	// tipMoved, when non-nil, is closed the next time the log tip
	// advances — what a parked early window waits on.
	tipMoved chan struct{}
	// gapBeats counts the heartbeats since the log tip last moved whose
	// commit horizon lay past it (handleHeartbeat).
	gapBeats int

	// The Contact the last heartbeat carried: that of heardID, the leader
	// of heardEpoch (LeaderContact).
	heardEpoch, heardID uint64
	heardContact        string

	// applyWaiters are the WaitApplied calls waiting for the local state
	// machine to reach a zxid; each registered channel is closed exactly
	// once when lastApplied passes its key.
	applyWaiters map[uint64][]chan struct{}

	// Commit→apply pipeline state. The log is the apply queue: committed
	// frames past lastApplied (committedLocked) are applied outside mu by
	// whoever holds applyMu and drains them: on a leader, the goroutine
	// that advanced the commit horizon; otherwise the applyLoop
	// goroutine.
	//
	// applyMu is the state-machine transition lock: it serializes
	// apply drains against snapshot installs (syncFromLeader) and the
	// snapshot cut (cutSnapshot). The global lock order is applyMu
	// BEFORE mu — never block on applyMu while holding mu. Frames are
	// taken for apply only under applyMu, so while applyMu is held
	// lastApplied can only be advanced by the holder.
	applyMu     sync.Mutex
	applyCond   *sync.Cond // signalled when committed frames wait and no drain will take them, or on stop
	applying    bool       // an applier holds applyMu and drains until nothing committed is unapplied
	applyMerged [][]byte   // cross-frame coalescing scratch; under applyMu

	// Durable-storage state: the coverage of the newest durable
	// snapshot — in-memory truncation may not outrun it,
	// because recovery is that snapshot plus the log tail — and the
	// kick channel for the background fuzzy snapshotter.
	durableSnapZxid uint64
	snapReq         chan struct{}
	snapInFlight    bool

	// Leader reads (lease.go): the start of the last heartbeat round a
	// quorum acked (zero: none), and what a parked ReadBarrier waits on.
	now        func() time.Time
	leaseRound time.Time
	readWake   chan struct{}
	// commitWake, when non-nil, is closed the next time the leader's
	// commit horizon moves or its leadership ends: what a parked horizon
	// request waits on (answerAsk).
	commitWake chan struct{}
	// electWake, when non-nil, is closed the next time the node becomes
	// leader: what Elected hands out.
	electWake chan struct{}

	// learners are the leader's streams to the observers that joined it
	// (nil while there are none): served like n.streams, read for lag,
	// and left out of every quorum count.
	learners map[uint64]*followerStream

	gQueue        *metrics.Gauge
	gInflight     *metrics.Gauge
	dBatch        *metrics.Distribution
	gObsCount     *metrics.Gauge
	gObsLagTxns   *metrics.Gauge
	gObsLagMS     *metrics.Gauge
	gApplyLag     *metrics.Gauge
	gApplyQueue   *metrics.Gauge
	cSnapInstalls *metrics.Counter

	connMu       sync.Mutex
	conns        map[uint64]transport.Conn
	learnerAddrs map[uint64]string // where the joined observers listen
	calls        map[peerCall]bool // in flight through callLocked, under mu

	listener io.Closer
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewNode validates the configuration and builds a node. Call Start to
// join the ensemble.
func NewNode(cfg Config, sm StateMachine) (*Node, error) {
	if cfg.Net == nil {
		return nil, errors.New("zab: Config.Net is required")
	}
	if _, ok := cfg.Peers[cfg.ID]; !ok {
		return nil, fmt.Errorf("zab: node ID %d not present in peer map", cfg.ID)
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 15 * time.Millisecond
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 10 * cfg.HeartbeatInterval
	}
	if cfg.MaxLogEntries <= 0 {
		cfg.MaxLogEntries = 8192
	}
	if cfg.MaxBatchTxns <= 0 {
		cfg.MaxBatchTxns = 128
	}
	if cfg.MaxInflightFrames <= 0 {
		cfg.MaxInflightFrames = 16
	}
	if cfg.MaxClockSkew <= 0 {
		cfg.MaxClockSkew = cfg.ElectionTimeout / 10
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	n := &Node{
		cfg:          cfg,
		sm:           liftMachine(sm),
		st:           cfg.Storage,
		conns:        make(map[uint64]transport.Conn),
		calls:        make(map[peerCall]bool),
		stopCh:       make(chan struct{}),
		waiters:      make(map[uint64]*pendingTxn),
		applyWaiters: make(map[uint64][]chan struct{}),
		now:          cfg.Clock,
		learnerAddrs: make(map[uint64]string),

		gQueue:        cfg.Metrics.Gauge("zab.proposer.queue_depth"),
		gInflight:     cfg.Metrics.Gauge("zab.proposer.inflight_frames"),
		dBatch:        cfg.Metrics.Distribution("zab.proposer.batch_txns"),
		gObsCount:     cfg.Metrics.Gauge("zab.observer.count"),
		gObsLagTxns:   cfg.Metrics.Gauge("zab.observer.lag_txns"),
		gObsLagMS:     cfg.Metrics.Gauge("zab.observer.lag_ms"),
		gApplyLag:     cfg.Metrics.Gauge("zab.apply.lag"),
		gApplyQueue:   cfg.Metrics.Gauge("zab.apply.queue_depth"),
		cSnapInstalls: cfg.Metrics.Counter("zab.snapshot_installs"),
	}
	if n.st == nil {
		n.st = new(MemStorage)
	}
	n.propCond = sync.NewCond(&n.mu)
	n.syncCond = sync.NewCond(&n.mu)
	n.applyCond = sync.NewCond(&n.mu)
	n.snapReq = make(chan struct{}, 1)
	if err := n.recoverFromStorage(); err != nil {
		return nil, err
	}
	epoch, granted := n.st.HardState()
	n.el = core.New(core.Config{ID: cfg.ID, Voters: cfg.Peers, Observer: cfg.Observer, HeartbeatInterval: cfg.HeartbeatInterval,
		ElectionTimeout: cfg.ElectionTimeout}, epoch, granted, n.lastZxidLocked(), n.now())
	return n, nil
}

func makeZxid(epoch uint64, seq uint32) uint64 { return epoch<<32 | uint64(seq) }
func epochOf(zxid uint64) uint64               { return zxid >> 32 }

// Start begins listening for peer traffic and starts the tick, apply
// and snapshot loops.
func (n *Node) Start() error {
	ln, err := n.cfg.Net.Listen(n.cfg.Peers[n.cfg.ID], transport.HandlerFunc(n.handle))
	if err != nil {
		return fmt.Errorf("zab: node %d: %w", n.cfg.ID, err)
	}
	n.listener = ln
	n.wg.Add(3)
	go n.tickLoop()
	go n.applyLoop()
	go n.snapshotLoop()
	return nil
}

// tickLoop is the node's one clock: as it starts and every
// HeartbeatInterval/2 after, it hands the election core a tick
// (campaigns, rounds, joins, the watchdog), so a campaign already due at
// the start — a fresh ensemble's highest voter — goes out at once.
func (n *Node) tickLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatInterval / 2)
	defer ticker.Stop()
	for {
		n.mu.Lock()
		if n.cfg.Observer {
			n.gObsLagTxns.Set(int64(n.leaderCommit - min(n.leaderCommit, n.lastApplied)))
		}
		n.stepLocked(func() core.Ready { return n.el.Tick(n.now(), n.lastZxidLocked(), n.commitZxid) })
		n.mu.Unlock()
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
		}
	}
}

// Stop shuts the node down and waits for its goroutines.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.resignLocked(ErrStopped) // a stopped node must not report leadership
	n.applyCond.Broadcast()
	n.mu.Unlock()
	close(n.stopCh)
	if n.listener != nil {
		n.listener.Close()
	}
	n.connMu.Lock()
	for _, c := range n.conns {
		c.Close()
	}
	n.conns = nil // a dial still in flight closes what it opens (getConn)
	n.connMu.Unlock()
	n.wg.Wait()
}

// SetWaiting hands the node a report of waiters it cannot see itself —
// coord's armed watches. While it returns true, the node waits for every
// frame it has verified, as a parked WaitApplied call would (askLocked).
// Call it before Start, and call WaiterArrived each time the report
// turns true.
func (n *Node) SetWaiting(waiting func() bool) { n.waiting = waiting }

// WaiterArrived tells the node that the report handed to SetWaiting has
// turned true: a waiter now waits for the frames it holds verified, and
// the node asks the leader for their commit.
func (n *Node) WaiterArrived() {
	n.mu.Lock()
	n.askLocked(true)
	n.mu.Unlock()
}

// ID returns the node's ensemble identity.
func (n *Node) ID() uint64 { return n.cfg.ID }

// IsLeader reports whether this node currently leads the ensemble.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.el.Role() == core.Leader
}

// Elected returns a channel closed once the node leads: at once if it
// leads now, else when it is next elected.
func (n *Node) Elected() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.electWake == nil {
		n.electWake = make(chan struct{})
	}
	ch := n.electWake
	if n.el.Role() == core.Leader {
		n.wakeElectedLocked()
	}
	return ch
}

func (n *Node) wakeElectedLocked() {
	if n.electWake != nil {
		close(n.electWake)
		n.electWake = nil
	}
}

// LeaderID returns the known leader's ID, or 0.
func (n *Node) LeaderID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.el.Leader()
}

// LeaderContact returns where clients reach the leader: this node's own
// Config.Contact while it leads, the Contact the current epoch's leader
// sent on its heartbeat while it follows (it lapses wherever the leader or
// the epoch changes), and "" when neither is known.
func (n *Node) LeaderContact() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch leader := n.el.Leader(); {
	case leader == n.cfg.ID:
		return n.cfg.Contact
	case leader != 0 && n.heardID == leader && n.heardEpoch == n.el.Epoch():
		return n.heardContact
	}
	return ""
}

// Epoch returns the node's current epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.el.Epoch()
}

// LastZxid returns the zxid of the last log entry (or snapshot).
func (n *Node) LastZxid() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastZxidLocked()
}

// CommitZxid returns the highest committed zxid.
func (n *Node) CommitZxid() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitZxid
}

// LastApplied returns the zxid of the last locally applied transaction.
// It takes no lock: the state machine a caller reads afterwards holds at
// least the history up to the returned zxid.
func (n *Node) LastApplied() uint64 { return n.applied.Load() }

// setAppliedLocked moves the applied point, after the state machine has
// taken the transition it names.
func (n *Node) setAppliedLocked(zxid uint64) {
	n.lastApplied = zxid
	n.applied.Store(zxid)
}

// DebugString reports the node's replication state for diagnostics.
func (n *Node) DebugString() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	role := [...]string{core.Follower: "follower", core.Candidate: "candidate", core.Leader: "leader"}[n.el.Role()]
	contact, due := n.el.Timer()
	return fmt.Sprintf("id=%d role=%s epoch=%d granted=%d leader=%d last=%x commit=%x applied=%x log=%d queue=%d inflight=%d syncing=%v stopped=%v sinceContact=%s due=%s stalled=%v",
		n.cfg.ID, role, n.el.Epoch(), n.el.Granted(), n.el.Leader(),
		n.lastZxidLocked(), n.commitZxid, n.lastApplied, len(n.log),
		len(n.propQ), n.uncommittedFramesLocked(),
		n.syncing, n.stopped, n.now().Sub(contact).Round(time.Millisecond), due, !n.el.Stall(n.commitZxid).IsZero())
}

func (n *Node) lastZxidLocked() uint64 {
	if len(n.log) == 0 {
		return n.snapZxid
	}
	return n.log[len(n.log)-1].Last()
}

func (n *Node) quorum() int { return len(n.cfg.Peers)/2 + 1 }

// --- connections ------------------------------------------------------

func (n *Node) getConn(id uint64) (transport.Conn, error) {
	n.connMu.Lock()
	c, cached := n.conns[id]
	addr, ok := n.cfg.Peers[id]
	if !ok {
		addr, ok = n.learnerAddrs[id]
	}
	n.connMu.Unlock()
	if cached {
		return c, nil
	}
	if !ok {
		return nil, fmt.Errorf("zab: unknown peer %d", id)
	}
	// Dial outside connMu: against a dead host it takes seconds, and
	// connMu is taken under the node mutex (handleJoin, dropLearnerLocked).
	c, err := n.cfg.Net.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if won, ok := n.conns[id]; ok || n.conns == nil {
		c.Close() // a concurrent dial got there first, or the node stopped
		if !ok {
			return nil, ErrStopped
		}
		return won, nil
	}
	n.conns[id] = c
	return c, nil
}

func (n *Node) dropConn(id uint64) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if c, ok := n.conns[id]; ok {
		c.Close()
		delete(n.conns, id)
	}
}

// callPeer performs one RPC to a peer, invalidating the cached
// connection on failure so the next call redials.
func (n *Node) callPeer(id uint64, req []byte) ([]byte, error) {
	c, err := n.getConn(id)
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(req)
	if err != nil {
		n.dropConn(id)
		return nil, err
	}
	return resp, nil
}

// peerCall names the one call of a kind that may be in flight to a peer.
type peerCall struct {
	id   uint64
	kind uint8 // the request's message kind
}

// callLocked sends req to peer id on a goroutine of its own (Stop ends it
// by closing the connection) and hands done the reply or error under n.mu
// unless the node stopped. While a call of the same kind to that peer is
// in flight it sends nothing: a silent peer holds one goroutine, not one
// per round.
func (n *Node) callLocked(id uint64, req []byte, done func([]byte, error)) {
	key := peerCall{id, req[0]}
	if n.calls[key] {
		return
	}
	n.calls[key] = true
	go func() {
		resp, err := n.callPeer(id, req)
		n.mu.Lock()
		defer n.mu.Unlock()
		delete(n.calls, key)
		if !n.stopped {
			done(resp, err)
		}
	}()
}

// callPeerAsync submits one RPC to a peer without waiting for the
// reply; the caller drops the connection if the result is an error.
func (n *Node) callPeerAsync(id uint64, req []byte) <-chan transport.CallResult {
	c, err := n.getConn(id)
	if err != nil {
		done := make(chan transport.CallResult, 1)
		done <- transport.CallResult{Err: err}
		return done
	}
	return transport.CallAsync(c, req)
}

// --- request dispatch -------------------------------------------------

// handle decodes one peer request and answers it; a request that does
// not decode is answered with the decoder's error.
func (n *Node) handle(req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	switch kind := r.Uint8(); {
	case r.Err() != nil:
	case kind == msgPropose:
		if m := decodeProposeReq(r); r.Err() == nil {
			return n.handlePropose(m).encode(), nil
		}
	case kind == msgHeartbeat:
		if m := decodeHeartbeatReq(r); r.Err() == nil {
			return n.handleHeartbeat(m).encode(), nil
		}
	case kind == msgRequestVote:
		if m := (requestVoteReq{Epoch: r.Uint64(), CandidateID: r.Uint64(), LastZxid: r.Uint64()}); r.Err() == nil {
			return n.handleRequestVote(m).encode(), nil
		}
	case kind == msgSync:
		if m := decodeSyncReq(r); r.Err() == nil {
			resp, err := n.handleSync(m)
			if err != nil {
				return nil, err
			}
			return resp.encode(), nil
		}
	case kind == msgJoin:
		if m := (joinReq{ID: r.Uint64(), Addr: r.String()}); r.Err() == nil {
			return n.handleJoin(m)
		}
	default:
		return nil, fmt.Errorf("zab: unknown message kind %d", kind)
	}
	return nil, r.Err()
}

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
//   - One sender goroutine per follower streams frames with a
//     cumulative-ack protocol: each round trip carries every frame
//     that queued up behind the previous one, so the leader keeps
//     proposing (up to MaxInflightFrames uncommitted frames) while
//     earlier acks are still in flight.
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
package zab

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

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

// machine is the state-machine contract the node and observer bodies
// run against: batch apply plus both snapshot forms. liftMachine
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
	// Peers maps every ensemble member ID to its transport address,
	// including this server.
	Peers map[uint64]string
	// Net is the transport to use (TCP or in-process).
	Net transport.Network

	// HeartbeatInterval is the leader's heartbeat period.
	// Defaults to 15ms.
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base follower patience before starting an
	// election; the effective timeout is randomized in [1x, 2x).
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
	// disables lease reads entirely (the deadline never lies in the
	// future).
	MaxClockSkew time.Duration
	// Clock overrides the time source consulted by the read lease and
	// the election timer (tests inject skewed or frozen clocks here).
	// Defaults to time.Now.
	Clock func() time.Time
	// Metrics, when non-nil, receives the leader's proposer gauges
	// ("zab.proposer.queue_depth", "zab.proposer.inflight_frames"),
	// the batch-size distribution ("zab.proposer.batch_txns") and the
	// observer-feed gauges ("zab.observer.{count,lag_txns,lag_ms}").
	Metrics *metrics.Registry
	// Storage is where the node keeps its log, votes and snapshots, and
	// what NewNode recovers from. Nil means a fresh MemStorage.
	Storage Storage
}

// Roles of an ensemble member.
const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

// Errors returned by Propose.
var (
	ErrStopped  = errors.New("zab: node stopped")
	ErrNoLeader = errors.New("zab: no leader known")
	ErrNoQuorum = errors.New("zab: failed to reach quorum")
)

// proposeTimeout bounds how long a proposal waits for commit+apply.
const proposeTimeout = 10 * time.Second

// proposeTimers recycles the commit-wait timers: every write on the
// hot path arms one, and a fresh time.NewTimer costs three allocations.
// Go 1.23+ timer semantics (unbuffered channel, Reset discards pending
// fires) make Reset-after-Stop safe without the old drain dance.
var proposeTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

func getProposeTimer() *time.Timer {
	t := proposeTimers.Get().(*time.Timer)
	t.Reset(proposeTimeout)
	return t
}

func putProposeTimer(t *time.Timer) {
	t.Stop()
	proposeTimers.Put(t)
}

// maxBatchBytes bounds a frame's total transaction payload.
const maxBatchBytes = 1 << 20

// maxApplyQueueFrames bounds the commit→apply queue: how many committed
// frames may sit between the commit horizon and the apply loop before
// the leader's proposer stops admitting new frames (backpressure, so a
// slow state machine cannot grow the log without bound). Followers cap
// their queue at the same bound and pull the remainder as the apply
// loop drains.
const maxApplyQueueFrames = 256

// maxFramesPerSend bounds how many frames one sender RPC carries; a
// follower further behind than this catches up over several round
// trips (or via the sync protocol once its position leaves the log).
const maxFramesPerSend = 64

// pendingTxn is one queued proposal waiting for its frame to commit.
type pendingTxn struct {
	txn  []byte
	noop bool
	ch   chan proposeOutcome // buffered(1); exactly one send ever happens
}

type proposeOutcome struct {
	zxid   uint64
	result []byte
	err    error
}

// Node is one member of the replicated ensemble.
type Node struct {
	cfg Config
	sm  machine
	st  StreamStorage
	rng *rand.Rand

	mu           sync.Mutex
	role         int
	epoch        uint64
	grantedEpoch uint64 // highest epoch we granted a vote for
	leaderID     uint64 // 0 when unknown
	log          []Frame
	snapZxid     uint64 // zxid covered by the latest state snapshot
	commitZxid   uint64
	lastApplied  uint64
	nextSeq      uint32 // per-epoch proposal counter (leader only)
	lastContact  time.Time
	electionDue  time.Duration
	syncing      bool
	stopped      bool

	// Leader-side group-commit state. leaderGen increments on every
	// leadership transition; the proposer and sender goroutines carry
	// the generation they were started under and exit when it moves.
	leaderGen uint64
	propQ     []*pendingTxn
	// batchScratch is drainBatchLocked's reusable output buffer,
	// consumed within one proposer iteration under mu.
	batchScratch []*pendingTxn
	// appendScratch carries the proposer's one new frame to
	// Storage.Append (which must not retain the slice), under mu.
	appendScratch [1]Frame
	waiters       map[uint64]*pendingTxn // txn zxid -> waiter (leader only)
	match         map[uint64]uint64      // peer -> cumulative acked zxid
	stallSince    time.Time              // commit horizon stuck since
	leaderCond    *sync.Cond             // work/window/role changes
	tipsScratch   []uint64               // quorum-sort scratch, under mu

	// applyWaiters are follower-side (and forwarded-write) waits for
	// the local state machine to reach a zxid; each registered channel
	// is closed exactly once when lastApplied passes its key.
	applyWaiters map[uint64][]chan struct{}

	// Commit→apply pipeline state. Committed frames are enqueued on
	// applyQ (bounded by maxApplyQueueFrames) and drained by the
	// applyLoop goroutine, which runs the state machine outside mu.
	//
	// applyMu is the state-machine transition lock: it serializes
	// applyLoop batches against snapshot installs (syncFromLeader),
	// snapshot serialization (snapshotLoop, handleSync,
	// handleObserverPoll). The global lock order is applyMu BEFORE mu —
	// never acquire applyMu while holding mu. While applyMu is held,
	// lastApplied can only be advanced by the holder.
	applyMu       sync.Mutex
	applyQ        []Frame
	applyCond     *sync.Cond // signalled when applyQ gains work or on stop
	applyEnqueued uint64     // highest zxid moved from log to applyQ
	applyLagTxns  int        // committed txns not yet applied (gauge feed)
	applyGen      uint64     // bumped on snapshot install; applyLoop discards stale drains

	// Durable-storage state: the coverage of the newest durable
	// snapshot — in-memory truncation may not outrun it,
	// because recovery is that snapshot plus the log tail — and the
	// kick channel for the background fuzzy snapshotter.
	durableSnapZxid uint64
	snapReq         chan struct{}
	snapInFlight    bool

	// Read-lease state: the instant (on this node's clock) until which
	// a quorum of heartbeat acks guarantees no rival leader can have
	// committed a write, and the leader-side observer feed — the
	// non-voting replicas tailing this node's committed log, tracked
	// for lag but excluded from every quorum computation.
	now        func() time.Time
	leaseUntil time.Time
	observers  map[uint64]*observerFeed

	gQueue      *metrics.Gauge
	gInflight   *metrics.Gauge
	dBatch      *metrics.Distribution
	gObsCount   *metrics.Gauge
	gObsLagTxns *metrics.Gauge
	gObsLagMS   *metrics.Gauge
	gApplyLag   *metrics.Gauge
	gApplyQueue *metrics.Gauge

	connMu sync.Mutex
	conns  map[uint64]transport.Conn

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
		st:           liftStorage(cfg.Storage),
		rng:          rand.New(rand.NewSource(int64(cfg.ID))),
		conns:        make(map[uint64]transport.Conn),
		stopCh:       make(chan struct{}),
		waiters:      make(map[uint64]*pendingTxn),
		match:        make(map[uint64]uint64),
		applyWaiters: make(map[uint64][]chan struct{}),
		now:          cfg.Clock,
		observers:    make(map[uint64]*observerFeed),
		gQueue:       cfg.Metrics.Gauge("zab.proposer.queue_depth"),
		gInflight:    cfg.Metrics.Gauge("zab.proposer.inflight_frames"),
		dBatch:       cfg.Metrics.Distribution("zab.proposer.batch_txns"),
		gObsCount:    cfg.Metrics.Gauge("zab.observer.count"),
		gObsLagTxns:  cfg.Metrics.Gauge("zab.observer.lag_txns"),
		gObsLagMS:    cfg.Metrics.Gauge("zab.observer.lag_ms"),
		gApplyLag:    cfg.Metrics.Gauge("zab.apply.lag"),
		gApplyQueue:  cfg.Metrics.Gauge("zab.apply.queue_depth"),
	}
	n.leaderCond = sync.NewCond(&n.mu)
	n.applyCond = sync.NewCond(&n.mu)
	n.snapReq = make(chan struct{}, 1)
	if err := n.recoverFromStorage(); err != nil {
		return nil, err
	}
	n.applyEnqueued = n.lastApplied
	n.resetElectionTimer()
	return n, nil
}

// recoverFromStorage primes the node from its store: persisted vote,
// newest snapshot (streamed straight into the state machine), log tail.
func (n *Node) recoverFromStorage() error {
	n.epoch, n.grantedEpoch = n.st.HardState()
	if rc, z, ok := n.st.SnapshotStream(); ok {
		err := n.sm.RestoreFrom(rc, z)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("zab: restoring durable snapshot: %w", err)
		}
		n.snapZxid = z
		n.commitZxid = z
		n.lastApplied = z
		n.durableSnapZxid = z
	}
	// The recovered tail sits uncommitted until a quorum re-forms — an
	// elected leader's epoch barrier commits it transitively, exactly as
	// an inherited in-memory tail would.
	n.log = n.st.Frames()
	if e := epochOf(n.lastZxidLocked()); e > n.epoch {
		n.epoch = e
	}
	return nil
}

func makeZxid(epoch uint64, seq uint32) uint64 { return epoch<<32 | uint64(seq) }
func epochOf(zxid uint64) uint64               { return zxid >> 32 }

// Start begins listening for peer traffic and starts the election and
// heartbeat loops.
func (n *Node) Start() error {
	ln, err := n.cfg.Net.Listen(n.cfg.Peers[n.cfg.ID], transport.HandlerFunc(n.handle))
	if err != nil {
		return fmt.Errorf("zab: node %d: %w", n.cfg.ID, err)
	}
	n.listener = ln
	n.wg.Add(4)
	go n.electionLoop()
	go n.heartbeatLoop()
	go n.applyLoop()
	go n.snapshotLoop()
	return nil
}

// Stop shuts the node down and waits for its goroutines.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	if n.role == roleLeader {
		n.failLeaderLocked(ErrStopped)
	}
	n.role = roleFollower // a stopped node must not report leadership
	n.leaderID = 0
	n.leaderCond.Broadcast()
	n.applyCond.Broadcast()
	n.mu.Unlock()
	close(n.stopCh)
	if n.listener != nil {
		n.listener.Close()
	}
	n.connMu.Lock()
	for id, c := range n.conns {
		c.Close()
		delete(n.conns, id)
	}
	n.connMu.Unlock()
	n.wg.Wait()
}

// ID returns the node's ensemble identity.
func (n *Node) ID() uint64 { return n.cfg.ID }

// IsLeader reports whether this node currently leads the ensemble.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == roleLeader
}

// LeaderID returns the known leader's ID, or 0.
func (n *Node) LeaderID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == roleLeader {
		return n.cfg.ID
	}
	return n.leaderID
}

// Epoch returns the node's current epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
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
func (n *Node) LastApplied() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastApplied
}

// DebugString reports the node's replication state for diagnostics.
func (n *Node) DebugString() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	role := "follower"
	switch n.role {
	case roleCandidate:
		role = "candidate"
	case roleLeader:
		role = "leader"
	}
	return fmt.Sprintf("id=%d role=%s epoch=%d granted=%d leader=%d last=%x commit=%x applied=%x log=%d queue=%d inflight=%d syncing=%v stopped=%v sinceContact=%s due=%s",
		n.cfg.ID, role, n.epoch, n.grantedEpoch, n.leaderID,
		n.lastZxidLocked(), n.commitZxid, n.lastApplied, len(n.log),
		len(n.propQ), n.uncommittedFramesLocked(),
		n.syncing, n.stopped, time.Since(n.lastContact).Round(time.Millisecond), n.electionDue)
}

func (n *Node) lastZxidLocked() uint64 {
	if len(n.log) == 0 {
		return n.snapZxid
	}
	return n.log[len(n.log)-1].Last()
}

func (n *Node) quorum() int { return len(n.cfg.Peers)/2 + 1 }

func (n *Node) resetElectionTimer() {
	n.lastContact = n.now()
	n.electionDue = n.cfg.ElectionTimeout +
		time.Duration(n.rng.Int63n(int64(n.cfg.ElectionTimeout)))
}

// --- connections ------------------------------------------------------

func (n *Node) getConn(id uint64) (transport.Conn, error) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if c, ok := n.conns[id]; ok {
		return c, nil
	}
	addr, ok := n.cfg.Peers[id]
	if !ok {
		return nil, fmt.Errorf("zab: unknown peer %d", id)
	}
	c, err := n.cfg.Net.Dial(addr)
	if err != nil {
		return nil, err
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

// --- request dispatch -------------------------------------------------

func (n *Node) handle(req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	kind := r.Uint8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	switch kind {
	case msgPropose:
		m := decodeProposeReq(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		return n.handlePropose(m).encode(), nil
	case msgCommit:
		epoch, zxid := r.Uint64(), r.Uint64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		n.handleCommit(epoch, zxid)
		return nil, nil
	case msgHeartbeat:
		m := heartbeatReq{Epoch: r.Uint64(), LeaderID: r.Uint64(), Commit: r.Uint64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return n.handleHeartbeat(m).encode(), nil
	case msgRequestVote:
		m := requestVoteReq{Epoch: r.Uint64(), CandidateID: r.Uint64(), LastZxid: r.Uint64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return n.handleRequestVote(m).encode(), nil
	case msgSync:
		m := syncReq{FromZxid: r.Uint64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		resp, err := n.handleSync(m)
		if err != nil {
			return nil, err
		}
		return resp.encode(), nil
	case msgForward:
		txn := r.BytesCopy32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		result, zxid, err := n.propose(txn)
		if err != nil {
			return nil, err
		}
		return forwardResp{Zxid: zxid, Result: result}.encode(), nil
	case msgObserverPoll:
		m := observerPollReq{ObserverID: r.Uint64(), FromZxid: r.Uint64(), AppliedZxid: r.Uint64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return n.handleObserverPoll(m).encode(), nil
	default:
		return nil, fmt.Errorf("zab: unknown message kind %d", kind)
	}
}

// --- follower side ----------------------------------------------------

// adoptEpochLocked moves the node to follower state for a newer epoch.
func (n *Node) adoptEpochLocked(epoch, leaderID uint64) {
	if epoch > n.epoch {
		n.epoch = epoch
	}
	if n.role == roleLeader {
		n.failLeaderLocked(ErrNoLeader)
	}
	n.role = roleFollower
	if leaderID != 0 {
		n.leaderID = leaderID
	}
	n.resetElectionTimer()
}

// handlePropose processes one propose window: a run of consecutive
// frames attaching at PrevZxid. Frames the follower already holds are
// skipped (retransmits after a partial round trip); the first novel
// frame must attach exactly at the log tip, otherwise the follower
// asks to sync. The ack carries the follower's tip as a CUMULATIVE
// acknowledgement: equal zxids imply equal logs (one leader per epoch,
// one entry per zxid), so the leader may trust it as this follower's
// replicated horizon. The ack is also a durability promise, so the
// whole window is synced — one sync per window, amortizing every frame
// and transaction it carried — before the ack is returned; the sync
// happens outside the node mutex so applies and reads proceed
// meanwhile.
func (n *Node) handlePropose(m proposeReq) proposeResp {
	resp, appended := n.handleProposeLocked(m)
	if appended && resp.Ack {
		if err := n.st.Sync(); err != nil {
			// Not durable: withhold both the ack and the sync request —
			// a node whose disk is failing should fall out of the quorum,
			// not churn the leader.
			return proposeResp{Epoch: resp.Epoch, LastZxid: resp.LastZxid}
		}
	}
	return resp
}

func (n *Node) handleProposeLocked(m proposeReq) (proposeResp, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Epoch < n.epoch {
		return proposeResp{Epoch: n.epoch, LastZxid: n.lastZxidLocked()}, false
	}
	n.adoptEpochLocked(m.Epoch, m.LeaderID)
	prev := m.PrevZxid
	tip := n.lastZxidLocked()
	var novel []Frame
	for _, e := range m.Entries {
		if e.Last() <= tip {
			// Already held (an overlap from a retransmitted window).
			prev = e.Last()
			continue
		}
		if prev != tip {
			n.triggerSyncLocked()
			return proposeResp{NeedSync: true, Epoch: n.epoch, LastZxid: n.lastZxidLocked()}, false
		}
		novel = append(novel, e)
		tip = e.Last()
		prev = tip
	}
	if len(m.Entries) == 0 && prev != tip {
		// A probe from a leader that lost track of our position.
		n.triggerSyncLocked()
		return proposeResp{NeedSync: true, Epoch: n.epoch, LastZxid: tip}, false
	}
	if len(novel) > 0 {
		// Persist before extending the in-memory log, so the tip this
		// node exposes (acks, votes) never exceeds what a restart could
		// reconstruct once the trailing Sync lands.
		if err := n.st.Append(novel); err != nil {
			return proposeResp{Epoch: n.epoch, LastZxid: n.lastZxidLocked()}, false
		}
		n.log = append(n.log, novel...)
	}
	n.advanceCommitLocked(m.Commit)
	return proposeResp{Ack: true, Epoch: n.epoch, LastZxid: n.lastZxidLocked()}, len(novel) > 0
}

func (n *Node) handleCommit(epoch, zxid uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch < n.epoch {
		return
	}
	n.adoptEpochLocked(epoch, 0)
	n.advanceCommitLocked(zxid)
}

func (n *Node) handleHeartbeat(m heartbeatReq) heartbeatResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Epoch >= n.epoch {
		n.adoptEpochLocked(m.Epoch, m.LeaderID)
		n.advanceCommitLocked(m.Commit)
		if m.Commit > n.lastZxidLocked() {
			n.triggerSyncLocked()
		}
	}
	return heartbeatResp{Epoch: n.epoch, LastZxid: n.lastZxidLocked()}
}

func (n *Node) handleRequestVote(m requestVoteReq) requestVoteResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Epoch <= n.grantedEpoch || m.Epoch <= n.epoch {
		return requestVoteResp{Epoch: n.epoch}
	}
	if m.LastZxid < n.lastZxidLocked() {
		return requestVoteResp{Epoch: n.epoch}
	}
	// Leader stickiness: a follower whose election timer has not aged a
	// full ElectionTimeout refuses to elect a replacement leader
	// (without adopting the candidate's epoch — inflating our own epoch
	// here would depose the leader through our next heartbeat ack).
	// This is what makes the read lease sound: every member of a
	// winning vote quorum either went a full election timeout without
	// resetting its timer (so, by quorum intersection with the lease's
	// heartbeat-ack quorum, the old lease expired before the new leader
	// could commit anything) or was the old leader itself (which
	// revokes its lease in the same critical section that grants the
	// vote, below). The timer — not "heard a leader" — is the
	// condition on purpose: it also keeps a just-restarted voter, whose
	// pre-crash heartbeat ack may be funding a still-live lease, from
	// voting inside that window. Election liveness is unaffected: a
	// member only campaigns once its own timer passes the same bound,
	// by which point its electorate has aged past it too.
	if n.role == roleFollower && m.CandidateID != n.leaderID &&
		n.now().Sub(n.lastContact) < n.cfg.ElectionTimeout {
		return requestVoteResp{Epoch: n.epoch}
	}
	// The vote must be durable before it is granted: a node that
	// forgets a grant across a crash could vote twice in one epoch and
	// elect two leaders.
	if err := n.st.SaveHardState(m.Epoch, m.Epoch); err != nil {
		return requestVoteResp{Epoch: n.epoch}
	}
	n.grantedEpoch = m.Epoch
	n.epoch = m.Epoch
	if n.role == roleLeader {
		n.failLeaderLocked(ErrNoLeader)
	}
	n.role = roleFollower
	n.leaderID = 0 // unknown until the new leader heartbeats
	n.resetElectionTimer()
	return requestVoteResp{Granted: true, Epoch: n.epoch}
}

// advanceCommitLocked raises the commit horizon (bounded by what we
// actually hold) and hands newly committed entries to the apply loop.
func (n *Node) advanceCommitLocked(commit uint64) {
	if commit > n.lastZxidLocked() {
		commit = n.lastZxidLocked()
	}
	if commit <= n.commitZxid {
		return
	}
	n.commitZxid = commit
	n.stallSince = time.Time{}
	n.enqueueCommittedLocked()
	n.leaderCond.Broadcast() // the pipelining window may have opened
}

// enqueueCommittedLocked moves committed-but-unqueued frames from the
// log onto the apply queue, in zxid order, up to the queue bound. The
// bound is a pull window: when the queue is full the remainder stays
// in the log and the apply loop pulls it after draining (and the
// proposer stops admitting new frames until then).
func (n *Node) enqueueCommittedLocked() {
	if len(n.applyQ) >= maxApplyQueueFrames {
		return
	}
	i := sort.Search(len(n.log), func(i int) bool { return n.log[i].Zxid > n.applyEnqueued })
	for ; i < len(n.log) && len(n.applyQ) < maxApplyQueueFrames; i++ {
		e := n.log[i]
		if e.Last() > n.commitZxid {
			break
		}
		n.applyQ = append(n.applyQ, e)
		n.applyEnqueued = e.Last()
		if e.Noop {
			n.applyLagTxns++
		} else {
			n.applyLagTxns += len(e.Txns)
		}
	}
	n.gApplyQueue.Set(int64(len(n.applyQ)))
	n.gApplyLag.Set(int64(n.applyLagTxns))
	n.applyCond.Signal()
}

// maxApplyRunTxns caps how many txns one coalesced apply run hands the
// state machine, bounding both scheduler working-set and waiter-wakeup
// latency for the frames at the front of the run.
const maxApplyRunTxns = 256

// applyLoop is the apply side of the commit→apply split: it drains the
// queue that advanceCommitLocked feeds and runs the state machine
// OUTSIDE the node mutex, so proposer drains, follower acks,
// heartbeats, and reads never queue behind state-machine work.
// Adjacent frames of the same epoch are coalesced into one run so the
// state machine can schedule path-disjoint txns across frame
// boundaries too. Waiter wakeup, lastApplied advancement, and log
// truncation all live here now.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	var frames []Frame  // drained applyQ, reused across iterations
	var merged [][]byte // cross-frame coalescing scratch
	for {
		n.mu.Lock()
		for !n.stopped && len(n.applyQ) == 0 {
			n.applyCond.Wait()
		}
		if n.stopped {
			n.mu.Unlock()
			return
		}
		frames = append(frames[:0], n.applyQ...)
		n.applyQ = n.applyQ[:0]
		gen := n.applyGen
		n.mu.Unlock()

		// applyMu → mu is the global order; while we hold applyMu,
		// lastApplied only moves here. A snapshot install (which also
		// takes applyMu) may have overtaken the drained frames — it
		// bumps applyGen and re-enqueues whatever is still needed, so a
		// stale drain is discarded wholesale rather than applied onto
		// the wrong base state.
		n.applyMu.Lock()
		n.mu.Lock()
		if gen != n.applyGen {
			n.mu.Unlock()
			n.applyMu.Unlock()
			continue
		}
		n.mu.Unlock()

		for i := 0; i < len(frames); {
			e := frames[i]
			if e.Noop {
				n.mu.Lock()
				n.lastApplied = e.Zxid
				n.applyLagTxns--
				n.wakeWaiterLocked(e.Zxid, nil)
				n.wakeAppliedLocked()
				n.mu.Unlock()
				i++
				continue
			}
			// Coalesce a contiguous same-epoch run of txn frames.
			j := i + 1
			txns := e.Txns
			total := len(e.Txns)
			for j < len(frames) && !frames[j].Noop &&
				frames[j].Zxid == frames[j-1].Last()+1 &&
				total+len(frames[j].Txns) <= maxApplyRunTxns {
				total += len(frames[j].Txns)
				j++
			}
			if j > i+1 {
				merged = merged[:0]
				for k := i; k < j; k++ {
					merged = append(merged, frames[k].Txns...)
				}
				txns = merged
			}
			results := n.sm.ApplyBatch(txns, e.Zxid)
			n.mu.Lock()
			off := 0
			for k := i; k < j; k++ {
				f := frames[k]
				n.lastApplied = f.Last()
				for t := range f.Txns {
					var res []byte
					if off+t < len(results) {
						res = results[off+t]
					}
					n.wakeWaiterLocked(f.Zxid+uint64(t), res)
				}
				off += len(f.Txns)
				n.applyLagTxns -= len(f.Txns)
			}
			n.wakeAppliedLocked()
			n.gApplyLag.Set(int64(n.applyLagTxns))
			n.mu.Unlock()
			i = j
		}
		n.applyMu.Unlock()

		n.mu.Lock()
		n.enqueueCommittedLocked() // pull the window the bound withheld
		n.maybeTruncateLocked()
		n.gApplyQueue.Set(int64(len(n.applyQ)))
		n.leaderCond.Broadcast() // reopen the proposer's backpressure gate
		n.mu.Unlock()
	}
}

// wakeWaiterLocked delivers a committed transaction's result to its
// proposer, if one is still waiting on this node. The send is provably
// non-blocking — the waiter channel is buffered(1) and each waiter is
// removed from the map before its single send — but a plain send would
// still wedge the apply loop inside the node mutex if that invariant
// ever slipped, so the default arm turns such a bug into a dropped
// wakeup (the proposer times out) instead of a deadlock.
func (n *Node) wakeWaiterLocked(zxid uint64, result []byte) {
	if w, ok := n.waiters[zxid]; ok {
		delete(n.waiters, zxid)
		select {
		case w.ch <- proposeOutcome{zxid: zxid, result: result}:
		default:
		}
	}
}

// wakeAppliedLocked closes every registered apply-wait channel whose
// zxid the state machine has now reached. Each waiter has its own
// channel keyed by the exact zxid it needs, so a commit wakes only the
// waits it satisfies — no broadcast herd.
func (n *Node) wakeAppliedLocked() {
	for z, chans := range n.applyWaiters {
		if z > n.lastApplied {
			continue
		}
		for _, ch := range chans {
			close(ch)
		}
		delete(n.applyWaiters, z)
	}
}

// maybeTruncateLocked drops the bulk of the applied log prefix when
// the log grows beyond the configured bound, keeping a small margin so
// slightly-lagging followers can still catch up from the log instead
// of a full snapshot (which handleSync regenerates on demand).
//
// The cut is additionally bounded by SNAPSHOT COVERAGE, not the bare
// entry count: recovery is the newest durable snapshot plus the log
// tail, so an in-memory frame may only be dropped once a durable
// snapshot covers it (the same snapshot then lets the store reclaim
// the log behind it). When coverage lags, the background fuzzy
// snapshotter is kicked and the log is allowed to run past its bound
// until the snapshot lands.
func (n *Node) maybeTruncateLocked() {
	if len(n.log) <= n.cfg.MaxLogEntries {
		return
	}
	const margin = 64
	cut := sort.Search(len(n.log), func(i int) bool { return n.log[i].Zxid > n.lastApplied })
	n.requestSnapshotLocked()
	covered := sort.Search(len(n.log), func(i int) bool { return n.log[i].Last() > n.durableSnapZxid })
	if covered < cut {
		cut = covered
	}
	if cut <= margin {
		return
	}
	cut -= margin
	n.snapZxid = n.log[cut-1].Last()
	n.log = append([]Frame(nil), n.log[cut:]...)
}

// triggerSyncLocked schedules a pull-based catch-up from the leader.
func (n *Node) triggerSyncLocked() {
	if n.syncing || n.stopped || n.leaderID == 0 || n.leaderID == n.cfg.ID {
		return
	}
	n.syncing = true
	leader := n.leaderID
	from := n.lastZxidLocked()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.syncFromLeader(leader, from)
		n.mu.Lock()
		n.syncing = false
		n.mu.Unlock()
	}()
}

func (n *Node) syncFromLeader(leader, from uint64) {
	respB, err := n.callPeer(leader, syncReq{FromZxid: from}.encode())
	if err != nil {
		return
	}
	resp, err := decodeSyncResp(respB)
	if err != nil {
		return
	}
	// applyMu first (applyMu → mu): a snapshot install replaces the
	// state machine's contents, which must not race an in-flight apply
	// batch. The sync pull is rare, so stalling the apply loop for the
	// install is acceptable.
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if resp.Epoch < n.epoch || n.stopped {
		return
	}
	n.adoptEpochLocked(resp.Epoch, resp.LeaderID)
	if resp.HasSnapshot {
		// Durable first: the snapshot replaces our whole log (divergent
		// tail included), so InstallSnapshot resets the on-disk log the
		// same way the in-memory one is reset below.
		if err := n.st.InstallSnapshot(resp.Snapshot, resp.SnapZxid); err != nil {
			return
		}
		if err := n.sm.Restore(resp.Snapshot, resp.SnapZxid); err != nil {
			return
		}
		n.snapZxid = resp.SnapZxid
		n.durableSnapZxid = resp.SnapZxid
		n.lastApplied = resp.SnapZxid
		if n.commitZxid < resp.SnapZxid {
			n.commitZxid = resp.SnapZxid
		}
		n.log = nil
		// Reset the apply pipeline around the installed state: queued
		// frames describe transitions from the pre-install state and
		// must not run, and any drain the apply loop already holds is
		// invalidated via the generation bump.
		n.applyQ = n.applyQ[:0]
		n.applyEnqueued = resp.SnapZxid
		n.applyLagTxns = 0
		n.applyGen++
		n.gApplyQueue.Set(0)
		n.gApplyLag.Set(0)
		n.wakeAppliedLocked()
	} else if n.lastZxidLocked() != from {
		// Our log moved while the sync was in flight; retry later.
		return
	}
	var novel []Frame
	for _, e := range resp.Entries {
		if e.Last() <= n.lastZxidLocked() || e.Last() <= n.snapZxid {
			continue
		}
		novel = append(novel, e)
		n.log = append(n.log, e)
	}
	if len(novel) > 0 {
		// Persist and harden the pulled tail before it can be claimed by
		// a later ack or vote; the sync pull is rare, so the inline
		// fsync under the lock is acceptable.
		if n.st.Append(novel) != nil || n.st.Sync() != nil {
			n.log = n.log[:len(n.log)-len(novel)]
			return
		}
	}
	n.advanceCommitLocked(resp.Commit)
	// advanceCommitLocked returns early when the horizon didn't move,
	// but an install may have rewound applyEnqueued below an unchanged
	// commitZxid — re-enqueue explicitly so the gap replays.
	n.enqueueCommittedLocked()
}

// handleSync runs on the leader: ship either the log suffix after
// FromZxid, or a full snapshot when the follower's position precedes
// the log horizon or is unknown to us (trimmed away or divergent).
func (n *Node) handleSync(m syncReq) (syncResp, error) {
	n.mu.Lock()
	if n.role != roleLeader {
		n.mu.Unlock()
		return syncResp{}, fmt.Errorf("zab: node %d is not the leader", n.cfg.ID)
	}
	resp := syncResp{Commit: n.commitZxid, Epoch: n.epoch, LeaderID: n.cfg.ID}
	if m.FromZxid == n.snapZxid {
		resp.Entries = append(resp.Entries, n.log...)
		n.mu.Unlock()
		return resp, nil
	}
	if m.FromZxid > n.snapZxid {
		for i, e := range n.log {
			if e.Last() == m.FromZxid {
				resp.Entries = append(resp.Entries, n.log[i+1:]...)
				n.mu.Unlock()
				return resp, nil
			}
		}
	}
	n.mu.Unlock()

	// Snapshot-first determinism: a position BEHIND the log horizon
	// (truncation dropped the frames the follower still needs) skips
	// the log scan above and lands here directly, as does a position
	// we do not recognize (a divergent tail kept across a failover).
	// Either way the answer is the full checkpoint of the applied
	// state plus the unapplied tail — never a suffix with a silent
	// gap the caller would have to detect. applyMu (taken before mu,
	// per the global order) freezes lastApplied so the serialized
	// state and the tail describe one consistent cut.
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != roleLeader {
		return syncResp{}, fmt.Errorf("zab: node %d is not the leader", n.cfg.ID)
	}
	resp = syncResp{Commit: n.commitZxid, Epoch: n.epoch, LeaderID: n.cfg.ID}
	resp.HasSnapshot = true
	resp.SnapZxid = n.lastApplied
	resp.Snapshot = n.sm.Snapshot()
	for _, e := range n.log {
		if e.Zxid > n.lastApplied {
			resp.Entries = append(resp.Entries, e)
		}
	}
	return resp, nil
}

// --- leader side ------------------------------------------------------

// Propose submits a transaction for atomic broadcast. On a follower it
// is forwarded to the leader. It returns the state machine's result
// once the transaction is committed and applied on THIS node, which
// gives sessions connected here read-your-writes consistency — the
// same guarantee a ZooKeeper server provides its clients.
//
// Propose is safe for arbitrary concurrency; concurrent calls are
// coalesced by the leader's proposer into group-commit frames instead
// of queueing on a serialized quorum round trip.
func (n *Node) Propose(txn []byte) ([]byte, error) {
	result, zxid, err := n.propose(txn)
	if err != nil {
		return nil, err
	}
	if err := n.waitApplied(zxid); err != nil {
		return nil, err
	}
	return result, nil
}

func (n *Node) propose(txn []byte) ([]byte, uint64, error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil, 0, ErrStopped
	}
	isLeader := n.role == roleLeader
	leader := n.leaderID
	n.mu.Unlock()

	if !isLeader {
		if leader == 0 || leader == n.cfg.ID {
			return nil, 0, ErrNoLeader
		}
		respB, err := n.callPeer(leader, forwardReq{Txn: txn}.encode())
		if err != nil {
			return nil, 0, err
		}
		resp, err := decodeForwardResp(respB)
		if err != nil {
			return nil, 0, err
		}
		return resp.Result, resp.Zxid, nil
	}
	return n.proposeAsLeader(txn, false)
}

// waitApplied blocks until this node's state machine has applied the
// given zxid (or the node stops / the wait times out). Each call
// registers one channel keyed by the exact zxid it needs and performs
// a single deadline-aware select on it — a timeout wakes only this
// caller, never the other waiters.
func (n *Node) waitApplied(zxid uint64) error {
	n.mu.Lock()
	if n.lastApplied >= zxid {
		n.mu.Unlock()
		return nil
	}
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	ch := make(chan struct{})
	n.applyWaiters[zxid] = append(n.applyWaiters[zxid], ch)
	n.mu.Unlock()

	timer := getProposeTimer()
	defer putProposeTimer(timer)
	select {
	case <-ch:
		return nil
	case <-n.stopCh:
		return ErrStopped
	case <-timer.C:
		n.mu.Lock()
		applied := n.lastApplied >= zxid
		chans := n.applyWaiters[zxid]
		for i, c := range chans {
			if c == ch {
				n.applyWaiters[zxid] = append(chans[:i:i], chans[i+1:]...)
				break
			}
		}
		if len(n.applyWaiters[zxid]) == 0 {
			delete(n.applyWaiters, zxid)
		}
		n.mu.Unlock()
		if applied {
			return nil
		}
		return fmt.Errorf("zab: zxid %x not applied locally within %v", zxid, proposeTimeout)
	}
}

// proposeAsLeader enqueues one transaction for the proposer goroutine
// and waits for its frame to commit and apply, returning the per-txn
// state-machine result.
func (n *Node) proposeAsLeader(txn []byte, noop bool) ([]byte, uint64, error) {
	p := &pendingTxn{txn: txn, noop: noop, ch: make(chan proposeOutcome, 1)}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil, 0, ErrStopped
	}
	if n.role != roleLeader {
		n.mu.Unlock()
		return nil, 0, ErrNoLeader
	}
	n.propQ = append(n.propQ, p)
	n.gQueue.Set(int64(len(n.propQ)))
	n.leaderCond.Broadcast()
	n.mu.Unlock()

	timer := getProposeTimer()
	defer putProposeTimer(timer)
	select {
	case o := <-p.ch:
		if o.err != nil {
			return nil, 0, o.err
		}
		return o.result, o.zxid, nil
	case <-n.stopCh:
		return nil, 0, ErrStopped
	case <-timer.C:
		// The transaction stays queued/in flight; it may still commit
		// (the session layer's retry dedup absorbs that), but this
		// caller stops waiting.
		return nil, 0, fmt.Errorf("zab: proposal not committed within %v", proposeTimeout)
	}
}

// failLeaderLocked fails every queued and in-flight proposal with err
// and retires the current leadership generation, stopping the proposer
// and sender goroutines. Writes that already replicated may still
// commit under the next leader — the error only means THIS node can no
// longer promise anything, the same contract a ZooKeeper connection
// loss gives a client.
func (n *Node) failLeaderLocked(err error) {
	for _, p := range n.propQ {
		p.ch <- proposeOutcome{err: err}
	}
	n.propQ = nil
	for z, p := range n.waiters {
		delete(n.waiters, z)
		p.ch <- proposeOutcome{err: err}
	}
	n.leaderGen++
	n.stallSince = time.Time{}
	// Step-down revokes the read lease and retires the observer feed;
	// both are leader-only state.
	n.leaseUntil = time.Time{}
	n.observers = make(map[uint64]*observerFeed)
	n.gObsCount.Set(0)
	n.gObsLagTxns.Set(0)
	n.gObsLagMS.Set(0)
	n.gQueue.Set(0)
	n.gInflight.Set(0)
	n.leaderCond.Broadcast()
}

// leaderGenLocked reports whether the node still leads under the given
// leadership generation.
func (n *Node) leaderGenLocked(gen uint64) bool {
	return n.role == roleLeader && n.leaderGen == gen && !n.stopped
}

// uncommittedFramesLocked counts proposed-but-uncommitted frames — the
// pipelining window occupancy.
func (n *Node) uncommittedFramesLocked() int {
	i := sort.Search(len(n.log), func(i int) bool { return n.log[i].Zxid > n.commitZxid })
	return len(n.log) - i
}

// proposerLoop is the group-commit heart: it drains the proposal
// queue, coalesces pending transactions into one frame bounded by
// MaxBatchTxns/maxBatchBytes, appends it to the log and hands it to
// the per-follower senders — without waiting for the previous frame's
// acks, up to MaxInflightFrames outstanding.
func (n *Node) proposerLoop(gen uint64) {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		// The epoch barrier is exempt from the pipelining window: a
		// leader elected with an inherited uncommitted tail of
		// MaxInflightFrames or more frames must still propose its
		// barrier, because nothing inherited can commit until a
		// current-epoch frame exists (the §5.4.2 rule) — gating the
		// barrier on the window would livelock the whole shard. The
		// same exemption covers the apply-queue bound, which is the
		// commit→apply backpressure: a full queue stops NEW txn frames
		// so a slow state machine cannot grow the log without bound.
		for n.leaderGenLocked(gen) &&
			(len(n.propQ) == 0 ||
				(!n.propQ[0].noop &&
					(n.uncommittedFramesLocked() >= n.cfg.MaxInflightFrames ||
						len(n.applyQ) >= maxApplyQueueFrames))) {
			n.leaderCond.Wait()
		}
		if !n.leaderGenLocked(gen) {
			n.mu.Unlock()
			return
		}
		batch := n.drainBatchLocked()
		n.gQueue.Set(int64(len(n.propQ)))
		n.dBatch.Observe(int64(len(batch)))

		first := n.nextSeq + 1
		e := Frame{Zxid: makeZxid(n.epoch, first), Noop: batch[0].noop}
		if !e.Noop {
			e.Txns = make([][]byte, len(batch))
			for i, p := range batch {
				e.Txns[i] = p.txn
			}
		}
		// Persist the frame before exposing it: once in the log it is
		// streamed to followers and counted toward the leader's own
		// (durable) tip. The fsync itself rides the leader sync loop.
		n.appendScratch[0] = e
		if err := n.st.Append(n.appendScratch[:]); err != nil {
			// The local disk is failing; this node can no longer lead.
			for _, p := range batch {
				p.ch <- proposeOutcome{err: err}
			}
			n.failLeaderLocked(err)
			n.role = roleFollower
			n.leaderID = 0
			n.resetElectionTimer()
			n.mu.Unlock()
			return
		}
		if e.Noop {
			n.nextSeq++
			n.waiters[e.Zxid] = batch[0]
		} else {
			for i, p := range batch {
				n.waiters[e.Zxid+uint64(i)] = p
			}
			n.nextSeq += uint32(len(batch))
		}
		n.log = append(n.log, e)
		n.gInflight.Set(int64(n.uncommittedFramesLocked()))
		// A single-member "quorum" commits once the store reports the
		// frame durable (on append, or when the sync loop's fsync covers
		// it); otherwise the senders' acks advance the horizon.
		n.maybeAdvanceLeaderCommitLocked()
		n.leaderCond.Broadcast()
		n.mu.Unlock()
	}
}

// drainBatchLocked takes the next group-commit batch off the queue: a
// lone no-op barrier, or a run of transactions bounded by count and
// bytes (never mixing a barrier into a transaction frame). The batch
// is copied into a proposer-owned scratch slice and the queue is
// compacted in place, keeping propQ's backing array stable — the old
// reslice-off-the-front scheme bled capacity and made every enqueue
// reallocate. The scratch is safe to reuse because the proposer fully
// consumes each batch (under mu) before draining the next.
func (n *Node) drainBatchLocked() []*pendingTxn {
	count, bytes := 0, 0
	if n.propQ[0].noop {
		count = 1
	} else {
		for _, p := range n.propQ {
			if p.noop || count >= n.cfg.MaxBatchTxns {
				break
			}
			if count > 0 && bytes+len(p.txn) > maxBatchBytes {
				break
			}
			count++
			bytes += len(p.txn)
		}
	}
	batch := append(n.batchScratch[:0], n.propQ[:count]...)
	n.batchScratch = batch
	rest := copy(n.propQ, n.propQ[count:])
	for i := rest; i < len(n.propQ); i++ {
		n.propQ[i] = nil // drop references so abandoned txns can be collected
	}
	n.propQ = n.propQ[:rest]
	return batch
}

// maybeAdvanceLeaderCommitLocked recomputes the quorum-replicated
// horizon from the cumulative acks and commits every frame of the
// CURRENT epoch fully below it (frames inherited from older epochs
// commit transitively — the barrier no-op guarantees one current-epoch
// frame exists, the Raft §5.4.2 safety argument).
func (n *Node) maybeAdvanceLeaderCommitLocked() {
	if n.role != roleLeader {
		return
	}
	tips := append(n.tipsScratch[:0], n.selfTipLocked())
	for id := range n.cfg.Peers {
		if id != n.cfg.ID {
			tips = append(tips, n.match[id])
		}
	}
	slices.Sort(tips) // ascending; allocation-free, unlike sort.Slice
	n.tipsScratch = tips
	q := tips[len(tips)-n.quorum()]
	if q <= n.commitZxid {
		return
	}
	target := n.commitZxid
	for i := len(n.log) - 1; i >= 0; i-- {
		e := n.log[i]
		if e.Last() > q {
			continue
		}
		if epochOf(e.Zxid) == n.epoch {
			target = e.Last()
		}
		break
	}
	if target <= n.commitZxid {
		return
	}
	epoch := n.epoch
	n.advanceCommitLocked(target)
	n.gInflight.Set(int64(n.uncommittedFramesLocked()))
	// Let followers apply promptly instead of waiting for the next
	// piggybacked horizon. A single-node ensemble has nobody to tell —
	// skip the encode, this runs once per commit advance.
	if len(n.cfg.Peers) > 1 {
		n.broadcastAsync(commitReq{Epoch: epoch, Zxid: n.commitZxid}.encode())
	}
}

// selfTipLocked is the leader's own contribution to the commit
// quorum: its log tip, capped at the durable horizon — the leader's
// vote for a frame is subject to the same sync discipline as a
// follower's ack.
func (n *Node) selfTipLocked() uint64 {
	return min(n.lastZxidLocked(), n.st.LastDurableZxid())
}

// leaderSyncLoop is the group-fsync heart of the write path: whenever the log tip is ahead of the durable
// horizon it issues one Sync, which hardens every frame appended since
// the previous one — frames keep arriving from the proposer while the
// fsync is in flight and ride the next — then re-derives the commit
// horizon with the leader's now-advanced durable tip.
func (n *Node) leaderSyncLoop(gen uint64) {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for n.leaderGenLocked(gen) && n.lastZxidLocked() <= n.st.LastDurableZxid() {
			n.leaderCond.Wait()
		}
		if !n.leaderGenLocked(gen) {
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		if err := n.st.Sync(); err != nil {
			n.mu.Lock()
			if n.leaderGenLocked(gen) {
				n.failLeaderLocked(err)
				n.role = roleFollower
				n.leaderID = 0
				n.resetElectionTimer()
			}
			n.mu.Unlock()
			return
		}
		n.mu.Lock()
		n.maybeAdvanceLeaderCommitLocked()
		n.mu.Unlock()
	}
}

// snapshotLoop writes fuzzy snapshots in the background: maybeTruncateLocked kicks it when the in-memory log
// outgrows its bound, it captures a consistent (state, lastApplied)
// cut under the lock, persists it OUTSIDE the lock alongside the live
// log — writes keep flowing while the snapshot lands, which is what
// makes it fuzzy — and then lets truncation and WAL-segment reclaim
// proceed up to the new durable coverage.
func (n *Node) snapshotLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.snapReq:
		}
		// Serialize under applyMu, not mu: commits, acks, heartbeats and
		// reads flow freely during the serialization; only the apply
		// loop stalls for it, which is the fuzzy-snapshot cost moved off
		// the commit path entirely. Holding applyMu pins lastApplied, so
		// the cut is consistent.
		n.applyMu.Lock()
		n.mu.Lock()
		z := n.lastApplied
		if z <= n.durableSnapZxid {
			n.snapInFlight = false
			n.mu.Unlock()
			n.applyMu.Unlock()
			continue
		}
		n.mu.Unlock()
		// Stream the consistent cut straight into the store through a
		// pipe: the producer serializes under applyMu (chunk writes land
		// in the page cache), the consumer persists concurrently, and the
		// final fsync+rename runs after the lock is released — with
		// O(chunk) memory instead of the full serialized state.
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			serr := n.st.SaveSnapshotFrom(pr, z)
			// Unblock the producer if the store bailed early.
			pr.CloseWithError(serr)
			done <- serr
		}()
		// The store's verdict is authoritative: a producer failure
		// poisons the pipe, so the store reports it too, while a store
		// that succeeds has already seen the full stream.
		pw.CloseWithError(n.sm.SnapshotTo(pw))
		n.applyMu.Unlock()
		err := <-done
		n.mu.Lock()
		n.snapInFlight = false
		if err == nil && z > n.durableSnapZxid {
			n.durableSnapZxid = z
			n.maybeTruncateLocked()
		}
		n.mu.Unlock()
	}
}

// requestSnapshotLocked kicks the background snapshotter (at most one
// snapshot in flight).
func (n *Node) requestSnapshotLocked() {
	if n.snapInFlight || n.stopped || n.lastApplied <= n.durableSnapZxid {
		return
	}
	select {
	case n.snapReq <- struct{}{}:
		n.snapInFlight = true
	default:
	}
}

// senderLoop streams the log to one follower: each RPC carries every
// frame past the follower's acked horizon (capped at maxFramesPerSend),
// so frames proposed while the previous round trip was in flight ride
// the next one — the pipelining that keeps the pipe full. Acks are
// cumulative; a follower that answers NeedSync pulls the missing state
// itself while the sender backs off.
func (n *Node) senderLoop(gen, id, base uint64) {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for n.leaderGenLocked(gen) && base >= n.lastZxidLocked() {
			n.leaderCond.Wait()
		}
		if !n.leaderGenLocked(gen) {
			n.mu.Unlock()
			return
		}
		req := proposeReq{
			Epoch:    n.epoch,
			LeaderID: n.cfg.ID,
			PrevZxid: base,
			Entries:  n.entriesAfterLocked(base),
			Commit:   n.commitZxid,
		}
		if len(req.Entries) == 0 {
			// base is not a position we can stream from (truncated away,
			// or a divergent tail the follower kept across a failover).
			// Probe with OUR tip: a follower that matches it is caught
			// up; any other answers NeedSync and starts its own sync
			// pull. Probing with base instead would be acked by a
			// divergent follower forever, wedging it silently.
			req.PrevZxid = n.lastZxidLocked()
		}
		n.mu.Unlock()

		respB, err := n.callPeer(id, req.encode())
		if err != nil {
			if !n.sleepInterruptible(n.cfg.HeartbeatInterval) {
				return
			}
			continue
		}
		resp, derr := decodeProposeResp(respB)
		if derr != nil {
			if !n.sleepInterruptible(n.cfg.HeartbeatInterval) {
				return
			}
			continue
		}
		if resp.Epoch > req.Epoch {
			n.mu.Lock()
			if resp.Epoch > n.epoch {
				n.adoptEpochLocked(resp.Epoch, 0)
				n.leaderID = 0
			}
			n.mu.Unlock()
			return
		}
		progressed := resp.LastZxid != base || len(req.Entries) > 0
		base = resp.LastZxid
		if resp.Ack {
			n.mu.Lock()
			if n.leaderGenLocked(gen) && resp.LastZxid > n.match[id] {
				n.match[id] = resp.LastZxid
				n.maybeAdvanceLeaderCommitLocked()
			}
			n.mu.Unlock()
			if !progressed {
				// An acked probe of a position we cannot stream from
				// (the follower holds a divergent tail and is syncing);
				// don't spin on it.
				if !n.sleepInterruptible(n.cfg.HeartbeatInterval) {
					return
				}
			}
			continue
		}
		// The follower is lagging or divergent and is syncing from us;
		// probe again after a beat.
		if !n.sleepInterruptible(n.cfg.HeartbeatInterval) {
			return
		}
	}
}

// entriesAfterLocked returns the run of log frames following the given
// zxid, or nil (a position probe) when the position is not a frame
// boundary we hold — the follower's own sync pull repairs that.
func (n *Node) entriesAfterLocked(base uint64) []Frame {
	start := -1
	if base == n.snapZxid {
		start = 0
	} else {
		i := sort.Search(len(n.log), func(i int) bool { return n.log[i].Last() >= base })
		if i < len(n.log) && n.log[i].Last() == base {
			start = i + 1
		}
	}
	if start < 0 {
		return nil
	}
	end := len(n.log)
	if end-start > maxFramesPerSend {
		end = start + maxFramesPerSend
	}
	return n.log[start:end:end]
}

// sleepInterruptible sleeps for d unless the node stops first.
func (n *Node) sleepInterruptible(d time.Duration) bool {
	select {
	case <-n.stopCh:
		return false
	case <-time.After(d):
		return true
	}
}

// broadcastAsync fires one payload at every peer without waiting.
func (n *Node) broadcastAsync(payload []byte) {
	for id := range n.cfg.Peers {
		if id == n.cfg.ID {
			continue
		}
		go func(id uint64) {
			_, _ = n.callPeer(id, payload)
		}(id)
	}
}

// --- background loops -------------------------------------------------

func (n *Node) electionLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatInterval / 2)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
		}
		n.mu.Lock()
		due := n.role != roleLeader && n.now().Sub(n.lastContact) > n.electionDue
		n.mu.Unlock()
		if due {
			n.runElection()
		}
	}
}

func (n *Node) runElection() {
	n.mu.Lock()
	if n.stopped || n.role == roleLeader {
		n.mu.Unlock()
		return
	}
	next := n.epoch + 1
	if n.grantedEpoch >= next {
		next = n.grantedEpoch + 1
	}
	// Campaigning is a self-vote; persist it like any other grant.
	if err := n.st.SaveHardState(next, next); err != nil {
		n.mu.Unlock()
		return
	}
	n.epoch = next
	n.grantedEpoch = next
	n.role = roleCandidate
	n.leaderID = 0
	n.resetElectionTimer()
	req := requestVoteReq{Epoch: next, CandidateID: n.cfg.ID, LastZxid: n.lastZxidLocked()}
	n.mu.Unlock()

	payload := req.encode()
	grants := make(chan bool, len(n.cfg.Peers))
	outstanding := 0
	for id := range n.cfg.Peers {
		if id == n.cfg.ID {
			continue
		}
		outstanding++
		go func(id uint64) {
			respB, err := n.callPeer(id, payload)
			if err != nil {
				grants <- false
				return
			}
			resp, err := decodeRequestVoteResp(respB)
			if err != nil {
				grants <- false
				return
			}
			if resp.Epoch > req.Epoch {
				n.mu.Lock()
				if resp.Epoch > n.epoch {
					n.adoptEpochLocked(resp.Epoch, 0)
				}
				n.mu.Unlock()
			}
			grants <- resp.Granted
		}(id)
	}
	votes := 1 // self
	deadline := time.After(n.cfg.ElectionTimeout)
	for i := 0; i < outstanding; i++ {
		select {
		case g := <-grants:
			if g {
				votes++
			}
		case <-deadline:
			i = outstanding // abandon the round
		case <-n.stopCh:
			return
		}
		if votes >= n.quorum() {
			break
		}
	}
	if votes < n.quorum() {
		return
	}
	n.becomeLeader(req.Epoch)
}

func (n *Node) becomeLeader(epoch uint64) {
	n.mu.Lock()
	if n.epoch != epoch || n.role != roleCandidate || n.stopped {
		n.mu.Unlock()
		return
	}
	n.role = roleLeader
	n.leaderID = n.cfg.ID
	n.nextSeq = 0
	n.leaderGen++
	n.match = make(map[uint64]uint64, len(n.cfg.Peers))
	n.stallSince = time.Time{}
	// Queue the epoch barrier at the HEAD of the proposal queue inside
	// the same critical section that flips the role, so no client
	// proposal can slot in ahead of it: the proposer's window
	// exemption keys off the queue head, and a barrier stuck behind a
	// client write would re-open the full-inherited-window livelock.
	// The barrier commits every entry inherited from previous epochs
	// under the new epoch (Raft §5.4.2 trick; Zab achieves the same
	// with its NEWLEADER phase). Nobody waits on its outcome channel.
	barrier := &pendingTxn{noop: true, ch: make(chan proposeOutcome, 1)}
	n.propQ = append([]*pendingTxn{barrier}, n.propQ...)
	n.gQueue.Set(int64(len(n.propQ)))
	gen := n.leaderGen
	tip := n.lastZxidLocked()
	n.leaderCond.Broadcast()
	n.mu.Unlock()

	n.wg.Add(2)
	go n.proposerLoop(gen)
	go n.leaderSyncLoop(gen)
	for id := range n.cfg.Peers {
		if id == n.cfg.ID {
			continue
		}
		n.wg.Add(1)
		go n.senderLoop(gen, id, tip)
	}
}

func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
		}
		n.mu.Lock()
		if n.role != roleLeader {
			n.mu.Unlock()
			continue
		}
		// Quorum-loss watchdog: a leader whose pipeline cannot commit
		// (partitioned, too few live followers) steps down instead of
		// wedging its clients, so a healthier member can win the next
		// election and resolve the uncommitted tail via sync.
		if n.commitZxid < n.lastZxidLocked() {
			if n.stallSince.IsZero() {
				n.stallSince = time.Now()
			} else if time.Since(n.stallSince) > 2*n.cfg.ElectionTimeout {
				n.failLeaderLocked(ErrNoQuorum)
				n.role = roleFollower
				n.leaderID = 0
				n.resetElectionTimer()
				n.mu.Unlock()
				continue
			}
		} else {
			n.stallSince = time.Time{}
		}
		req := heartbeatReq{Epoch: n.epoch, LeaderID: n.cfg.ID, Commit: n.commitZxid}
		n.mu.Unlock()
		payload := req.encode()
		// Lease bookkeeping: the round timestamp is taken BEFORE any
		// heartbeat is sent, so a quorum of acks proves the promise
		// quorum was intact at `round` and the lease may extend to
		// round + ElectionTimeout - MaxClockSkew.
		round := n.now()
		var ackMu sync.Mutex
		acks := 1 // self
		if acks >= n.quorum() {
			n.extendLease(round, req.Epoch)
		}
		for id := range n.cfg.Peers {
			if id == n.cfg.ID {
				continue
			}
			go func(id uint64) {
				respB, err := n.callPeer(id, payload)
				if err != nil {
					return
				}
				resp, err := decodeHeartbeatResp(respB)
				if err != nil {
					return
				}
				if resp.Epoch > req.Epoch {
					n.mu.Lock()
					if resp.Epoch > n.epoch {
						n.adoptEpochLocked(resp.Epoch, 0)
						n.leaderID = 0
					}
					n.mu.Unlock()
					return
				}
				ackMu.Lock()
				acks++
				reached := acks == n.quorum()
				ackMu.Unlock()
				if reached {
					n.extendLease(round, req.Epoch)
				}
			}(id)
		}
	}
}

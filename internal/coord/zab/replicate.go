package zab

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
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

func getProposeTimer(d time.Duration) *time.Timer {
	t := proposeTimers.Get().(*time.Timer)
	t.Reset(d)
	return t
}

func putProposeTimer(t *time.Timer) {
	t.Stop()
	proposeTimers.Put(t)
}

// maxBatchBytes bounds a frame's total transaction payload.
const maxBatchBytes = 1 << 20

// maxFramesPerSend bounds how many unacknowledged frames a follower's
// stream keeps in flight, across all its windows; a follower further
// behind than this catches up as the acks return (or via the sync
// protocol once its position leaves the log).
const maxFramesPerSend = 64

// pendingTxn is one queued proposal waiting for its frame to commit.
type pendingTxn struct {
	txn  []byte
	noop bool
	ch   chan proposeOutcome // buffered(1); exactly one send ever happens
}

// proposeOutcome is a transaction's fate as its proposer learns of it:
// its zxid and state-machine result, or err.
type proposeOutcome struct {
	zxid   uint64
	result []byte
	err    error
}

// --- follower side ----------------------------------------------------

// handlePropose processes one window of the leader's log stream: a run
// of consecutive frames attaching at PrevZxid, plus the leader's commit
// horizon. The leader keeps several windows in flight and every
// transport runs each request on its own goroutine, so windows arrive
// in any order; the follower tells three kinds apart by where PrevZxid
// falls against its own log:
//
//   - At or below the tip, on a frame boundary it holds: the window
//     attaches or overlaps. Frames already held are skipped (a
//     retransmit, or a window overtaken by its successor), the rest
//     must attach exactly at the tip and are appended. A window with
//     no frames is a late commit carrier and is simply acked.
//   - Ahead of the tip, with frames, PrevZxid of the leader's own
//     epoch: EARLY — its predecessor is still in flight. It parks until
//     the append that closes the gap (the leader's window bounds how
//     many can park) and, if that has not happened within one
//     HeartbeatInterval, is refused with the tip so the leader rewinds.
//     Reordering is never answered with a sync pull. A gap below an
//     OLDER epoch's position is not waited out: it is what a follower
//     lagging a newly elected leader sees first (the barrier, attaching
//     at the leader's inherited tip), and pulling at once gets the
//     barrier its quorum a park and a back-off sooner.
//   - Anything else — a position this log does not hold, or an empty
//     window naming one (the probe of a leader that lost track of this
//     follower): the logs differ or the gap is not on the stream.
//     NeedSync, and the follower pulls the missing state itself.
//
// The ack is CUMULATIVE and a durability promise: the appended frames
// are synced — one sync per window, outside the node mutex — and the
// position reported is capped at the store's durable horizon, because
// with several handlers in flight this one may have verified frames
// another handler appended and has not synced yet.
func (n *Node) handlePropose(m proposeReq) proposeResp {
	resp, appended := n.acceptWindow(m)
	if !resp.Ack {
		return resp
	}
	if appended {
		if err := n.st.Sync(); err != nil {
			// Not durable: withhold both the ack and the sync request —
			// a node whose disk is failing should fall out of the quorum,
			// not churn the leader.
			return proposeResp{Epoch: resp.Epoch, LastZxid: resp.LastZxid}
		}
	}
	resp.LastZxid = min(resp.LastZxid, n.st.LastDurableZxid())
	return resp
}

// acceptWindow is handlePropose's part under the node mutex: it places
// the window, parks it if early, appends its novel frames and follows
// the commit horizon. appended reports whether the ack awaits a Sync.
func (n *Node) acceptWindow(m proposeReq) (resp proposeResp, appended bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var patience *time.Timer // armed when the window first parks
	for {
		if m.Epoch < n.epoch {
			return proposeResp{Epoch: n.epoch, LastZxid: n.lastZxidLocked()}, false
		}
		n.adoptEpochLocked(m.Epoch, m.LeaderID)
		if m.PrevZxid <= n.lastZxidLocked() {
			break
		}
		if len(m.Entries) == 0 || epochOf(m.PrevZxid) != m.Epoch {
			return n.needSyncLocked(), false
		}
		if patience == nil {
			patience = time.NewTimer(n.cfg.HeartbeatInterval)
			defer patience.Stop()
		}
		if n.tipMoved == nil {
			n.tipMoved = make(chan struct{})
		}
		moved := n.tipMoved
		n.mu.Unlock()
		select {
		case <-moved:
			n.mu.Lock()
			continue
		case <-patience.C:
		case <-n.stopCh:
		}
		n.mu.Lock()
		return proposeResp{Epoch: n.epoch, LastZxid: n.lastZxidLocked()}, false
	}
	if !n.holdsLocked(m.PrevZxid) {
		return n.needSyncLocked(), false
	}
	tip := n.lastZxidLocked()
	prev := m.PrevZxid
	var novel []Frame
	for _, e := range m.Entries {
		if e.Last() <= tip {
			// An overlap: a zxid names one frame, so holding its end means
			// holding the leader's log up to it.
			if !n.holdsLocked(e.Last()) {
				return n.needSyncLocked(), false
			}
			prev = e.Last()
			continue
		}
		if prev != tip {
			// We hold frames past prev that the leader's log does not.
			return n.needSyncLocked(), false
		}
		novel = append(novel, e)
		tip = e.Last()
		prev = tip
	}
	if len(novel) > 0 {
		// Persist before extending the in-memory log, so the tip this
		// node exposes (acks, votes) never exceeds what a restart could
		// reconstruct once the trailing Sync lands.
		if err := n.st.Append(novel); err != nil {
			return proposeResp{Epoch: n.epoch, LastZxid: n.lastZxidLocked()}, false
		}
		n.log = append(n.log, novel...)
		n.tipAdvancedLocked()
	}
	n.verified = max(n.verified, prev)
	n.followCommitLocked(m.Commit)
	return proposeResp{Ack: true, Epoch: n.epoch, LastZxid: n.verified}, len(novel) > 0
}

// needSyncLocked answers a window this log cannot take and starts the
// pull that repairs it.
func (n *Node) needSyncLocked() proposeResp {
	n.triggerSyncLocked()
	return proposeResp{NeedSync: true, Epoch: n.epoch, LastZxid: n.lastZxidLocked()}
}

// holdsLocked reports whether z, a frame end in the leader's log, is
// one in this node's log too. Everything committed counts as held: the
// committed prefix is the same on every member.
func (n *Node) holdsLocked(z uint64) bool {
	if z <= n.commitZxid || z == n.lastZxidLocked() {
		return true
	}
	i := sort.Search(len(n.log), func(i int) bool { return n.log[i].Last() >= z })
	return i < len(n.log) && n.log[i].Last() == z
}

// tipAdvancedLocked records that the log tip moved: it releases the
// early windows parked on it and restarts the heartbeat gap count.
func (n *Node) tipAdvancedLocked() {
	n.gapBeats = 0
	if n.tipMoved != nil {
		close(n.tipMoved)
		n.tipMoved = nil
	}
}

// followCommitLocked is every follower-side commit advance — window,
// heartbeat, sync pull. commit is a horizon announced
// under the current epoch; the node commits it only as far as its log
// is verified against that epoch's leader (Raft's min(leaderCommit,
// index of last new entry)). The log tip is not a safe cap: a tail kept
// from an older epoch may sit below a newer epoch's horizon without
// being in the new leader's log. The announced horizon is remembered,
// so a window that arrives after the notice that commits it applies at
// once.
func (n *Node) followCommitLocked(commit uint64) {
	n.leaderCommit = max(n.leaderCommit, commit)
	if n.advanceCommitLocked(min(n.leaderCommit, n.verified)) {
		n.applyCond.Signal()
	}
}

// advanceCommitLocked raises the commit horizon (bounded by what we
// actually hold) and queues the newly committed frames for apply. It
// reports whether the horizon moved; waking an applier is the caller's
// part, because on a leader the caller may apply them itself.
func (n *Node) advanceCommitLocked(commit uint64) bool {
	if commit > n.lastZxidLocked() {
		commit = n.lastZxidLocked()
	}
	if commit <= n.commitZxid {
		return false
	}
	n.commitZxid = commit
	n.stallSince = time.Time{}
	n.enqueueCommittedLocked()
	// Each stream carries the new horizon on its next window, an empty
	// one if it has no frames to send; the pipelining window may have
	// opened for a proposer gated on it.
	n.wakeStreamsLocked()
	if n.propGate == propWindow {
		n.propCond.Signal()
	}
	return true
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
		// tail included), so InstallSnapshotFrom resets the on-disk log
		// the same way the in-memory one is reset here; the state machine
		// is then restored from the store.
		if n.st.InstallSnapshotFrom(bytes.NewReader(resp.Snapshot), resp.SnapZxid) != nil {
			return
		}
		if n.restoreLocked() != nil {
			return
		}
		n.log = nil
		n.cSnapInstalls.Inc()
	} else if n.lastZxidLocked() != from {
		// Our log moved while the sync was in flight; retry later.
		return
	}
	var novel []Frame
	for _, e := range resp.Entries {
		if e.Last() <= n.lastZxidLocked() {
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
	// The whole log is now the leader's, as of the reply.
	n.verified = n.lastZxidLocked()
	n.tipAdvancedLocked()
	n.followCommitLocked(resp.Commit)
	// advanceCommitLocked returns early when the horizon didn't move,
	// but an install may have rewound applyEnqueued below an unchanged
	// commitZxid — re-enqueue explicitly so the gap replays.
	n.enqueueCommittedLocked()
	n.applyCond.Signal()
}

// maxSyncBytes bounds the encoded frames of one sync reply, leaving the
// rest of a wire frame to the snapshot body; a follower pulls the rest.
const maxSyncBytes = wire.MaxFrameSize / 4

// handleSync runs on the leader: ship either the log suffix after
// FromZxid or, when that position is not in the log (trimmed away or
// divergent), the snapshot the store holds plus the frames past it,
// which truncation never outruns — never a suffix with a silent gap.
// The body is read from the store with no lock held.
func (n *Node) handleSync(m syncReq) (syncResp, error) {
	n.mu.Lock()
	if n.role != roleLeader {
		n.mu.Unlock()
		return syncResp{}, fmt.Errorf("zab: node %d is not the leader", n.cfg.ID)
	}
	resp := syncResp{Commit: n.commitZxid, Epoch: n.epoch, LeaderID: n.cfg.ID}
	start := n.indexAfterLocked(m.FromZxid)
	var body io.ReadCloser
	if start < 0 {
		body, resp.SnapZxid, resp.HasSnapshot = n.st.SnapshotStream()
		if start = n.indexAfterLocked(resp.SnapZxid); !resp.HasSnapshot || start < 0 {
			n.mu.Unlock()
			if body != nil {
				body.Close()
			}
			return syncResp{}, fmt.Errorf("zab: node %d holds no snapshot at a frame boundary of its log", n.cfg.ID)
		}
	}
	size := 0
	for _, e := range n.log[start:] {
		for _, txn := range e.Txns {
			size += 4 + len(txn)
		}
		if size += 13; size > maxSyncBytes && len(resp.Entries) > 0 {
			break
		}
		resp.Entries = append(resp.Entries, e)
	}
	n.mu.Unlock()
	if body == nil {
		return resp, nil
	}
	defer body.Close()
	var err error
	if resp.Snapshot, err = io.ReadAll(body); err != nil {
		return syncResp{}, fmt.Errorf("zab: reading the snapshot for sync: %w", err)
	}
	return resp, nil
}

// --- leader side ------------------------------------------------------

// Propose submits a transaction for atomic broadcast. Only the leader
// orders transactions: on any other member Propose returns ErrNoLeader
// at once and enqueues nothing — LeaderContact names where the leader
// is. On the leader it returns the state machine's result once the
// transaction is committed and applied here.
//
// Propose is safe for arbitrary concurrency; concurrent calls are
// coalesced by the leader's proposer into group-commit frames instead
// of queueing on a serialized quorum round trip.
func (n *Node) Propose(txn []byte) ([]byte, error) {
	result, _, err := n.ProposeZxid(txn)
	return result, err
}

// ProposeZxid is Propose that also returns the zxid the transaction was
// ordered at — what a session carries as its last-seen stamp, so any
// replica it reads from next has applied the write first.
func (n *Node) ProposeZxid(txn []byte) (result []byte, zxid uint64, err error) {
	o, err := n.propose(txn)
	return o.result, o.zxid, err
}

// propose enqueues one transaction for the proposer goroutine and waits
// for its frame to commit and apply, returning the per-txn state-machine
// result (the apply wakes the waiter only after the applied point covers
// it). A step-down fails a transaction already enqueued with ErrNoLeader
// too: it may still commit under the next leader.
func (n *Node) propose(txn []byte) (proposeOutcome, error) {
	p := &pendingTxn{txn: txn, ch: make(chan proposeOutcome, 1)}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return proposeOutcome{}, ErrStopped
	}
	if n.role != roleLeader {
		n.mu.Unlock()
		return proposeOutcome{}, ErrNoLeader
	}
	n.propQ = append(n.propQ, p)
	n.gQueue.Set(int64(len(n.propQ)))
	if n.propGate == propIdle {
		n.propCond.Signal()
	}
	n.mu.Unlock()

	timer := getProposeTimer(proposeTimeout)
	defer putProposeTimer(timer)
	select {
	case o := <-p.ch:
		return o, o.err
	case <-n.stopCh:
		return proposeOutcome{}, ErrStopped
	case <-timer.C:
		// The transaction stays queued/in flight; it may still commit
		// (the session layer's retry dedup absorbs that), but this
		// caller stops waiting.
		return proposeOutcome{}, fmt.Errorf("zab: proposal not committed within %v", proposeTimeout)
	}
}

// uncommittedFramesLocked counts proposed-but-uncommitted frames — the
// pipelining window occupancy.
func (n *Node) uncommittedFramesLocked() int {
	i := sort.Search(len(n.log), func(i int) bool { return n.log[i].Zxid > n.commitZxid })
	return len(n.log) - i
}

// proposerGate is what keeps the proposer from building its next
// frame: the signal that can lift each gate is sent only while the
// proposer waits on that gate.
type proposerGate uint8

const (
	propOpen   proposerGate = iota // it can build a frame now (or is building one)
	propIdle                       // the queue is empty: lifted by an enqueue
	propWindow                     // MaxInflightFrames uncommitted: lifted by a commit advance
	propApplyQ                     // the apply queue is full: lifted by an apply drain
)

// proposerGateLocked names the gate the proposer must wait on, or
// propOpen. The epoch barrier is exempt from the pipelining window: a
// leader elected with an inherited uncommitted tail of
// MaxInflightFrames or more frames must still propose its barrier,
// because nothing inherited can commit until a current-epoch frame
// exists (the §5.4.2 rule) — gating the barrier on the window would
// livelock the whole shard. The same exemption covers the apply-queue
// bound, which is the commit→apply backpressure: a full queue stops NEW
// txn frames so a slow state machine cannot grow the log without bound.
func (n *Node) proposerGateLocked() proposerGate {
	switch {
	case len(n.propQ) == 0:
		return propIdle
	case n.propQ[0].noop:
		return propOpen
	case n.uncommittedFramesLocked() >= n.cfg.MaxInflightFrames:
		return propWindow
	case len(n.applyQ) >= maxApplyQueueFrames:
		return propApplyQ
	}
	return propOpen
}

// proposerLoop is the group-commit heart: it drains the proposal
// queue, coalesces pending transactions into one frame bounded by
// MaxBatchTxns/maxBatchBytes, appends it to the log and hands it to
// the per-follower senders — without waiting for the previous frame's
// acks, up to MaxInflightFrames outstanding. It stays a goroutine of
// its own: the delay of its wake-up is the batching window, in which
// the proposals that arrive meanwhile join the frame; a handler that
// built the frame itself would leave no such window.
func (n *Node) proposerLoop(gen uint64) {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for n.leaderGenLocked(gen) {
			if n.propGate = n.proposerGateLocked(); n.propGate == propOpen {
				break
			}
			idle := n.propGate == propIdle
			n.propCond.Wait()
			if idle && n.uncommittedFramesLocked() > 1 {
				// The enqueue's Signal makes the proposer the next goroutine
				// to run where the enqueuer blocks, so it would cut a frame
				// per proposal. With two or more frames in flight, proposals
				// arrive faster than a quorum round trip drains them and the
				// next ones are already runnable: yield once so they join
				// this frame. An idle pipeline — one or two closed-loop
				// writers — proposes at once.
				n.mu.Unlock()
				runtime.Gosched()
				n.mu.Lock()
			}
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
		n.wakeStreamsLocked()
		if n.lastZxidLocked() > n.st.LastDurableZxid() {
			n.syncCond.Signal()
		}
		// A single-member "quorum" commits once the store reports the
		// frame durable (on append, or when the sync loop's fsync covers
		// it); otherwise the senders' acks advance the horizon. The
		// proposer leaves the apply to applyLoop: its own next turn is
		// the next frame.
		if n.advanceLeaderCommitLocked() {
			n.applyCond.Signal()
		}
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

// advanceLeaderCommitLocked recomputes the quorum-replicated horizon
// from the cumulative acks and commits every frame of the CURRENT
// epoch fully below it (frames inherited from older epochs commit
// transitively — the barrier no-op guarantees one current-epoch frame
// exists, the Raft §5.4.2 safety argument). It reports whether the
// frames it queued need an applier: the horizon moved and no drain is
// running that would take them anyway. The caller applies them itself
// (applyCommitted) or signals applyLoop.
func (n *Node) advanceLeaderCommitLocked() bool {
	if n.role != roleLeader {
		return false
	}
	tips := append(n.tipsScratch[:0], n.selfTipLocked())
	for _, s := range n.streams {
		tips = append(tips, s.match)
	}
	slices.Sort(tips) // ascending; allocation-free, unlike sort.Slice
	n.tipsScratch = tips
	q := tips[len(tips)-n.quorum()]
	if q <= n.commitZxid {
		return false
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
	if !n.advanceCommitLocked(target) {
		return false
	}
	n.gInflight.Set(int64(n.uncommittedFramesLocked()))
	return !n.applying
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
// horizon with the leader's now-advanced durable tip, applying what
// that commits when no apply is running.
func (n *Node) leaderSyncLoop(gen uint64) {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for n.leaderGenLocked(gen) && n.lastZxidLocked() <= n.st.LastDurableZxid() {
			n.syncCond.Wait()
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
		apply := n.advanceLeaderCommitLocked()
		n.mu.Unlock()
		if apply {
			n.applyCommitted()
		}
	}
}

// followerStream is the leader's side of one follower's or observer's
// log stream, guarded by n.mu.
type followerStream struct {
	cond *sync.Cond // on n.mu; its sender waits here for something to send

	match uint64 // cumulative ack: verified and durable on the follower
	sent  uint64 // highest zxid handed to a window
	base  uint64 // the follower's last reported position; where a failed stream rewinds to

	commit  uint64 // highest commit horizon an issued window carried
	frames  int    // frames in flight, bounded by maxFramesPerSend
	windows int    // windows in flight
	empty   bool   // one of them has no frames (at most one does)
	failed  bool   // a window was refused or lost: drain, rewind, back off

	// Observer streams only (learner.go).
	attach      bool      // opened mid-term: the first window probes our tip
	dropped     bool      // the leader gave the observer up; the sender exits
	downSince   time.Time // heartbeats have failed since; zero while they land
	behindSince time.Time // match has trailed the commit horizon since
}

// newStreamLocked opens a stream at the leader's tip. attach marks one
// opened mid-term, whose first window probes (nextWindowLocked).
func (n *Node) newStreamLocked(attach bool) *followerStream {
	tip := n.lastZxidLocked()
	return &followerStream{cond: sync.NewCond(&n.mu), sent: tip, base: tip, attach: attach}
}

// wakeStreamsLocked wakes every stream's sender: the log tip or the
// commit horizon moved, and either may give a stream a window to send.
func (n *Node) wakeStreamsLocked() {
	for _, s := range n.streams {
		s.cond.Signal()
	}
	for _, s := range n.learners {
		s.cond.Signal()
	}
}

// streamLiveLocked reports whether a stream started under the given
// leadership generation is still to be served.
func (n *Node) streamLiveLocked(gen uint64, s *followerStream) bool {
	return !s.dropped && n.leaderGenLocked(gen)
}

// window is what the leader remembers of one in-flight proposeReq; done
// delivers the follower's reply.
type window struct {
	epoch  uint64
	prev   uint64
	frames int
	probe  bool // names the leader's tip, not a position on the stream
	done   <-chan transport.CallResult
}

// senderLoop streams the log to one follower as windows: it issues the
// next one as soon as there are frames past s.sent (or a commit horizon
// the follower has not been sent), without waiting for the acks of the
// windows before it — up to maxFramesPerSend frames in flight. Each
// window completes on its own goroutine (awaitWindow); acks are
// cumulative and may return in any order. A refused or failed window
// stops the issuing, lets the flight drain, rewinds s.sent to the
// position the follower reported and backs off one heartbeat; a
// follower that answered NeedSync pulls the missing state itself
// meanwhile.
func (n *Node) senderLoop(gen, id uint64, s *followerStream) {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		var req proposeReq
		var w window
		for ok := false; n.streamLiveLocked(gen, s); s.cond.Wait() {
			if s.failed {
				ok = s.windows == 0 // drained: time to rewind
			} else {
				req, w, ok = n.nextWindowLocked(s)
			}
			if ok {
				break
			}
		}
		if !n.streamLiveLocked(gen, s) {
			n.mu.Unlock()
			return
		}
		if s.failed {
			s.failed, s.sent, s.commit = false, s.base, 0
			n.mu.Unlock()
			if !n.sleepInterruptible(n.cfg.HeartbeatInterval) {
				return
			}
			continue
		}
		n.mu.Unlock()

		// On a connection that pipelines natively the window is on the
		// wire, in stream order, before the next one is built.
		w.done = n.callPeerAsync(id, req.encode())
		n.wg.Add(1)
		go n.awaitWindow(gen, id, s, w)
	}
}

// wantsFramesLocked reports whether a stream has frames to send and
// room in its flight for them; wantsCommitLocked whether the commit
// horizon has moved past what any of its windows carried, and the one
// empty window a stream may have in flight is not out.
func (n *Node) wantsFramesLocked(s *followerStream) bool {
	return s.sent < n.lastZxidLocked() && s.frames < maxFramesPerSend
}

func (n *Node) wantsCommitLocked(s *followerStream) bool {
	return n.commitZxid > s.commit && !s.empty
}

// nextWindowLocked builds the next window for a stream and books it as
// in flight; ok is false when there is nothing to send.
func (n *Node) nextWindowLocked(s *followerStream) (req proposeReq, w window, ok bool) {
	req = proposeReq{Epoch: n.epoch, LeaderID: n.cfg.ID, Commit: n.commitZxid}
	probe := false
	switch {
	case s.attach:
		// An observer joined mid-term, so no epoch barrier is about to
		// attach at our tip and tell us where it stands: probe instead.
		// One that holds the tip is caught up (and now knows its log is
		// ours); any other answers NeedSync and pulls. Nothing else is in
		// flight: attach is only set on a stream just opened.
		s.attach = false
		req.PrevZxid, probe = n.lastZxidLocked(), true
	case n.wantsFramesLocked(s):
		req.PrevZxid = s.sent
		if i := n.indexAfterLocked(s.sent); i >= 0 {
			end := min(len(n.log), i+maxFramesPerSend-s.frames)
			req.Entries = n.log[i:end:end]
		}
		if len(req.Entries) == 0 {
			// s.sent is not a position we can stream from (truncated
			// away, or a divergent tail the follower kept across a
			// failover). Probe with OUR tip: a follower that holds it is
			// caught up; any other answers NeedSync and starts its own
			// sync pull. Probing with s.sent instead would be acked by a
			// divergent follower forever, wedging it silently.
			if s.empty {
				return req, w, false
			}
			req.PrevZxid, probe = n.lastZxidLocked(), true
		}
	case n.wantsCommitLocked(s):
		// Nothing to send but the horizon. The window names the acked
		// position, which the follower is known to hold, so it can
		// never be taken for a probe — whatever it overtakes.
		req.PrevZxid = s.match
	default:
		return req, w, false
	}
	w = window{epoch: req.Epoch, prev: req.PrevZxid, frames: len(req.Entries), probe: probe}
	if w.frames > 0 {
		s.sent = req.Entries[w.frames-1].Last()
	} else {
		s.empty = true
	}
	s.frames += w.frames
	s.windows++
	s.commit = max(s.commit, req.Commit)
	return req, w, true
}

// awaitWindow completes one in-flight window: it books it out of the
// stream and folds the follower's answer into the stream's state. An
// ack that commits is applied right here when no apply is running: this
// goroutine already holds the news, and handing it to applyLoop would
// put one more wake-up between the quorum and the proposer's reply.
func (n *Node) awaitWindow(gen, id uint64, s *followerStream, w window) {
	defer n.wg.Done()
	var resp proposeResp
	res := <-w.done
	err := res.Err
	if err != nil {
		n.dropConn(id)
	} else {
		resp, err = decodeProposeResp(res.Payload)
	}
	if n.foldWindow(gen, s, w, resp, err) {
		n.applyCommitted()
	}
}

// foldWindow is awaitWindow's part under the node mutex; it reports
// whether the window committed frames that need an applier.
func (n *Node) foldWindow(gen uint64, s *followerStream, w window, resp proposeResp, err error) (apply bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s.windows--
	s.frames -= w.frames
	if w.frames == 0 {
		s.empty = false
	}
	if !n.streamLiveLocked(gen, s) {
		return false
	}
	switch {
	case err != nil:
		s.failed = true
	case resp.Epoch > w.epoch:
		if resp.Epoch > n.epoch {
			n.adoptEpochLocked(resp.Epoch, 0)
			n.leaderID = 0
		}
	case resp.Ack:
		s.base = max(s.base, resp.LastZxid)
		if w.probe {
			// The follower holds our tip of then: stream on from there.
			s.sent = w.prev
		}
		if resp.LastZxid > s.match {
			s.match = resp.LastZxid
			apply = n.advanceLeaderCommitLocked()
		}
	default:
		// Refused: the follower is missing a window, or lagging or
		// divergent and syncing from us.
		s.failed = true
		s.base = resp.LastZxid
	}
	// Only this stream's sender cares that a window came home, and only
	// if that leaves it something to do.
	if s.failed && s.windows == 0 || !s.failed && (n.wantsFramesLocked(s) || n.wantsCommitLocked(s)) {
		s.cond.Signal()
	}
	return apply
}

// indexAfterLocked returns the log index of the frame following zxid z,
// or -1 when z is not a frame boundary this log holds — a stream window
// then probes and a sync pull ships the snapshot.
func (n *Node) indexAfterLocked(z uint64) int {
	if z == n.snapZxid {
		return 0
	}
	i := sort.Search(len(n.log), func(i int) bool { return n.log[i].Last() >= z })
	if i < len(n.log) && n.log[i].Last() == z {
		return i + 1
	}
	return -1
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

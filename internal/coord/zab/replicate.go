package zab

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
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

// --- follower side ----------------------------------------------------

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

package zab

import (
	"fmt"
	"time"
)

// Leader reads. A leader may answer a linearizable read from its own
// state, with nothing proposed, once ReadBarrier returns: no rival can
// have committed a write it lacks, and it has applied every write
// committed before the call. The first is the read lease: when a quorum
// acks a heartbeat round that began at T on the leader's clock, no acker
// grants a vote before T + ElectionTimeout on its own (the stickiness
// check in handleRequestVote), and any rival's vote quorum intersects the
// ack quorum; discounting the skew bound, the lease runs to
// T + ElectionTimeout - MaxClockSkew. Without a live lease, acks for a
// round that began after the call show the same with no clock: each acker
// still answered to this epoch then (Raft's ReadIndex). The second is the
// epoch barrier: heartbeat acks need no fsync, so a new leader's lease is
// funded long before the barrier that commits its inherited tail
// applies. Every step-down path funnels through failLeaderLocked, which
// revokes the lease (leaseRound zeroed) before the role changes.

// leaseDeadline computes the expiry a quorum of heartbeat acks
// gathered for a round that began at `round` supports. A skew bound at
// or above the election timeout yields a deadline that is never in the
// future: the lease is off rather than unsound.
func leaseDeadline(round time.Time, electionTimeout, maxSkew time.Duration) time.Time {
	margin := electionTimeout - maxSkew
	if margin < 0 {
		margin = 0
	}
	return round.Add(margin)
}

// extendLease records a quorum's acks for a heartbeat round that began
// at `round` under `epoch` (an older leadership's acks fund nothing).
func (n *Node) extendLease(round time.Time, epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == roleLeader && n.epoch == epoch && !n.stopped && round.After(n.leaseRound) {
		n.leaseRound = round
		n.wakeReadersLocked()
	}
}

// wakeReadersLocked releases the parked ReadBarrier calls: the lease
// moved, a barrier applied, or the leadership ended.
func (n *Node) wakeReadersLocked() {
	if n.readWake != nil {
		close(n.readWake)
		n.readWake = nil
	}
}

// ReadBarrier returns once this node may answer a linearizable read from
// its state, with the zxid that state has applied: it leads, it has
// applied its epoch's barrier, and its lease is live or a quorum acked a
// heartbeat round that began after the call. A call that has to wait
// starts that round itself rather than wait for the scheduled one,
// unless a round asked for by another call has not begun yet, which
// serves both. A non-leader gets ErrNoLeader; a leader that cannot vouch
// within bound, an error.
func (n *Node) ReadBarrier(bound time.Duration) (applied uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	start, epoch := n.now(), n.epoch
	var timer *time.Timer
	for {
		barrier := n.lastApplied >= makeZxid(epoch, 1)
		switch {
		case n.role != roleLeader || n.epoch != epoch:
			return 0, ErrNoLeader
		case barrier && (n.leaseRound.After(start) ||
			n.now().Before(leaseDeadline(n.leaseRound, n.cfg.ElectionTimeout, n.cfg.MaxClockSkew))):
			return n.lastApplied, nil
		}
		if timer == nil {
			timer = getProposeTimer(bound)
			defer putProposeTimer(timer)
		}
		if n.readWake == nil {
			n.readWake = make(chan struct{})
		}
		wake := n.readWake
		// Until the epoch barrier applies (which wakes this call), rounds
		// would only repeat; and a call that cannot wait has no use for one.
		beat := barrier && bound > 0 && !n.roundDue
		n.roundDue = n.roundDue || beat
		n.mu.Unlock()
		if beat {
			n.heartbeat()
		}
		select {
		case <-wake:
		case <-timer.C:
			n.mu.Lock()
			return 0, fmt.Errorf("zab: node %d vouched for no read within %v", n.cfg.ID, bound)
		}
		n.mu.Lock()
	}
}

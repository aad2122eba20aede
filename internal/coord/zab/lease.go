package zab

import (
	"fmt"
	"time"

	"repro/internal/coord/zab/core"
)

// Leader reads (DESIGN §13.3). A leader may answer a linearizable read
// from its own state, with nothing proposed, once ReadBarrier returns: no
// rival can have committed a write it lacks — its lease is live, or a
// quorum acked a round that began after the call (Raft's ReadIndex) —
// and it has applied its epoch's barrier, and with it every write
// committed before the call. The election core counts the acks
// (core.Election.Ack); every step-down revokes the lease in
// failLeaderLocked, in the critical section that changes the role.

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
// begins that round itself rather than wait for the scheduled one. A
// non-leader gets ErrNoLeader; a leader that cannot vouch within bound,
// an error.
func (n *Node) ReadBarrier(bound time.Duration) (applied uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	start, epoch := n.now(), n.el.Epoch()
	var timer *time.Timer
	for {
		barrier := n.lastApplied >= makeZxid(epoch, 1)
		switch {
		case n.el.Role() != core.Leader || n.el.Epoch() != epoch:
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
		if barrier && bound > 0 {
			n.stepLocked(func() core.Ready { return n.el.Beat(n.now()) })
		}
		n.mu.Unlock()
		select {
		case <-wake:
		case <-timer.C:
			n.mu.Lock()
			return 0, fmt.Errorf("zab: node %d vouched for no read within %v", n.cfg.ID, bound)
		}
		n.mu.Lock()
	}
}

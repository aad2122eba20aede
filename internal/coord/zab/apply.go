package zab

import (
	"fmt"
	"sort"
	"time"
)

// maxApplyQueueFrames bounds the commit→apply backlog: once this many
// committed frames are not yet applied — those an applier is applying
// included — the leader's proposer stops admitting new txn frames
// (backpressure, so a slow state machine cannot grow the log without
// bound).
const maxApplyQueueFrames = 256

// committedLocked returns the committed frames not yet applied, Zxid >
// lastApplied and Last() ≤ commitZxid, as a sub-slice of n.log capped
// at its length. An applier reads it outside mu, which is safe because
// no log element at or below the commit horizon is ever written in
// place: truncation copies the suffix it keeps, appends write past the
// tip, syncFromLeader's rollback trims only the frames it has just
// appended (uncommitted), and a snapshot install replaces the slice
// under applyMu, which every applier holds.
func (n *Node) committedLocked() []Frame {
	i := sort.Search(len(n.log), func(i int) bool { return n.log[i].Zxid > n.lastApplied })
	j := max(i, sort.Search(len(n.log), func(i int) bool { return n.log[i].Last() > n.commitZxid }))
	return n.log[i:j:j]
}

// publishBacklogLocked sets the apply gauges from the log — frames
// committed but not applied, and their txns (a no-op counts one) — and
// returns the frame count.
func (n *Node) publishBacklogLocked() int {
	frames := n.committedLocked()
	txns := 0
	for _, f := range frames {
		txns += int(f.Last() - f.Zxid + 1)
	}
	n.gApplyQueue.Set(int64(len(frames)))
	n.gApplyLag.Set(int64(txns))
	return len(frames)
}

// maxApplyRunTxns caps how many txns one coalesced apply run hands the
// state machine, bounding both scheduler working-set and waiter-wakeup
// latency for the frames at the front of the run.
const maxApplyRunTxns = 256

// applyLoop is the apply side of the commit→apply split on a member
// that does not lead: it applies what the commit horizon covers and
// runs the state machine OUTSIDE the node mutex, so follower acks,
// heartbeats and reads never queue behind state-machine work. A
// follower keeps the hand-off because the goroutine that commits there
// is answering the leader: applying on it would sit on the ack path. A
// leader applies on the goroutine that commits (applyCommitted) and
// leaves this loop what that goroutine cannot take.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for !n.stopped && (n.applying || len(n.committedLocked()) == 0) {
			n.applyCond.Wait()
		}
		stopped := n.stopped
		n.mu.Unlock()
		if stopped {
			return
		}
		n.applyMu.Lock()
		n.drainCommitted()
		n.applyMu.Unlock()
	}
}

// applyCommitted applies the frames a leader's commit advance just
// committed, on the goroutine that advanced it — a window completion
// or the leader sync loop — so the proposers are woken without a
// hand-off to applyLoop. If applyMu is taken (an applier finishing up,
// a snapshot being cut), applyLoop is signalled to take the frames
// once it is free.
func (n *Node) applyCommitted() {
	if !n.applyMu.TryLock() {
		n.mu.Lock()
		n.applyCond.Signal()
		n.mu.Unlock()
		return
	}
	n.drainCommitted()
	n.applyMu.Unlock()
}

// drainCommitted applies committed frames straight from the log until
// none is left unapplied. The caller holds applyMu, and frames are
// taken only under it: two appliers never hold frames at once, and no
// snapshot install (syncFromLeader) or snapshot cut (cutSnapshot) can
// come between a take and its apply — so apply order is zxid order.
// While it runs, n.applying tells a committer that the frames it
// commits will be taken here.
func (n *Node) drainCommitted() {
	n.mu.Lock()
	for !n.stopped {
		frames := n.committedLocked()
		if len(frames) == 0 {
			break
		}
		n.applying = true
		n.mu.Unlock()
		n.applyFrames(frames)
		n.mu.Lock()
		n.maybeTruncateLocked()
		if n.propGate == propApplyQ {
			n.propCond.Signal()
		}
	}
	n.applying = false
	n.mu.Unlock()
}

// applyFrames runs committed frames through the state machine and
// wakes their waiters. Adjacent frames of the same epoch are coalesced
// into one ApplyBatch, so group-commit framing survives the hop.
func (n *Node) applyFrames(frames []Frame) {
	for i := 0; i < len(frames); {
		e := frames[i]
		if e.Noop {
			n.mu.Lock()
			n.setAppliedLocked(e.Zxid)
			n.wakeWaiterLocked(e.Zxid, nil)
			n.wakeAppliedLocked()
			n.wakeReadersLocked() // an epoch barrier: what ReadBarrier waits for
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
			n.applyMerged = n.applyMerged[:0]
			for k := i; k < j; k++ {
				n.applyMerged = append(n.applyMerged, frames[k].Txns...)
			}
			txns = n.applyMerged
		}
		results := n.sm.ApplyBatch(txns, e.Zxid)
		n.mu.Lock()
		off := 0
		for k := i; k < j; k++ {
			f := frames[k]
			n.setAppliedLocked(f.Last())
			for t := range f.Txns {
				var res []byte
				if off+t < len(results) {
					res = results[off+t]
				}
				n.wakeWaiterLocked(f.Zxid+uint64(t), res)
			}
			off += len(f.Txns)
		}
		n.wakeAppliedLocked()
		n.publishBacklogLocked()
		n.mu.Unlock()
		i = j
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

// WaitApplied blocks until this node's state machine has applied the
// given zxid, for at most bound (or until the node stops). A zxid
// already applied costs one atomic load and no lock. Otherwise the call
// registers one channel keyed by the exact zxid it needs and performs a
// single deadline-aware select on it — a timeout wakes only this caller,
// never the other waiters.
//
// A call parked for a frame this node has verified asks the leader for
// its commit (askLocked); the horizon does not wait for the next data
// window or heartbeat.
func (n *Node) WaitApplied(zxid uint64, bound time.Duration) error {
	if n.applied.Load() >= zxid {
		return nil
	}
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
	n.askLocked(false)
	n.mu.Unlock()

	timer := getProposeTimer(bound)
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
		return fmt.Errorf("zab: zxid %x not applied locally within %v", zxid, bound)
	}
}

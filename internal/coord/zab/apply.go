package zab

import (
	"fmt"
	"sort"
	"time"
)

// maxApplyQueueFrames bounds the commit→apply queue: how many committed
// frames may sit between the commit horizon and the apply loop before
// the leader's proposer stops admitting new frames (backpressure, so a
// slow state machine cannot grow the log without bound). Followers cap
// their queue at the same bound and pull the remainder as the apply
// loop drains.
const maxApplyQueueFrames = 256

// enqueueCommittedLocked moves committed-but-unqueued frames from the
// log onto the apply queue, in zxid order, up to the queue bound. The
// bound is a pull window: when the queue is full the remainder stays
// in the log and the applier pulls it after draining (and the
// proposer stops admitting new frames until then). Waking an applier
// is the caller's part.
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
}

// maxApplyRunTxns caps how many txns one coalesced apply run hands the
// state machine, bounding both scheduler working-set and waiter-wakeup
// latency for the frames at the front of the run.
const maxApplyRunTxns = 256

// applyLoop is the apply side of the commit→apply split on a member
// that does not lead: it drains the queue that advanceCommitLocked
// feeds and runs the state machine OUTSIDE the node mutex, so follower
// acks, heartbeats and reads never queue behind state-machine work. A
// follower keeps the hand-off because the goroutine that commits there
// is answering the leader: applying on it would sit on the ack path. A
// leader applies on the goroutine that commits (applyCommitted) and
// leaves this loop what that goroutine cannot take.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		for !n.stopped && len(n.applyQ) == 0 {
			n.applyCond.Wait()
		}
		stopped := n.stopped
		n.mu.Unlock()
		if stopped {
			return
		}
		n.applyMu.Lock()
		n.drainApplyQueue()
		n.applyMu.Unlock()
	}
}

// applyCommitted applies the frames a leader's commit advance just
// queued, on the goroutine that advanced it — a window completion or
// the leader sync loop — so the proposers are woken without a hand-off
// to applyLoop. If applyMu is taken (an applier finishing up, a
// snapshot being cut), applyLoop is signalled to take the frames once
// it is free.
func (n *Node) applyCommitted() {
	if !n.applyMu.TryLock() {
		n.mu.Lock()
		n.applyCond.Signal()
		n.mu.Unlock()
		return
	}
	n.drainApplyQueue()
	n.applyMu.Unlock()
}

// drainApplyQueue applies queued frames until the queue is empty. The
// caller holds applyMu, and the queue is drained only AFTER applyMu is
// taken: two appliers can never hold drained batches at once, and no
// snapshot install (syncFromLeader) or snapshot cut (cutSnapshot)
// can come between a drain and its apply — so apply
// order is zxid order. While it runs, n.applying tells a committer that
// the frames it queues will be taken here.
func (n *Node) drainApplyQueue() {
	n.mu.Lock()
	for len(n.applyQ) > 0 && !n.stopped {
		n.applying = true
		frames := append(n.applyBatch[:0], n.applyQ...)
		n.applyBatch = frames
		n.applyQ = n.applyQ[:0]
		n.mu.Unlock()
		n.applyFrames(frames)
		n.mu.Lock()
		n.enqueueCommittedLocked() // pull the window the bound withheld
		n.maybeTruncateLocked()
		if n.propGate == propApplyQ {
			n.propCond.Signal()
		}
	}
	n.applying = false
	n.mu.Unlock()
}

// applyFrames runs drained frames through the state machine and wakes
// their waiters. Adjacent frames of the same epoch are coalesced into
// one ApplyBatch, so group-commit framing survives the queue hop.
func (n *Node) applyFrames(frames []Frame) {
	for i := 0; i < len(frames); {
		e := frames[i]
		if e.Noop {
			n.mu.Lock()
			n.setAppliedLocked(e.Zxid)
			n.applyLagTxns--
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
			n.applyLagTxns -= len(f.Txns)
		}
		n.wakeAppliedLocked()
		n.gApplyLag.Set(int64(n.applyLagTxns))
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

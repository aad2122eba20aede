package zab

import (
	"sync"
	"time"
)

func (n *Node) resetElectionTimer() {
	n.lastContact = n.now()
	n.electionDue = n.cfg.ElectionTimeout +
		time.Duration(n.rng.Int63n(int64(n.cfg.ElectionTimeout)))
}

// freshElectionTimer sets the timer of a voter on a fresh store: one that
// has adopted no epoch, granted no vote and holds no frame. Such a voter
// never acked a heartbeat (adoptEpochLocked persists an epoch before the
// first answer under it), so no lease waits on it: its timer starts aged
// a full ElectionTimeout, and it neither refuses votes (the stickiness
// check in handleRequestVote) nor waits to campaign. Its first campaign
// is due one HeartbeatInterval per peer with a higher ID later, so the
// highest ID campaigns at its first tick and the others grant at once —
// ZooKeeper's tie-break toward the higher server id. A campaign that
// fails persists its self-vote, and the node's timer is then the usual
// one.
func (n *Node) freshElectionTimer() {
	rank := 0
	for id := range n.cfg.Peers {
		if id > n.cfg.ID {
			rank++
		}
	}
	n.lastContact = n.now().Add(-n.cfg.ElectionTimeout)
	n.electionDue = n.cfg.ElectionTimeout + time.Duration(rank)*n.cfg.HeartbeatInterval
}

// setEpochLocked enters a new epoch. What the node verified against the
// previous epoch's leader, and the commit horizon that leader
// announced, say nothing about the new leader's log: both fall back to
// the commit horizon, which every leader's log contains.
func (n *Node) setEpochLocked(epoch uint64) {
	n.epoch = epoch
	n.verified = n.commitZxid
	n.leaderCommit = n.commitZxid
	n.gapBeats = 0
}

// adoptEpochLocked moves the node to follower state for a newer epoch.
// A newer epoch is made durable before the node answers anything under
// it, so a store whose hard state reads (0, 0) proves that its node never
// acked a leader (NewNode's fresh-voter rule rests on that). A node that
// cannot persist the epoch does not adopt it: it changes nothing and
// reports false.
func (n *Node) adoptEpochLocked(epoch, leaderID uint64) bool {
	if epoch > n.epoch {
		if n.st.SaveHardState(epoch, n.grantedEpoch) != nil {
			return false
		}
		n.setEpochLocked(epoch)
	}
	if n.role == roleLeader {
		n.failLeaderLocked(ErrNoLeader)
	}
	n.role = roleFollower
	if leaderID != 0 {
		n.leaderID = leaderID
	}
	n.resetElectionTimer()
	return true
}

// gapBeatsBeforeSync is how many heartbeats in a row may announce a
// commit horizon past a log tip that has not moved before the follower
// stops waiting for the stream and pulls (a member that came back behind
// while the ensemble is idle gets nothing on the stream). Frames the
// leader committed are normally in flight, and a lost window costs the
// stream a refusal and a back-off — up to three beats — to resend.
const gapBeatsBeforeSync = 4

func (n *Node) handleHeartbeat(m heartbeatReq) heartbeatResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Epoch >= n.epoch && n.adoptEpochLocked(m.Epoch, m.LeaderID) {
		n.heardEpoch, n.heardID, n.heardContact = m.Epoch, m.LeaderID, m.Contact
		n.followCommitLocked(m.Commit)
		if m.Commit <= n.lastZxidLocked() {
			n.gapBeats = 0
		} else if n.gapBeats++; n.gapBeats >= gapBeatsBeforeSync {
			n.triggerSyncLocked()
		}
	}
	return heartbeatResp{Epoch: n.epoch, LastZxid: n.lastZxidLocked()}
}

func (n *Node) handleRequestVote(m requestVoteReq) requestVoteResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.Observer || m.Epoch <= n.grantedEpoch || m.Epoch <= n.epoch {
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
	// voting inside that window. Only a voter on a fresh store starts
	// with its timer aged (freshElectionTimer): it never acked, so it
	// funds no lease. Election liveness is unaffected: a
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
	n.setEpochLocked(m.Epoch)
	if n.role == roleLeader {
		n.failLeaderLocked(ErrNoLeader)
	}
	n.role = roleFollower
	n.leaderID = 0 // unknown until the new leader heartbeats
	n.resetElectionTimer()
	return requestVoteResp{Granted: true, Epoch: n.epoch}
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
	// Step-down revokes the read lease, wakes parked reads and horizon
	// requests and drops the observers' streams (their contact timers
	// bring them to the next leader); all are leader-only state.
	n.leaseRound = time.Time{}
	n.wakeReadersLocked()
	n.wakeAsksLocked()
	for id := range n.learners {
		n.dropLearnerLocked(id)
	}
	n.gObsCount.Set(0)
	n.gObsLagTxns.Set(0)
	n.gObsLagMS.Set(0)
	n.gQueue.Set(0)
	n.gInflight.Set(0)
	// Every leader goroutine of the retired generation exits on its next
	// check; the streams are leader-only state, like the learners.
	n.propCond.Broadcast()
	n.syncCond.Broadcast()
	n.wakeStreamsLocked()
	n.streams = nil
}

// leaderGenLocked reports whether the node still leads under the given
// leadership generation.
func (n *Node) leaderGenLocked(gen uint64) bool {
	return n.role == roleLeader && n.leaderGen == gen && !n.stopped
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
		if n.cfg.Observer {
			n.gObsLagTxns.Set(int64(n.leaderCommit - min(n.leaderCommit, n.lastApplied)))
		}
		n.mu.Unlock()
		if due && n.cfg.Observer {
			// Silence means the stream is gone, not that a leader is
			// needed: an observer looks for the leader and joins it again.
			n.joinLeader()
		} else if due {
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
	n.setEpochLocked(next)
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
	n.streams = make(map[uint64]*followerStream, len(n.cfg.Peers)-1)
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
	// Every stream starts at our own tip: a follower that matches it
	// attaches the barrier, any other answers NeedSync and syncs.
	for id := range n.cfg.Peers {
		if id != n.cfg.ID {
			n.streams[id] = n.newStreamLocked(false)
		}
	}
	n.wg.Add(2 + len(n.streams))
	go n.proposerLoop(gen)
	go n.leaderSyncLoop(gen)
	for id, s := range n.streams {
		go n.senderLoop(gen, id, s)
	}
	n.mu.Unlock()
	// The first round goes out now, not a HeartbeatInterval from now:
	// it is how the other members learn who leads and where clients
	// reach it (LeaderContact), which a follower-homed session's first
	// write waits for.
	n.heartbeat()
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
		n.heartbeat()
	}
}

// heartbeat sends one heartbeat round if this node leads, counting the
// acks toward its read lease. The replies are awaited on goroutines of
// their own, so it returns at once.
func (n *Node) heartbeat() {
	n.mu.Lock()
	n.roundDue = false
	if n.role != roleLeader {
		n.mu.Unlock()
		return
	}
	// Quorum-loss watchdog: a leader whose pipeline cannot commit
	// (partitioned, too few live followers) steps down instead of
	// wedging its clients, so a healthier member can win the next
	// election and resolve the uncommitted tail via sync.
	if n.commitZxid < n.lastZxidLocked() {
		if now := n.now(); n.stallSince.IsZero() {
			n.stallSince = now
		} else if now.Sub(n.stallSince) > 2*n.cfg.ElectionTimeout {
			n.failLeaderLocked(ErrNoQuorum)
			n.role = roleFollower
			n.leaderID = 0
			n.resetElectionTimer()
			n.mu.Unlock()
			return
		}
	} else {
		n.stallSince = time.Time{}
	}
	req := heartbeatReq{Epoch: n.epoch, LeaderID: n.cfg.ID, Commit: n.commitZxid, Contact: n.cfg.Contact}
	n.beatLearnersLocked(req)
	n.mu.Unlock()
	payload := req.encode()
	// Lease bookkeeping: the round timestamp is taken BEFORE any
	// heartbeat is sent, so a quorum of acks proves the promise
	// quorum was intact at `round` (lease.go).
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
			// Only an ack that names this epoch counts: a member that
			// answers under an older one has not adopted it.
			if resp.Epoch != req.Epoch {
				n.mu.Lock()
				if resp.Epoch > n.epoch && n.adoptEpochLocked(resp.Epoch, 0) {
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

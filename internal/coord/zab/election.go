package zab

import (
	"time"

	"repro/internal/coord/zab/core"
)

// stepLocked runs one step of the election core, core.Election, whose
// host the node is, and carries out what it asks: the hard state saved
// first — a step the store cannot save is undone and asks nothing — then
// the role change, then the messages. ok reports whether the step stands.
func (n *Node) stepLocked(step func() core.Ready) (rd core.Ready, ok bool) {
	prev := n.el
	if rd = step(); rd.Save && n.st.SaveHardState(n.el.Epoch(), n.el.Granted()) != nil {
		n.el = prev
		return core.Ready{}, false
	}
	if n.el.Epoch() != prev.Epoch() {
		// What was verified against, and announced by, the previous
		// epoch's leader falls back to the commit horizon.
		n.verified, n.leaderCommit, n.gapBeats = n.commitZxid, n.commitZxid, 0
	}
	if rd.SteppedDown && rd.Stalled {
		n.failLeaderLocked(ErrNoQuorum)
	} else if rd.SteppedDown {
		n.failLeaderLocked(ErrNoLeader)
	}
	if rd.Elected {
		n.becomeLeaderLocked()
	}
	if round, epoch := rd.Round, n.el.Epoch(); !round.IsZero() {
		req := heartbeatReq{Epoch: epoch, LeaderID: n.cfg.ID, Commit: n.commitZxid, Contact: n.cfg.Contact}.encode()
		n.fanOutLocked(req, func(id uint64, b []byte) core.Ready {
			resp, err := decodeHeartbeatResp(b)
			if err != nil {
				return core.Ready{}
			}
			return n.el.Ack(n.now(), id, round, epoch, resp.Epoch)
		})
		n.beatLearnersLocked(req)
	}
	if rd.Funded.After(n.leaseRound) {
		n.leaseRound = rd.Funded
		n.wakeReadersLocked()
	}
	if rd.Campaign {
		epoch := n.el.Epoch()
		req := requestVoteReq{Epoch: epoch, CandidateID: n.cfg.ID, LastZxid: n.lastZxidLocked()}.encode()
		n.fanOutLocked(req, func(id uint64, b []byte) core.Ready {
			resp, err := decodeRequestVoteResp(b)
			if err != nil {
				return core.Ready{}
			}
			return n.el.VoteReply(n.now(), id, epoch, resp.Granted, resp.Epoch)
		})
	}
	if rd.Join {
		n.joinLeaderLocked()
	}
	return rd, true
}

// fanOutLocked sends req to every other voter, each reply to step.
func (n *Node) fanOutLocked(req []byte, step func(id uint64, resp []byte) core.Ready) {
	for id := range n.cfg.Peers {
		if id != n.cfg.ID {
			n.callLocked(id, req, func(resp []byte, err error) {
				if err == nil {
					n.stepLocked(func() core.Ready { return step(id, resp) })
				}
			})
		}
	}
}

// adoptEpochLocked hands the core a message naming epoch (Heard) and
// reports whether the node follows it: not an older one, nor one unsaved.
func (n *Node) adoptEpochLocked(epoch, leaderID uint64) bool {
	rd, ok := n.stepLocked(func() core.Ready { return n.el.Heard(n.now(), epoch, leaderID) })
	return ok && rd.Follow
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
	if n.adoptEpochLocked(m.Epoch, m.LeaderID) {
		n.heardEpoch, n.heardID, n.heardContact = m.Epoch, m.LeaderID, m.Contact
		n.followCommitLocked(m.Commit)
		if m.Commit <= n.lastZxidLocked() {
			n.gapBeats = 0
		} else if n.gapBeats++; n.gapBeats >= gapBeatsBeforeSync {
			n.triggerSyncLocked()
		}
	}
	return heartbeatResp{Epoch: n.el.Epoch(), LastZxid: n.lastZxidLocked()}
}

func (n *Node) handleRequestVote(m requestVoteReq) requestVoteResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	rd, _ := n.stepLocked(func() core.Ready { return n.el.Vote(n.now(), m.Epoch, m.CandidateID, m.LastZxid, n.lastZxidLocked()) })
	return requestVoteResp{Granted: rd.Granted, Epoch: n.el.Epoch()}
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

// resignLocked ends the node's leadership on its own account — a failing
// disk, a stop — failing the waiters with err.
func (n *Node) resignLocked(err error) {
	if n.el.Role() == core.Leader {
		n.failLeaderLocked(err)
	}
	n.el.Resign(n.now())
}

// leaderGenLocked reports whether the node still leads under the given
// leadership generation.
func (n *Node) leaderGenLocked(gen uint64) bool {
	return n.el.Role() == core.Leader && n.leaderGen == gen && !n.stopped
}

// becomeLeaderLocked starts the leader's goroutines for the epoch the
// core was just elected in.
func (n *Node) becomeLeaderLocked() {
	n.nextSeq = 0
	n.leaderGen++
	n.streams = make(map[uint64]*followerStream, len(n.cfg.Peers)-1)
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
	n.wakeElectedLocked()
}

package zab

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/coord/zab/core"
)

// Observers on the wire. An observer finds the leader by asking a voter
// and following its redirect (joinLeaderLocked); the leader answers a joinReq
// by opening an ordinary log stream to the address it names
// (handleJoin). From then on the observer is driven like a follower —
// windows, heartbeats, its own sync pulls — and the leader only keeps
// its stream in a table of its own, n.learners, that no quorum count
// ever reads.

// observerFeedTimeoutFactor × ElectionTimeout is how long an observer's
// beats may fail or go unanswered before the leader drops its stream.
const observerFeedTimeoutFactor = 4

// ObserverLag is one observer's replication state as the leader's
// stream to it shows it.
type ObserverLag struct {
	ID          uint64
	AppliedZxid uint64 // the stream's cumulative ack
	LagTxns     uint64
	LagMS       uint64
}

// ObserverLags reports the lag of every observer streamed to, sorted by
// ID. Non-leaders return nil: the streams are leader-only state,
// dropped on step-down.
func (n *Node) ObserverLags() []ObserverLag {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.observerLagsLocked()
}

// observerLagsLocked reads each observer stream's lag off its cumulative
// ack, dating how long it has trailed the commit horizon.
func (n *Node) observerLagsLocked() []ObserverLag {
	if len(n.learners) == 0 {
		return nil
	}
	now := n.now()
	out := make([]ObserverLag, 0, len(n.learners))
	for id, s := range n.learners {
		l := ObserverLag{ID: id, AppliedZxid: s.match, LagTxns: n.observerLagTxnsLocked(s.match)}
		if s.match >= n.commitZxid {
			s.behindSince = time.Time{}
		} else if s.behindSince.IsZero() {
			s.behindSince = now
		} else {
			l.LagMS = uint64(now.Sub(s.behindSince) / time.Millisecond)
		}
		out = append(out, l)
	}
	slices.SortFunc(out, func(a, b ObserverLag) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// observerLagTxnsLocked counts the committed transactions the log
// still holds beyond an observer's acked position. It is a lower
// bound once the observer has fallen behind the log horizon — the
// missing frames are gone, and the observer is headed for a snapshot
// install that covers them anyway.
func (n *Node) observerLagTxnsLocked(acked uint64) uint64 {
	if acked >= n.commitZxid {
		return 0
	}
	var lag uint64
	for _, e := range n.log {
		if e.Last() > n.commitZxid {
			break
		}
		if e.Last() <= acked || e.Noop {
			continue
		}
		lag += uint64(len(e.Txns))
	}
	return lag
}

// beatLearnersLocked is the leader's once-a-round turn around its
// observer streams: it drops those whose observer has not answered a
// beat for too long, beats the rest and republishes the zab.observer.*
// gauges. Observers are beaten because that is how an idle one hears
// the horizon and knows the leader lives; the reply only says whether
// the observer does, and is counted nowhere.
func (n *Node) beatLearnersLocked(req []byte) {
	if len(n.learners) == 0 {
		return
	}
	now := n.now()
	for id, s := range n.learners {
		if s.downSince.IsZero() {
			s.downSince = now // until this beat is answered
		} else if now.Sub(s.downSince) > observerFeedTimeoutFactor*n.cfg.ElectionTimeout {
			n.dropLearnerLocked(id)
			continue
		}
		n.callLocked(id, req, func(_ []byte, err error) {
			if err == nil {
				s.downSince = time.Time{}
			}
		})
	}
	var maxLag, maxMS uint64
	for _, l := range n.observerLagsLocked() {
		maxLag, maxMS = max(maxLag, l.LagTxns), max(maxMS, l.LagMS)
	}
	n.gObsCount.Set(int64(len(n.learners)))
	n.gObsLagTxns.Set(int64(maxLag))
	n.gObsLagMS.Set(int64(maxMS))
}

// dropLearnerLocked forgets one observer: its sender exits, its address
// and connection go. The observer's contact timer brings it back.
func (n *Node) dropLearnerLocked(id uint64) {
	s := n.learners[id]
	s.dropped = true
	delete(n.learners, id)
	s.cond.Signal() // its sender is the only goroutine that reads dropped
	n.connMu.Lock()
	delete(n.learnerAddrs, id)
	n.connMu.Unlock()
	n.dropConn(id)
}

// handleJoin answers an observer looking for a log stream. The leader
// opens one at its own tip, as becomeLeader does for each voter (a
// second join of a live stream only refreshes the address); any other
// member names the leader it follows.
func (n *Node) handleJoin(m joinReq) ([]byte, error) {
	if _, voter := n.cfg.Peers[m.ID]; voter || m.ID == 0 {
		return nil, fmt.Errorf("zab: observer ID %d collides with a voter (or is zero)", m.ID)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.el.Role() != core.Leader {
		return joinResp{Epoch: n.el.Epoch(), LeaderID: n.el.Leader()}.encode(), nil
	}
	n.connMu.Lock()
	moved := n.learnerAddrs[m.ID] != m.Addr
	n.learnerAddrs[m.ID] = m.Addr
	n.connMu.Unlock()
	if moved {
		n.dropConn(m.ID)
	}
	if s := n.learners[m.ID]; s != nil {
		s.downSince = time.Time{}
	} else {
		if n.learners == nil {
			n.learners = make(map[uint64]*followerStream)
		}
		s = n.newStreamLocked(true)
		n.learners[m.ID] = s
		n.wg.Add(1)
		go n.senderLoop(n.leaderGen, m.ID, s)
	}
	return joinResp{Joined: true, Epoch: n.el.Epoch(), LeaderID: n.cfg.ID}.encode(), nil
}

// joinLeaderLocked is what an observer does where a voter would
// campaign: it asks the member it believes leads — or, knowing none, any
// voter (map order is random, and a non-leader answers with a redirect)
// — for a stream. Only a successful join resets the contact timer, so a
// failure or a redirect is followed up on the next tick.
func (n *Node) joinLeaderLocked() {
	target := n.el.Leader()
	if target == 0 {
		for id := range n.cfg.Peers {
			if id != n.cfg.ID {
				target = id
				break
			}
		}
	}
	n.callLocked(target, joinReq{ID: n.cfg.ID, Addr: n.cfg.Peers[n.cfg.ID]}.encode(), func(b []byte, err error) {
		resp, bad := decodeJoinResp(b)
		if err != nil || bad != nil {
			resp = joinResp{} // no answer: forget the leader
		}
		n.stepLocked(func() core.Ready { return n.el.JoinReply(n.now(), resp.Joined, resp.Epoch, resp.LeaderID) })
	})
}

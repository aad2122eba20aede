package zab

import (
	"sort"
	"time"
)

// Leader-side observer feed.
//
// Observers are non-voting replicas: they tail the leader's COMMITTED
// log over the same frame format the voters replicate and the WAL
// persists, but they are absent from Config.Peers and therefore from
// every quorum computation — acks, elections and the read lease never
// see them. The feed is pull-based (the same shape as the follower
// sync protocol): each poll carries the observer's replication tip and
// returns either the committed suffix after it or, when the tip has
// fallen behind the log horizon, a full snapshot plus the committed
// tail. Because only committed frames are ever shipped, an observer
// never holds a divergent tail across a leader change; a snapshot
// install is the only truncation it ever performs.

// maxObserverFramesPerPoll bounds one poll response; a far-behind
// observer catches up over several polls (its tail loop re-polls
// immediately while it is making progress).
const maxObserverFramesPerPoll = 256

// observerFeedTimeout is how long an observer may go without polling
// before the leader drops it from the feed (and the lag gauges).
const observerFeedTimeoutFactor = 4 // x ElectionTimeout

// observerFeed is the leader's bookkeeping for one registered
// observer replica.
type observerFeed struct {
	applied     uint64
	lastSeen    time.Time
	behindSince time.Time // zero while caught up
}

// ObserverLag is one observer replica's replication state as seen by
// the leader's feed.
type ObserverLag struct {
	ID          uint64
	AppliedZxid uint64
	LagTxns     uint64
	LagMS       uint64
}

// ObserverLags reports the per-observer replication lag the leader's
// feed is tracking, sorted by observer ID. Non-leaders return nil —
// the feed is leader-only state, reset on step-down.
func (n *Node) ObserverLags() []ObserverLag {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != roleLeader || len(n.observers) == 0 {
		return nil
	}
	now := n.now()
	out := make([]ObserverLag, 0, len(n.observers))
	for id, o := range n.observers {
		l := ObserverLag{ID: id, AppliedZxid: o.applied, LagTxns: n.observerLagTxnsLocked(o.applied)}
		if !o.behindSince.IsZero() {
			l.LagMS = uint64(now.Sub(o.behindSince) / time.Millisecond)
		}
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (n *Node) handleObserverPoll(m observerPollReq) observerPollResp {
	n.mu.Lock()
	if n.role != roleLeader {
		defer n.mu.Unlock()
		return observerPollResp{Redirect: true, Epoch: n.epoch, LeaderID: n.leaderID}
	}
	n.recordObserverLocked(m)
	resp := observerPollResp{Commit: n.commitZxid, Epoch: n.epoch, LeaderID: n.cfg.ID}
	if entries, ok := n.committedEntriesAfterLocked(m.FromZxid); ok {
		resp.Entries = entries
		n.mu.Unlock()
		return resp
	}
	if n.lastApplied <= m.FromZxid {
		// The observer is at (or beyond) everything we could snapshot.
		// Transient right after a leader change, before the new
		// leader's apply horizon catches up with what the old one
		// already shipped; nothing useful to send this round.
		n.mu.Unlock()
		return resp
	}
	n.mu.Unlock()

	// Snapshot-first determinism, as in handleSync: a tip behind the
	// log horizon gets the full checkpoint of the applied state plus
	// the committed tail — never a suffix with a silent gap. applyMu
	// (before mu, per the global order) pins lastApplied so the
	// serialized state and the tail describe one consistent cut.
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != roleLeader {
		return observerPollResp{Redirect: true, Epoch: n.epoch, LeaderID: n.leaderID}
	}
	resp = observerPollResp{Commit: n.commitZxid, Epoch: n.epoch, LeaderID: n.cfg.ID}
	if n.lastApplied <= m.FromZxid {
		return resp
	}
	resp.HasSnapshot = true
	resp.SnapZxid = n.lastApplied
	resp.Snapshot = n.sm.Snapshot()
	resp.Entries, _ = n.committedEntriesAfterLocked(n.lastApplied)
	return resp
}

// committedEntriesAfterLocked collects the committed log suffix after
// frame boundary `from`, reporting ok=false when `from` is not a
// boundary this log recognizes (truncated away).
func (n *Node) committedEntriesAfterLocked(from uint64) ([]Frame, bool) {
	start := -1
	if from == n.snapZxid {
		start = 0
	} else if from > n.snapZxid {
		i := sort.Search(len(n.log), func(i int) bool { return n.log[i].Last() >= from })
		if i < len(n.log) && n.log[i].Last() == from {
			start = i + 1
		}
	}
	if start < 0 {
		return nil, false
	}
	var out []Frame
	for _, e := range n.log[start:] {
		if e.Last() > n.commitZxid || len(out) >= maxObserverFramesPerPoll {
			break
		}
		out = append(out, e)
	}
	return out, true
}

// recordObserverLocked refreshes the feed entry behind one poll,
// evicts replicas that stopped polling and republishes the
// zab.observer.* gauges.
func (n *Node) recordObserverLocked(m observerPollReq) {
	now := n.now()
	st := n.observers[m.ObserverID]
	if st == nil {
		st = &observerFeed{}
		n.observers[m.ObserverID] = st
	}
	st.applied = m.AppliedZxid
	st.lastSeen = now
	if m.AppliedZxid >= n.commitZxid {
		st.behindSince = time.Time{}
	} else if st.behindSince.IsZero() {
		st.behindSince = now
	}
	for id, o := range n.observers {
		if now.Sub(o.lastSeen) > observerFeedTimeoutFactor*n.cfg.ElectionTimeout {
			delete(n.observers, id)
		}
	}
	var maxLag, maxMS uint64
	for _, o := range n.observers {
		if lag := n.observerLagTxnsLocked(o.applied); lag > maxLag {
			maxLag = lag
		}
		if !o.behindSince.IsZero() {
			if ms := uint64(now.Sub(o.behindSince) / time.Millisecond); ms > maxMS {
				maxMS = ms
			}
		}
	}
	n.gObsCount.Set(int64(len(n.observers)))
	n.gObsLagTxns.Set(int64(maxLag))
	n.gObsLagMS.Set(int64(maxMS))
}

// observerLagTxnsLocked counts the committed transactions the log
// still holds beyond an observer's applied horizon. It is a lower
// bound once the observer has fallen behind the log horizon — the
// missing frames are gone, and the observer is headed for a snapshot
// install that covers them anyway.
func (n *Node) observerLagTxnsLocked(applied uint64) uint64 {
	if applied >= n.commitZxid {
		return 0
	}
	var lag uint64
	for _, e := range n.log {
		if e.Last() > n.commitZxid {
			break
		}
		if e.Last() <= applied || e.Noop {
			continue
		}
		lag += uint64(len(e.Txns))
	}
	return lag
}

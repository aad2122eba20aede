package zab

import (
	"fmt"

	"repro/internal/wire"
)

// Peer-to-peer message kinds. Every message starts with one kind byte.
const (
	msgPropose uint8 = iota + 1
	msgHeartbeat
	msgRequestVote
	msgSync
	msgJoin
)

func encodeEntry(w *wire.Writer, e Frame) {
	w.Uint64(e.Zxid)
	w.Bool(e.Noop)
	w.Uint32(uint32(len(e.Txns)))
	for _, txn := range e.Txns {
		w.Bytes32(txn)
	}
}

func decodeEntry(r *wire.Reader) Frame {
	e := Frame{
		Zxid: r.Uint64(),
		Noop: r.Bool(),
	}
	// Every encoded txn costs at least its 4-byte length prefix, so a
	// count claiming more than Remaining/4 elements is structurally
	// impossible — reject it before allocating slice headers for it.
	n := r.Uint32()
	if r.Err() != nil || int(n) > r.Remaining()/4 {
		r.Fail(fmt.Errorf("zab: entry claims %d txns in %d bytes", n, r.Remaining()))
		return e
	}
	e.Txns = make([][]byte, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		e.Txns = append(e.Txns, r.BytesCopy32())
	}
	return e
}

// proposeReq is one window of a follower's log stream: a run of frames
// with a Raft-style consistency check — the follower accepts only if
// it holds PrevZxid (committed entries always count as held). Several
// windows may be in flight to one follower at once and each carries
// the leader's commit horizon; a window without frames carries nothing
// else (or, naming the leader's tip, probes a follower the leader lost
// track of — see handlePropose).
type proposeReq struct {
	Epoch    uint64
	LeaderID uint64
	PrevZxid uint64
	Entries  []Frame
	Commit   uint64 // leader's commit zxid, piggybacked
}

func (m proposeReq) encode() []byte {
	size := 64
	for _, e := range m.Entries {
		size += 24
		for _, txn := range e.Txns {
			size += 8 + len(txn)
		}
	}
	var w wire.Writer
	w.Grow(size)
	w.Uint8(msgPropose)
	w.Uint64(m.Epoch)
	w.Uint64(m.LeaderID)
	w.Uint64(m.PrevZxid)
	w.Uint32(uint32(len(m.Entries)))
	for _, e := range m.Entries {
		encodeEntry(&w, e)
	}
	w.Uint64(m.Commit)
	return w.Bytes()
}

func decodeProposeReq(r *wire.Reader) proposeReq {
	m := proposeReq{
		Epoch:    r.Uint64(),
		LeaderID: r.Uint64(),
		PrevZxid: r.Uint64(),
	}
	// An encoded entry costs at least 13 bytes (zxid + noop flag + txn
	// count); bound the claimed count by that before allocating.
	n := r.Uint32()
	if r.Err() != nil || int(n) > r.Remaining()/13 {
		r.Fail(fmt.Errorf("zab: propose claims %d entries in %d bytes", n, r.Remaining()))
		return m
	}
	m.Entries = make([]Frame, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		m.Entries = append(m.Entries, decodeEntry(r))
	}
	m.Commit = r.Uint64()
	return m
}

// proposeResp acknowledges (or refuses) a propose window. With Ack set,
// LastZxid is a CUMULATIVE ack: the highest zxid up to which the
// follower's log is both a verified prefix of this leader's and
// durable, so acks may return in any order and the leader keeps the
// maximum. On a refusal LastZxid is the follower's log tip, the
// position the leader rewinds the stream to.
type proposeResp struct {
	Ack      bool
	NeedSync bool
	Epoch    uint64 // responder's epoch, so a stale leader steps down
	LastZxid uint64
}

func (m proposeResp) encode() []byte {
	var w wire.Writer
	w.Grow(24)
	w.Bool(m.Ack)
	w.Bool(m.NeedSync)
	w.Uint64(m.Epoch)
	w.Uint64(m.LastZxid)
	return w.Bytes()
}

func decodeProposeResp(b []byte) (proposeResp, error) {
	r := wire.NewReader(b)
	m := proposeResp{Ack: r.Bool(), NeedSync: r.Bool(), Epoch: r.Uint64(), LastZxid: r.Uint64()}
	return m, r.Err()
}

// heartbeat keeps followership alive and carries the commit horizon and
// the leader's Contact: where clients reach it (Config.Contact).
type heartbeatReq struct {
	Epoch    uint64
	LeaderID uint64
	Commit   uint64
	Contact  string
}

func (m heartbeatReq) encode() []byte {
	var w wire.Writer
	w.Grow(32 + len(m.Contact))
	w.Uint8(msgHeartbeat)
	w.Uint64(m.Epoch)
	w.Uint64(m.LeaderID)
	w.Uint64(m.Commit)
	w.String(m.Contact)
	return w.Bytes()
}

type heartbeatResp struct {
	Epoch    uint64
	LastZxid uint64
}

func (m heartbeatResp) encode() []byte {
	var w wire.Writer
	w.Grow(16)
	w.Uint64(m.Epoch)
	w.Uint64(m.LastZxid)
	return w.Bytes()
}

func decodeHeartbeatResp(b []byte) (heartbeatResp, error) {
	r := wire.NewReader(b)
	m := heartbeatResp{Epoch: r.Uint64(), LastZxid: r.Uint64()}
	return m, r.Err()
}

// requestVote asks for leadership of a new epoch. A peer grants when
// the epoch is new to it and the candidate's log is at least as
// up-to-date (lastZxid ordering subsumes epoch ordering because the
// epoch is the zxid's high half).
type requestVoteReq struct {
	Epoch       uint64
	CandidateID uint64
	LastZxid    uint64
}

func (m requestVoteReq) encode() []byte {
	var w wire.Writer
	w.Grow(32)
	w.Uint8(msgRequestVote)
	w.Uint64(m.Epoch)
	w.Uint64(m.CandidateID)
	w.Uint64(m.LastZxid)
	return w.Bytes()
}

type requestVoteResp struct {
	Granted bool
	Epoch   uint64
}

func (m requestVoteResp) encode() []byte {
	var w wire.Writer
	w.Grow(16)
	w.Bool(m.Granted)
	w.Uint64(m.Epoch)
	return w.Bytes()
}

func decodeRequestVoteResp(b []byte) (requestVoteResp, error) {
	r := wire.NewReader(b)
	m := requestVoteResp{Granted: r.Bool(), Epoch: r.Uint64()}
	return m, r.Err()
}

// syncReq is a lagging follower pulling state from the leader.
type syncReq struct {
	FromZxid uint64
}

func (m syncReq) encode() []byte {
	var w wire.Writer
	w.Grow(16)
	w.Uint8(msgSync)
	w.Uint64(m.FromZxid)
	return w.Bytes()
}

// syncResp carries either the leader's stored snapshot plus the entries
// past it (the follower is behind the log horizon or has diverged) or the
// entries after FromZxid; the entries stop at maxSyncBytes.
type syncResp struct {
	HasSnapshot bool
	SnapZxid    uint64
	Snapshot    []byte
	Entries     []Frame
	Commit      uint64
	Epoch       uint64
	LeaderID    uint64
}

func (m syncResp) encode() []byte {
	var w wire.Writer
	w.Grow(64 + len(m.Snapshot))
	w.Bool(m.HasSnapshot)
	w.Uint64(m.SnapZxid)
	w.Bytes32(m.Snapshot)
	w.Uint32(uint32(len(m.Entries)))
	for _, e := range m.Entries {
		encodeEntry(&w, e)
	}
	w.Uint64(m.Commit)
	w.Uint64(m.Epoch)
	w.Uint64(m.LeaderID)
	return w.Bytes()
}

func decodeSyncResp(b []byte) (syncResp, error) {
	r := wire.NewReader(b)
	m := syncResp{
		HasSnapshot: r.Bool(),
		SnapZxid:    r.Uint64(),
		Snapshot:    r.BytesCopy32(),
	}
	n := r.Uint32()
	if r.Err() != nil {
		return m, r.Err()
	}
	if int(n) > r.Remaining()/13 {
		return m, fmt.Errorf("zab: sync response claims %d entries in %d bytes", n, r.Remaining())
	}
	m.Entries = make([]Frame, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		m.Entries = append(m.Entries, decodeEntry(r))
	}
	m.Commit = r.Uint64()
	m.Epoch = r.Uint64()
	m.LeaderID = r.Uint64()
	return m, r.Err()
}

// joinReq is an observer announcing itself: it names the identity and
// the peer address the leader should stream the log to.
type joinReq struct {
	ID   uint64
	Addr string
}

func (m joinReq) encode() []byte {
	var w wire.Writer
	w.Grow(16 + len(m.Addr))
	w.Uint8(msgJoin)
	w.Uint64(m.ID)
	w.String(m.Addr)
	return w.Bytes()
}

// joinResp is the answer to a joinReq. The leader sets Joined: the
// observer now has a stream. Any other member names the leader it
// follows (0 if none), for the observer to try next.
type joinResp struct {
	Joined   bool
	Epoch    uint64
	LeaderID uint64
}

func (m joinResp) encode() []byte {
	var w wire.Writer
	w.Grow(24)
	w.Bool(m.Joined)
	w.Uint64(m.Epoch)
	w.Uint64(m.LeaderID)
	return w.Bytes()
}

func decodeJoinResp(b []byte) (joinResp, error) {
	r := wire.NewReader(b)
	m := joinResp{Joined: r.Bool(), Epoch: r.Uint64(), LeaderID: r.Uint64()}
	return m, r.Err()
}

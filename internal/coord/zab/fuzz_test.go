package zab

import (
	"testing"

	"repro/internal/wire"
)

// The peer protocol's decoders face whatever a peer connection delivers.
// None may panic on any input, and none may allocate more than the input
// justifies: every length or count a message claims is bounded by the
// bytes that follow it before anything is sized by it.

// zabMessageBodies returns one encoded body of every peer message the
// node decodes, a request without its kind byte.
func zabMessageBodies() [][]byte {
	frames := []Frame{
		{Zxid: makeZxid(2, 1), Noop: true},
		{Zxid: makeZxid(2, 2), Txns: [][]byte{[]byte("create /a"), nil, []byte("set /a")}},
	}
	return [][]byte{
		proposeReq{Epoch: 2, LeaderID: 1, PrevZxid: makeZxid(1, 9), Entries: frames, Commit: makeZxid(1, 9)}.encode()[1:],
		proposeReq{Epoch: 2, LeaderID: 1, PrevZxid: makeZxid(2, 3), Commit: makeZxid(2, 3)}.encode()[1:],
		proposeResp{Ack: true, Epoch: 2, LastZxid: makeZxid(2, 3)}.encode(),
		heartbeatReq{Epoch: 2, LeaderID: 1, Commit: makeZxid(2, 3), Contact: "127.0.0.1:7201"}.encode()[1:],
		heartbeatResp{Epoch: 2, LastZxid: makeZxid(2, 3)}.encode(),
		syncReq{FromZxid: makeZxid(2, 3)}.encode()[1:],
		syncReq{FromZxid: makeZxid(2, 3), Until: makeZxid(2, 5)}.encode()[1:],
		syncResp{HasSnapshot: true, SnapZxid: makeZxid(1, 9), Snapshot: []byte("tree"), Entries: frames,
			Commit: makeZxid(2, 2), Epoch: 2, LeaderID: 1}.encode(),
		requestVoteResp{Granted: true, Epoch: 2}.encode(),
		joinResp{Joined: true, Epoch: 2, LeaderID: 1}.encode(),
	}
}

// lyingBodies returns propose bodies whose counts claim far more than
// follows them: 65 536 frames, or one frame of 65 536 transactions.
func lyingBodies() [][]byte {
	var frames, txns wire.Writer
	for _, w := range []*wire.Writer{&frames, &txns} {
		w.Uint64(2)              // epoch
		w.Uint64(1)              // leader
		w.Uint64(makeZxid(1, 9)) // prev
	}
	frames.Uint32(1 << 16)
	txns.Uint32(1)
	txns.Uint64(makeZxid(2, 1))
	txns.Bool(false)
	txns.Uint32(1 << 16)
	return [][]byte{frames.Bytes(), txns.Bytes()}
}

// FuzzDecodeZabMessages feeds every input to every decoder, seeded with
// each message body and each of its truncations, and with bodies whose
// counts lie.
func FuzzDecodeZabMessages(f *testing.F) {
	for _, body := range zabMessageBodies() {
		for cut := 0; cut <= len(body); cut++ {
			f.Add(body[:cut])
		}
	}
	for _, body := range lyingBodies() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := len(data)
		m := decodeProposeReq(wire.NewReader(data))
		framesWithin(t, "propose", m.Entries, in)
		decodeProposeResp(data)
		if hb := decodeHeartbeatReq(wire.NewReader(data)); len(hb.Contact) > in {
			t.Fatalf("heartbeat: a %d-byte contact from %d bytes", len(hb.Contact), in)
		}
		decodeHeartbeatResp(data)
		decodeSyncReq(wire.NewReader(data))
		s, _ := decodeSyncResp(data)
		if len(s.Snapshot) > in {
			t.Fatalf("sync: a %d-byte snapshot from %d bytes", len(s.Snapshot), in)
		}
		framesWithin(t, "sync", s.Entries, in)
		decodeRequestVoteResp(data)
		decodeJoinResp(data)
	})
}

// framesWithin fails unless decoded frames were sized by the input: at
// least 13 bytes per frame, 4 per transaction, and transaction bodies
// no longer than the input in total.
func framesWithin(t *testing.T, what string, frames []Frame, in int) {
	t.Helper()
	if cap(frames) > in/13 {
		t.Fatalf("%s: room for %d frames from %d bytes", what, cap(frames), in)
	}
	body := 0
	for _, e := range frames {
		if cap(e.Txns) > in/4 {
			t.Fatalf("%s: room for %d transactions from %d bytes", what, cap(e.Txns), in)
		}
		for _, txn := range e.Txns {
			body += cap(txn)
		}
	}
	if body > in {
		t.Fatalf("%s: %d bytes of transactions from %d bytes", what, body, in)
	}
}

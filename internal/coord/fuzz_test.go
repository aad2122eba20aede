package coord

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The client protocol's two decoders face bytes from outside the
// process: Server.handleClient whatever a connection sends, the session
// whatever a server answers. Neither may panic on any input, a request's
// trailing stamp is all there or not there at all, and every reply ends
// with a zxid.

const fuzzStamp = 1<<32 | 1 // the first zxid of the first epoch: applied wherever anything is

// startFuzzServer boots a one-member ensemble with a small tree behind it
// and a session that has a watch and an ephemeral node.
func startFuzzServer(tb testing.TB) (*Server, *Session) {
	tb.Helper()
	ensembleSeq++
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           1,
		Net:               transport.NewInProc(),
		AddrPrefix:        fmt.Sprintf("fuzz%d", ensembleSeq),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   30 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Stop)
	s, err := e.Connect(0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	for _, p := range []string{"/d", "/d/a", "/d/b"} {
		if _, err := s.Create(p, []byte("v"), znode.ModePersistent); err != nil {
			tb.Fatal(err)
		}
	}
	return e.Servers[0], s
}

// localRequests returns one well-formed request per non-replicated op,
// without the trailing stamp.
func localRequests(session uint64) map[string][]byte {
	req := func(fill func(w *wire.Writer)) []byte {
		var w wire.Writer
		fill(&w)
		return w.Bytes()
	}
	reqs := map[string][]byte{
		"status":     {opStatus},
		"sync":       {opSync},
		"pollEvents": req(func(w *wire.Writer) { w.Uint8(opPollEvents); w.Uint64(session) }),
		"waitEvents": req(func(w *wire.Writer) { w.Uint8(opWaitEvents); w.Uint64(session); w.Uint32(1) }),
		"rangeExport": req(func(w *wire.Writer) {
			w.Uint8(opRangeExport)
			w.Uint64(0)
			w.Uint64(1 << 63)
			w.Uint64(0)
			w.Bool(true)
		}),
		"rangeState": req(func(w *wire.Writer) { w.Uint8(opRangeState); w.Uint64(0); w.Uint64(1 << 63) }),
	}
	for name, op := range map[string]uint8{"get": opGet, "exists": opExists, "children": opChildren, "childrenData": opChildrenData} {
		reqs[name] = req(func(w *wire.Writer) { w.Uint8(op); w.String("/d") })
		reqs["lease-"+name] = req(func(w *wire.Writer) { w.Uint8(opLeaseRead); w.Uint8(op); w.String("/d") })
	}
	for name, op := range map[string]uint8{"getW": opGetWatch, "existsW": opExistsWatch, "childrenW": opChildrenWatch} {
		reqs[name] = req(func(w *wire.Writer) { w.Uint8(op); w.Uint64(session); w.String("/d") })
	}
	return reqs
}

// writeRequests returns one well-formed transaction per replicated op.
func writeRequests(session uint64) map[string][]byte {
	txn := func(op uint8, seq uint64, fill func(w *wire.Writer)) []byte {
		var w wire.Writer
		w.Uint8(op)
		w.Uint64(session)
		w.Uint64(seq)
		if fill != nil {
			fill(&w)
		}
		return w.Bytes()
	}
	rng := func(w *wire.Writer) { w.Uint64(1 << 62); w.Uint64(1<<62 + 16) }
	return map[string][]byte{
		"create":     encodeCreateTxn("/d/c", []byte("v"), znode.ModeSequential, session, 1001, 1),
		"set":        encodeSetTxn("/d/a", []byte("w"), -1, session, 1002, 2),
		"delete":     txn(opDelete, 1003, func(w *wire.Writer) { w.String("/d/b"); w.Int32(-1) }),
		"multi":      encodeMultiTxn([]Op{CheckDataOp("/d", -1, nil), CreateOp("/d/m", nil, znode.ModePersistent)}, session, 1004, 3),
		"move":       encodeMultiTxn([]Op{CheckDataOp("/d/b", -1, []byte("v")), MoveOp("/d/b", "/d/y", []byte("v"))}, session, 1011, 4),
		"newSession": encodeNewSessionTxn(),
		"fence":      txn(opFenceRange, 1006, func(w *wire.Writer) { rng(w); w.Uint32(1); w.Uint64(9) }),
		"unfence":    txn(opUnfenceRange, 1007, rng),
		"moved":      txn(opRangeMoved, 1008, func(w *wire.Writer) { rng(w); w.Uint32(1); w.Uint64(9) }),
		"wipe":       txn(opWipeRange, 1009, rng),
		"import": txn(opImportRange, 1010, func(w *wire.Writer) {
			rng(w)
			w.Bool(true)
			encodeRangeEntries(w, nil)
			encodeManifest(w, nil)
		}),
		"closeSession": encodeCloseSessionTxn(session+1000, 1),
	}
}

// idleMultis returns the multi transactions a session sends while none
// of its writes is in flight, wrapped as the idle multi they travel as
// (the stamp, then the transaction): one the leader answers from its
// state, one whose check holds, and a move.
func idleMultis(session uint64) map[string][]byte {
	idle := func(txn []byte) []byte {
		return append(binary.BigEndian.AppendUint64([]byte{opIdleMulti}, fuzzStamp), txn...)
	}
	return map[string][]byte{
		"guard miss": idle(encodeMultiTxn([]Op{CheckDataOp("/d", -1, []byte("nope")), SetOp("/d", []byte("x"), -1)}, session, 1101, 5)),
		"guard held": idle(encodeMultiTxn([]Op{CheckDataOp("/d/b", -1, []byte("v")), SetOp("/d/b", []byte("v"), -1)}, session, 1102, 6)),
		"move":       idle(writeRequests(session)["move"]),
	}
}

// legacySyncTxn is a sync as the replicated transaction it used to be,
// the layout of every other write; the sync is now a leader read whose
// request is the op code and the stamp.
func legacySyncTxn(session uint64) []byte {
	var w wire.Writer
	w.Uint8(opSync)
	w.Uint64(session)
	w.Uint64(1005)
	return w.Bytes()
}

func withStamp(req []byte, stamp uint64) []byte {
	return binary.BigEndian.AppendUint64(append([]byte(nil), req...), stamp)
}

// TestRequestStamp pins the trailer rule on every non-replicated op: the
// request bytes from before stamps existed are served as stamp zero, a
// whole stamp the replica has applied is served, a stamp cut short at
// any byte — or with bytes behind it — is a malformed request, and a
// stamp ahead of the replica is held, then refused with codeBehind. A
// sync in the transaction layout it had before it was a leader read is
// refused as malformed.
func TestRequestStamp(t *testing.T) {
	srv, s := startFuzzServer(t)
	if _, err := srv.handleClient(legacySyncTxn(s.ID())); err == nil {
		t.Error("a sync in the old transaction layout was served")
	}
	for name, req := range localRequests(s.ID()) {
		reply, err := srv.handleClient(req)
		if err != nil {
			t.Fatalf("%s without a stamp: %v", name, err)
		}
		_, zxid, status, err := splitReply(reply)
		if err != nil || status != nil || zxid != srv.LastApplied() {
			t.Fatalf("%s without a stamp: %v, zxid %x (applied %x), %v", name, status, zxid, srv.LastApplied(), err)
		}
		full := withStamp(req, srv.LastApplied())
		if reply, err = srv.handleClient(full); err != nil {
			t.Fatalf("%s with a stamp: %v", name, err)
		}
		if _, _, status, err := splitReply(reply); err != nil || status != nil {
			t.Fatalf("%s with a stamp: %v, %v", name, status, err)
		}
		for cut := 1; cut < 8; cut++ {
			if _, err := srv.handleClient(full[:len(req)+cut]); err == nil {
				t.Errorf("%s: a stamp of %d bytes was accepted", name, cut)
			}
		}
		if _, err := srv.handleClient(append(full, 0)); err == nil {
			t.Errorf("%s: a byte behind the stamp was accepted", name)
		}
	}
	ahead := withStamp(localRequests(s.ID())["get"], srv.LastApplied()+1)
	start := time.Now()
	reply, err := srv.handleClient(ahead)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, status, _ := splitReply(reply); status != errBehind || time.Since(start) < stampWait {
		t.Fatalf("a read stamped ahead of the replica came back as %v after %v", status, time.Since(start))
	}
}

// startFuzzFollower boots a three-member ensemble, with timeouts long
// enough that fuzzing load cannot start an election, and returns a
// follower that has heard where the leader is.
func startFuzzFollower(tb testing.TB) *Server {
	tb.Helper()
	ensembleSeq++
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           3,
		Net:               transport.NewInProc(),
		AddrPrefix:        fmt.Sprintf("fuzzf%d", ensembleSeq),
		HeartbeatInterval: 20 * time.Millisecond,
		ElectionTimeout:   2 * time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Stop)
	_, follower := leaderAndFollower(tb, e)
	srv := e.Servers[follower]
	for deadline := time.Now().Add(5 * time.Second); srv.leaderElsewhere() == ""; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tb.Fatal("the follower never heard where the leader is")
		}
	}
	return srv
}

// FuzzHandleClient feeds the server's request decoder, a leader's or a
// follower's. The corpus is every op of the protocol on the leader: the
// non-replicated ones without a stamp, with one, and with one truncated
// at each byte; the replicated ones as the transactions they are; the
// idle multis whole and truncated at each byte; a sync in its old
// transaction layout — and a replicated op, an idle multi, a lease read
// and a sync on the follower, which must name the leader instead of
// proposing or reading anything.
func FuzzHandleClient(f *testing.F) {
	srv, s := startFuzzServer(f)
	follower := startFuzzFollower(f)
	for _, req := range localRequests(s.ID()) {
		f.Add(req, false)
		full := withStamp(req, fuzzStamp)
		for cut := 1; cut <= 8; cut++ {
			f.Add(full[:len(req)+cut], false)
		}
	}
	for _, req := range writeRequests(s.ID()) {
		f.Add(req, false)
		f.Add(req[:len(req)/2], false)
	}
	for _, req := range idleMultis(s.ID()) {
		for cut := 1; cut <= len(req); cut++ {
			f.Add(req[:cut], false)
		}
	}
	f.Add([]byte{}, false)
	f.Add([]byte{0xff}, false)
	f.Add(legacySyncTxn(s.ID()), false)
	f.Add(writeRequests(s.ID())["create"], true)
	f.Add(idleMultis(s.ID())["guard miss"], true)
	f.Add(localRequests(s.ID())["lease-get"], true)
	f.Add(localRequests(s.ID())["sync"], true)
	f.Add(withStamp(localRequests(s.ID())["sync"], fuzzStamp), true)
	f.Fuzz(func(t *testing.T, req []byte, toFollower bool) {
		req = append([]byte(nil), req...)
		if len(req) > 0 && req[0] == opWaitEvents && len(req) >= 13 {
			binary.BigEndian.PutUint32(req[9:13], 1) // park for a millisecond, not a minute
		}
		if len(req) >= 8 && !proposes(req[0]) && req[0] != opIdleMulti {
			// Whatever sits where a stamp would names epoch zero: a stamp
			// ahead of the replica is a stampWait hold per input, and
			// TestRequestStamp has that case.
			clear(req[len(req)-8 : len(req)-4])
		}
		to := srv
		if toFollower {
			to = follower
		}
		reply, err := to.handleClient(req)
		if err != nil {
			return
		}
		_, _, status, err := splitReply(reply)
		if err != nil {
			t.Fatalf("reply to %x does not end with a zxid: %v", req, err)
		}
		if toFollower && (proposes(req[0]) || req[0] == opLeaseRead || req[0] == opSync || req[0] == opIdleMulti) {
			if _, ok := status.(notLeader); !ok || status == notLeader("") {
				t.Fatalf("a follower answered the leader-only op %x with %v; want it to name the leader", req, status)
			}
		}
	})
}

// FuzzDecodeReply feeds the session's reply decoders: the header and
// trailer split, every kind's body decoder, the status and event
// decoders. The corpus is a real reply to every kind of op and a refusal
// that names the leader, with an address and without, each whole, with
// its zxid trailer removed and with it truncated at each byte.
func FuzzDecodeReply(f *testing.F) {
	srv, s := startFuzzServer(f)
	if _, err := s.Create("/d/eph", nil, znode.ModeEphemeral); err != nil {
		f.Fatal(err)
	}
	add := func(reqs map[string][]byte) {
		for _, req := range reqs {
			reply, err := srv.handleClient(req)
			if err != nil {
				f.Fatal(err)
			}
			for cut := 0; cut <= 8; cut++ {
				f.Add(reply[:len(reply)-cut])
			}
		}
	}
	add(localRequests(s.ID()))
	add(writeRequests(s.ID()))
	add(idleMultis(s.ID()))
	var missing wire.Writer
	missing.Uint8(opGet)
	missing.String("/nowhere")
	add(map[string][]byte{
		"an error reply":   missing.Bytes(),
		"an aborted batch": encodeMultiTxn([]Op{CheckDataOp("/nowhere", -1, nil)}, s.ID(), 2001, 1),
		// Check results carry the node's data, held guard or failed.
		"a held guard":   encodeMultiTxn([]Op{CheckDataOp("/d", -1, []byte("v")), SetOp("/d/a", []byte("x"), -1)}, s.ID(), 2002, 2),
		"a failed guard": encodeMultiTxn([]Op{CheckDataOp("/d", -1, []byte("nope")), DeleteOp("/d/a", -1)}, s.ID(), 2003, 3),
	})
	for _, leader := range []string{"fuzz-leader-client", ""} {
		reply := stamped(errResult(notLeader(leader)), fuzzStamp)
		for cut := 0; cut <= 8; cut++ {
			f.Add(reply[:len(reply)-cut])
		}
	}
	// A poll reply with two events or more, its body cut at every byte
	// and restamped: every cut short of whole is a malformed list.
	for _, p := range []string{"/d", "/d/a"} {
		if _, _, err := s.GetW(p); err != nil {
			f.Fatal(err)
		}
		if _, err := s.Set(p, []byte("e"), -1); err != nil {
			f.Fatal(err)
		}
	}
	reply, err := srv.handleClient(localRequests(s.ID())["pollEvents"])
	if err != nil {
		f.Fatal(err)
	}
	body, zxid, _, err := splitReply(reply)
	if evs := decodeEvents(wire.NewReader(body)); err != nil || len(evs) < 2 {
		f.Fatalf("poll reply %x holds %v (%v), want two events or more", reply, evs, err)
	}
	head := reply[:len(reply)-len(body)-8]
	for cut := 0; cut <= len(body); cut++ {
		f.Add(stamped(append(append([]byte(nil), head...), body[:cut]...), zxid))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		body, _, _, err := splitReply(reply)
		if err != nil {
			return
		}
		for _, kind := range []OpKind{OpCheck, OpCreate, OpSet, OpDelete, OpGet, OpExists, OpChildren, OpChildrenData, OpMulti, OpSync} {
			_, _ = decodeReply(kind, body)
		}
		_, _ = decodeStatus(body)
		r := wire.NewReader(body)
		if evs := decodeEvents(r); r.Err() == nil && uint32(len(evs)) != binary.BigEndian.Uint32(body) {
			t.Fatalf("events %x decoded to %d events without an error; the header names %d", body, len(evs), binary.BigEndian.Uint32(body))
		}
		_, _ = decodeRangeEntries(wire.NewReader(body))
	})
}

package coord

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/coord/znode"
	"repro/internal/wire"
)

// TestMultiCommit verifies a batch of heterogeneous ops applies as one
// transaction, including ops that depend on earlier ops in the same
// batch (create under a just-created parent).
func TestMultiCommit(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)

	results, err := s.Multi([]Op{
		CreateOp("/dir", []byte("d"), znode.ModePersistent),
		CreateOp("/dir/a", []byte("a"), znode.ModePersistent),
		CreateOp("/dir/b", []byte("b"), znode.ModePersistent),
		SetOp("/dir/a", []byte("a2"), 0),
		DeleteOp("/dir/b", -1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
	}
	if results[1].Created != "/dir/a" {
		t.Fatalf("created = %q, want /dir/a", results[1].Created)
	}
	if results[3].Stat.Version != 1 {
		t.Fatalf("set stat version = %d, want 1", results[3].Stat.Version)
	}
	data, stat, err := s.Get("/dir/a")
	if err != nil || string(data) != "a2" || stat.Version != 1 {
		t.Fatalf("after multi: data=%q stat=%+v err=%v", data, stat, err)
	}
	if _, _, err := s.Get("/dir/b"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("deleted-in-batch node: err=%v, want ErrNoNode", err)
	}
}

// TestMultiAllOrNothing verifies the ZooKeeper multi() contract: a
// failing check aborts the whole batch, every applied op is undone
// (data, versions, child counts, sequence counters), the failing op
// reports its own error and every sibling reports ErrRolledBack.
func TestMultiAllOrNothing(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)

	if _, err := s.Create("/guard", []byte("v0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/dir", []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	_, before, err := s.Get("/dir")
	if err != nil {
		t.Fatal(err)
	}

	results, err := s.Multi([]Op{
		CreateOp("/dir/x", []byte("x"), znode.ModePersistent),
		SetOp("/guard", []byte("v1"), 0),
		CheckDataOp("/guard", 7, nil), // wrong version: aborts the batch
		DeleteOp("/dir", -1),
	})
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("multi err = %v, want ErrBadVersion", err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	if !errors.Is(results[2].Err, ErrBadVersion) {
		t.Fatalf("failing op err = %v, want ErrBadVersion", results[2].Err)
	}
	for _, i := range []int{0, 1, 3} {
		if !errors.Is(results[i].Err, ErrRolledBack) {
			t.Fatalf("op %d err = %v, want ErrRolledBack", i, results[i].Err)
		}
	}
	// Nothing applied: the create is gone, the set undone (data AND
	// version), the directory's child count and cversion untouched.
	if _, _, err := s.Get("/dir/x"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("rolled-back create visible: err=%v", err)
	}
	data, stat, err := s.Get("/guard")
	if err != nil || string(data) != "v0" || stat.Version != 0 {
		t.Fatalf("rolled-back set: data=%q stat=%+v err=%v", data, stat, err)
	}
	_, after, err := s.Get("/dir")
	if err != nil {
		t.Fatal(err)
	}
	if after.NumChildren != before.NumChildren || after.Cversion != before.Cversion {
		t.Fatalf("dir stat mutated by aborted batch: before=%+v after=%+v", before, after)
	}
	// A failed batch must not burn sequential-name counters either.
	c1, err := s.Create("/dir/seq-", nil, znode.ModeSequential)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != "/dir/seq-0000000000" {
		t.Fatalf("sequence counter leaked by rollback: created %q", c1)
	}
}

// TestMultiRollbackRestoresSequentialCounter aborts a batch whose
// applied prefix included a sequential create, then verifies the
// parent's counter rewound.
func TestMultiRollbackRestoresSequentialCounter(t *testing.T) {
	e := startTestEnsemble(t, 1)
	s := connect(t, e, -1)
	if _, err := s.Create("/d", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	_, err := s.Multi([]Op{
		CreateOp("/d/s-", nil, znode.ModeSequential),
		CheckDataOp("/absent", -1, nil),
	})
	if !errors.Is(err, ErrNoNode) {
		t.Fatalf("multi err = %v, want ErrNoNode", err)
	}
	created, err := s.Create("/d/s-", nil, znode.ModeSequential)
	if err != nil {
		t.Fatal(err)
	}
	if created != "/d/s-0000000000" {
		t.Fatalf("created %q: rollback leaked a sequence number", created)
	}
}

// TestMultiRetryDedup replays a committed multi transaction byte-for-
// byte against the state machine — exactly what a client retry after a
// leader change looks like once the proposal is re-submitted — and
// verifies the replica returns the cached result without re-executing
// the batch.
func TestMultiRetryDedup(t *testing.T) {
	sm := newStateMachine()
	sessReply := sm.Apply(encodeNewSessionTxn(), 1)
	r := wire.NewReader(sessReply)
	if code := r.Uint8(); code != codeOK {
		t.Fatalf("session status %d", code)
	}
	_ = r.String() // detail
	session := r.Uint64()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	txn := encodeMultiTxn([]Op{
		CreateOp("/dup", []byte("v"), znode.ModePersistent),
		CreateOp("/dup/kid", nil, znode.ModePersistent),
	}, session, 1, 42)

	first := sm.Apply(txn, 2)
	countAfterFirst := sm.treeRef().Count()
	second := sm.Apply(txn, 3)
	if string(first) != string(second) {
		t.Fatalf("retry returned different bytes:\n first=%x\nsecond=%x", first, second)
	}
	if got := sm.treeRef().Count(); got != countAfterFirst {
		t.Fatalf("retry re-executed the batch: %d znodes, want %d", got, countAfterFirst)
	}
	// Had the batch re-executed, the creates would have failed with
	// ErrNodeExists and an aborted outcome; the cached reply must still
	// decode as committed.
	rr := wire.NewReader(second)
	rr.Uint8()
	_ = rr.String()
	results, committed, derr := decodeMultiResults(rr)
	if derr != nil {
		t.Fatal(derr)
	}
	if !committed || len(results) != 2 || results[0].Err != nil {
		t.Fatalf("cached reply decoded as committed=%v results=%+v", committed, results)
	}
}

// TestMultiMalformedFrameRefused feeds the state machine opMulti
// transactions whose op count disagrees with the payload (truncation,
// or a hostile client — the server proposes client bytes whole) and
// verifies they are refused rather than committed as vacuous empty
// batches that reply success.
func TestMultiMalformedFrameRefused(t *testing.T) {
	sm := newStateMachine()
	for name, txn := range map[string][]byte{
		"count exceeds payload": func() []byte {
			w := wire.NewWriter(64)
			w.Uint8(opMulti)
			w.Uint64(0) // session
			w.Uint64(0) // seq
			w.Int64(1)  // nowNano
			w.Uint32(5) // claims 5 ops, carries none
			return w.Bytes()
		}(),
		"zero ops": func() []byte {
			w := wire.NewWriter(64)
			w.Uint8(opMulti)
			w.Uint64(0)
			w.Uint64(0)
			w.Int64(1)
			w.Uint32(0)
			return w.Bytes()
		}(),
		"truncated op fields": func() []byte {
			w := wire.NewWriter(64)
			w.Uint8(opMulti)
			w.Uint64(0)
			w.Uint64(0)
			w.Int64(1)
			w.Uint32(1)
			w.Uint8(uint8(OpCreate)) // op kind, then nothing
			return w.Bytes()
		}(),
	} {
		result := sm.Apply(txn, 7)
		r := wire.NewReader(result)
		if code := r.Uint8(); code == codeOK {
			t.Fatalf("%s: malformed multi committed as success", name)
		}
	}
	if n := sm.treeRef().Count(); n != 0 {
		t.Fatalf("malformed frames mutated the tree: %d znodes", n)
	}
}

// TestMultiSurvivesLeaderFailover commits batches across a leader kill
// to show the transaction is one proposal: it either commits whole or
// the client's retry re-proposes it whole.
func TestMultiSurvivesLeaderFailover(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)
	if _, err := s.Create("/f", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if i == 1 {
			leader := e.Leader()
			if leader == nil {
				t.Fatal("no leader")
			}
			leader.Stop()
		}
		_, err := s.Multi([]Op{
			CreateOp(fmt.Sprintf("/f/a%d", i), nil, znode.ModePersistent),
			CreateOp(fmt.Sprintf("/f/b%d", i), nil, znode.ModePersistent),
		})
		if err != nil {
			t.Fatalf("multi %d: %v", i, err)
		}
	}
	kids, err := s.Children("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 6 {
		t.Fatalf("children = %v, want 6 entries (every batch whole)", kids)
	}
}

// TestChildrenData verifies the one-round-trip listing: the node
// itself arrives as the leading "." entry, children follow sorted by
// name, and every entry carries its data and stat.
func TestChildrenData(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)

	if _, err := s.Create("/ls", []byte("self"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"charlie", "alpha", "bravo"} {
		if _, err := s.Create("/ls/"+name, []byte("data-"+name), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := s.ChildrenData("/ls")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("got %d entries, want 4 (self + 3 children)", len(entries))
	}
	if entries[0].Name != "." || string(entries[0].Data) != "self" {
		t.Fatalf("self entry = %+v", entries[0])
	}
	if entries[0].Stat.NumChildren != 3 {
		t.Fatalf("self NumChildren = %d, want 3", entries[0].Stat.NumChildren)
	}
	wantOrder := []string{"alpha", "bravo", "charlie"}
	for i, name := range wantOrder {
		e := entries[i+1]
		if e.Name != name || string(e.Data) != "data-"+name {
			t.Fatalf("entry %d = %+v, want name %q with its data", i+1, e, name)
		}
		if e.Stat.Czxid == 0 {
			t.Fatalf("entry %q missing stat: %+v", name, e.Stat)
		}
	}

	if _, err := s.ChildrenData("/absent"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("ChildrenData(absent) err = %v, want ErrNoNode", err)
	}

	// An empty directory still reports itself.
	if _, err := s.Create("/empty", []byte("e"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	entries, err = s.ChildrenData("/empty")
	if err != nil || len(entries) != 1 || entries[0].Name != "." {
		t.Fatalf("ChildrenData(empty) = %+v, %v", entries, err)
	}
}

// TestMultiFiresWatches verifies a committed batch fires data and
// child watches exactly like the equivalent single ops, and an aborted
// batch fires none.
func TestMultiFiresWatches(t *testing.T) {
	e := startTestEnsemble(t, 1)
	s := connect(t, e, -1)
	if _, err := s.Create("/w", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ChildrenW("/w"); err != nil {
		t.Fatal(err)
	}
	// Aborted batch: no events.
	if _, err := s.Multi([]Op{
		CreateOp("/w/kid", nil, znode.ModePersistent),
		CheckDataOp("/absent", -1, nil),
	}); !errors.Is(err, ErrNoNode) {
		t.Fatalf("aborted multi err = %v", err)
	}
	if evs, err := s.PollEvents(); err != nil || len(evs) != 0 {
		t.Fatalf("aborted batch fired events: %+v, %v", evs, err)
	}
	// Committed batch: the child watch fires.
	if _, err := s.Multi([]Op{CreateOp("/w/kid", nil, znode.ModePersistent)}); err != nil {
		t.Fatal(err)
	}
	evs, err := s.WaitEvent(DialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range evs {
		if ev.Path == "/w" && ev.Type == EventChildrenChanged {
			found = true
		}
	}
	if !found {
		t.Fatalf("committed multi never fired the child watch: %+v", evs)
	}
}

// TestMultiRefusesNonBatchKinds: a batch carrying a kind the state
// machine cannot apply is refused by the client before it is encoded.
// The parent replicated it through quorum and WAL first and let znode
// abort it with "unknown multi op kind 255".
func TestMultiRefusesNonBatchKinds(t *testing.T) {
	e := startTestEnsemble(t, 1)
	s := connect(t, e, -1)
	before, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []OpKind{OpSync, OpGet, OpExists, OpChildren, OpChildrenData, OpMulti} {
		batch := []Op{CreateOp("/late", nil, znode.ModePersistent), {Kind: kind, Path: "/"}}
		if results, err := s.MultiCtx(t.Context(), batch); err == nil || results != nil {
			t.Fatalf("multi carrying kind %d = %+v, %v; want it refused", kind, results, err)
		}
		if err := s.BeginMulti(t.Context(), batch).Err(); err == nil {
			t.Fatalf("async multi carrying kind %d accepted", kind)
		}
	}
	after, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if after.AppliedZxid != before.AppliedZxid {
		t.Fatalf("a refused batch was replicated: applied zxid %x -> %x", before.AppliedZxid, after.AppliedZxid)
	}
}

// TestGuardedCheckOverTheWire runs a data-guarded check through a real
// ensemble: a held guard commits the batch and reports the node's data;
// a failed one aborts it whole, and the failing check's entry still
// carries the stat and data it found while its siblings carry only
// ErrRolledBack.
func TestGuardedCheckOverTheWire(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)
	if _, err := s.Create("/g", []byte("file:0001"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}

	results, err := s.Multi([]Op{
		CheckDataOp("/g", 0, []byte("file")),
		SetOp("/g", []byte("file:0002"), -1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(results[0].Data) != "file:0001" || results[0].Stat.Version != 0 {
		t.Fatalf("held check reported data=%q stat=%+v", results[0].Data, results[0].Stat)
	}

	results, err = s.Multi([]Op{
		CreateOp("/g2", nil, znode.ModePersistent),
		CheckDataOp("/g", -1, []byte("dir")),
		DeleteOp("/g", -1),
	})
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("guard mismatch err = %v, want ErrBadVersion", err)
	}
	data, stat, gerr := s.Get("/g")
	if gerr != nil {
		t.Fatal(gerr)
	}
	if string(results[1].Data) != string(data) || results[1].Stat != stat || string(data) != "file:0002" {
		t.Fatalf("failing check reported data=%q stat=%+v; node has %q %+v", results[1].Data, results[1].Stat, data, stat)
	}
	for _, i := range []int{0, 2} {
		if r := results[i]; !errors.Is(r.Err, ErrRolledBack) || len(r.Data) != 0 || r.Stat != (znode.Stat{}) {
			t.Fatalf("op %d = %+v, want a bare ErrRolledBack", i, r)
		}
	}
	if _, ok, err := s.Exists("/g2"); err != nil || ok {
		t.Fatalf("rolled-back create visible: ok=%v err=%v", ok, err)
	}

	// Old transactions carried no data on a check: an empty guard
	// matches any node, so they replay as the unguarded checks they were.
	if _, err := s.Multi([]Op{CheckDataOp("/g", -1, nil)}); err != nil {
		t.Fatalf("unguarded check: %v", err)
	}
}

// TestGuardedCheckReplyReplaysByteExact retries an aborted batch whose
// failing check carries data, and a committed one whose check does,
// through the state machine's dedup window: the cached reply is
// byte-identical to the first and still decodes to the data the check
// saw, not to the node's data at the time of the retry.
func TestGuardedCheckReplyReplaysByteExact(t *testing.T) {
	sm := newStateMachine()
	r := wire.NewReader(sm.Apply(encodeNewSessionTxn(), 1))
	r.Uint8()
	_ = r.String()
	session := r.Uint64()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if reply := sm.Apply(encodeCreateTxn("/n", []byte("file:0001"), znode.ModePersistent, session, 1, 1), 2); reply[0] != codeOK {
		t.Fatalf("create status %d", reply[0])
	}

	aborted := encodeMultiTxn([]Op{CheckDataOp("/n", -1, []byte("dir")), DeleteOp("/n", -1)}, session, 2, 2)
	committed := encodeMultiTxn([]Op{CheckDataOp("/n", -1, []byte("file")), SetOp("/n", []byte("file:0002"), -1)}, session, 3, 3)
	zxid := uint64(3)
	for _, c := range []struct {
		name      string
		txn       []byte
		committed bool
		want      string
	}{{"aborted", aborted, false, "file:0001"}, {"committed", committed, true, "file:0001"}} {
		first := sm.Apply(c.txn, zxid)
		zxid++
		second := sm.Apply(c.txn, zxid)
		zxid++
		if string(first) != string(second) {
			t.Fatalf("%s: retry returned different bytes:\n first=%x\nsecond=%x", c.name, first, second)
		}
		rr := wire.NewReader(second)
		rr.Uint8()
		_ = rr.String()
		results, ok, err := decodeMultiResults(rr)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.committed || string(results[0].Data) != c.want {
			t.Fatalf("%s: replay decoded committed=%v check data=%q, want %v %q", c.name, ok, results[0].Data, c.committed, c.want)
		}
	}
}

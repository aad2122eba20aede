// Durable-node tests live in an external test package so they can
// import internal/coord/storage (which itself imports zab for the
// Storage interface) without an import cycle.
package zab_test

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/coord/storage"
	"repro/internal/coord/zab"
	"repro/internal/transport"
)

// logSM is a deterministic append-log state machine: every applied
// txn is recorded, and snapshots round-trip the whole history.
type logSM struct {
	mu      sync.Mutex
	applied []string
}

func (s *logSM) Apply(txn []byte, zxid uint64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = append(s.applied, string(txn))
	out := make([]byte, 8+len(txn))
	binary.BigEndian.PutUint64(out, zxid)
	copy(out[8:], txn)
	return out
}

func (s *logSM) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	for _, a := range s.applied {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

func (s *logSM) Restore(snap []byte, _ uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = nil
	for off := 0; off+4 <= len(snap); {
		l := int(binary.BigEndian.Uint32(snap[off:]))
		off += 4
		s.applied = append(s.applied, string(snap[off:off+l]))
		off += l
	}
	return nil
}

func (s *logSM) have() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]bool, len(s.applied))
	for _, a := range s.applied {
		m[a] = true
	}
	return m
}

// durableEnsemble runs nodes backed by real storage engines in
// per-node temp directories, so members can be crashed (Stop; nothing
// extra reaches disk) and restarted from exactly what the protocol
// persisted.
type durableEnsemble struct {
	t       *testing.T
	dir     string
	net     *transport.InProc
	peers   map[uint64]string
	nodes   map[uint64]*zab.Node
	sms     map[uint64]*logSM
	engines map[uint64]*storage.Engine
	maxLog  int
	segSize int64
}

func newDurableEnsemble(t *testing.T, n int) *durableEnsemble {
	t.Helper()
	e := &durableEnsemble{
		t:       t,
		dir:     t.TempDir(),
		net:     transport.NewInProc(),
		peers:   make(map[uint64]string),
		nodes:   make(map[uint64]*zab.Node),
		sms:     make(map[uint64]*logSM),
		engines: make(map[uint64]*storage.Engine),
	}
	for i := 1; i <= n; i++ {
		e.peers[uint64(i)] = fmt.Sprintf("dur-%d", i)
	}
	for i := 1; i <= n; i++ {
		e.start(uint64(i))
	}
	t.Cleanup(e.stopAll)
	return e
}

func (e *durableEnsemble) start(id uint64) {
	e.t.Helper()
	eng, err := storage.Open(storage.Options{
		Dir:         filepath.Join(e.dir, fmt.Sprintf("node%d", id)),
		SegmentSize: e.segSize,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	sm := &logSM{}
	node, err := zab.NewNode(zab.Config{
		ID:                id,
		Peers:             e.peers,
		Net:               e.net,
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   30 * time.Millisecond,
		MaxLogEntries:     e.maxLog,
		Storage:           eng,
	}, sm)
	if err != nil {
		e.t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		e.t.Fatal(err)
	}
	e.nodes[id], e.sms[id], e.engines[id] = node, sm, eng
}

// crash stops the node and closes its engine; the on-disk state is
// exactly what the protocol synced before the "kill".
func (e *durableEnsemble) crash(id uint64) {
	if n := e.nodes[id]; n != nil {
		n.Stop()
		e.nodes[id] = nil
	}
	if eng := e.engines[id]; eng != nil {
		eng.Close()
		e.engines[id] = nil
	}
}

func (e *durableEnsemble) stopAll() {
	for id := range e.peers {
		e.crash(id)
	}
}

func (e *durableEnsemble) waitLeader() *zab.Node {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var leader *zab.Node
		leaders := 0
		for _, n := range e.nodes {
			if n != nil && n.IsLeader() {
				leaders++
				leader = n
			}
		}
		if leaders == 1 {
			return leader
		}
		time.Sleep(5 * time.Millisecond)
	}
	e.t.Fatal("no leader elected within deadline")
	return nil
}

// mustPropose proposes txn through whichever member leads, retrying
// across the elections a restart may still be settling.
func (e *durableEnsemble) mustPropose(txn string) {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := e.waitLeader().Propose([]byte(txn))
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("Propose(%q) never succeeded: %v", txn, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDurableSingleNodeRestart: a one-member ensemble only commits
// once its own fsync covers the frame (the leader sync loop), and a
// restart from the data dir recovers every committed write.
func TestDurableSingleNodeRestart(t *testing.T) {
	e := newDurableEnsemble(t, 1)
	for i := 0; i < 30; i++ {
		e.mustPropose(fmt.Sprintf("solo-%d", i))
	}
	if d := e.engines[1].LastDurableZxid(); d == 0 {
		t.Fatal("commits happened with a zero durable horizon")
	}
	e.crash(1)

	e.start(1)
	// A committed settle write orders the check after the recovered
	// tail has replayed (read-your-writes on this node).
	e.mustPropose("after-restart")
	have := e.sms[1].have()
	for i := 0; i < 30; i++ {
		if !have[fmt.Sprintf("solo-%d", i)] {
			t.Fatalf("write solo-%d lost across restart (recovered %d)", i, len(have))
		}
	}
}

// TestDurableQuorumCrashRestart kills a quorum of a 3-node ensemble
// mid-load (leader included), restarts it from disk, then cold-crashes
// the WHOLE ensemble and restarts that too. Every write acknowledged
// at any point must be applied on every member afterwards — the
// durability contract the in-memory model cannot offer (DESIGN.md
// §9.4's empty-rejoin caveat is exactly this scenario).
func TestDurableQuorumCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := newDurableEnsemble(t, 3)
	e.waitLeader()

	var mu sync.Mutex
	acked := make(map[string]bool)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers propose through whichever first-generation member leads; a
	// crashed one never does, and a non-leader refuses.
	handles := []*zab.Node{e.nodes[1], e.nodes[2], e.nodes[3]}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				txn := fmt.Sprintf("w%d-%d", w, i)
				n := handles[i%len(handles)]
				for _, h := range handles {
					if h.IsLeader() {
						n = h
					}
				}
				if _, err := n.Propose([]byte(txn)); err == nil {
					mu.Lock()
					acked[txn] = true
					mu.Unlock()
				} else {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}

	// Mid-load: crash the leader plus one follower — a quorum.
	time.Sleep(150 * time.Millisecond)
	var victims []uint64
	for id, n := range e.nodes {
		if n != nil && n.IsLeader() {
			victims = append(victims, id)
			break
		}
	}
	if len(victims) == 0 {
		victims = append(victims, 1)
	}
	for id := range e.nodes {
		if len(victims) >= 2 {
			break
		}
		if id != victims[0] {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		e.crash(id)
	}
	time.Sleep(50 * time.Millisecond)
	for _, id := range victims {
		e.start(id)
	}
	e.waitLeader()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Whole-ensemble cold crash, then restart everyone from disk.
	e.stopAll()
	for id := range e.peers {
		e.start(id)
	}
	e.mustPropose("settle")

	mu.Lock()
	want := make([]string, 0, len(acked))
	for txn := range acked {
		want = append(want, txn)
	}
	mu.Unlock()
	if len(want) == 0 {
		t.Fatal("nothing was acknowledged; test proves nothing")
	}
	for id := range e.peers {
		deadline := time.Now().Add(5 * time.Second)
		for {
			have := e.sms[id].have()
			missing := ""
			for _, txn := range want {
				if !have[txn] {
					missing = txn
					break
				}
			}
			if missing == "" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d lost acked txn %s after full crash-restart (%d acked)", id, missing, len(want))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Logf("verified %d acked txns across quorum crash + full-ensemble crash", len(want))
}

// TestDurableSnapshotReclaimsWAL: sustained traffic over a small
// MaxLogEntries and tiny WAL segments must trigger a fuzzy snapshot
// that reclaims covered segments, and a restart must still recover the
// full history from snapshot + tail.
func TestDurableSnapshotReclaimsWAL(t *testing.T) {
	e := &durableEnsemble{
		t:       t,
		dir:     t.TempDir(),
		net:     transport.NewInProc(),
		peers:   map[uint64]string{1: "snapdur-1"},
		nodes:   make(map[uint64]*zab.Node),
		sms:     make(map[uint64]*logSM),
		engines: make(map[uint64]*storage.Engine),
		maxLog:  32,
		segSize: 4 << 10,
	}
	e.start(1)
	t.Cleanup(e.stopAll)
	const ops = 600
	for i := 0; i < ops; i++ {
		e.mustPropose(fmt.Sprintf("t-%d", i))
	}
	snapZxid := func() uint64 {
		rc, zxid, ok := e.engines[1].SnapshotStream()
		if !ok {
			return 0
		}
		rc.Close()
		return zxid
	}
	deadline := time.Now().Add(5 * time.Second)
	for snapZxid() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no durable fuzzy snapshot after %d writes (segments=%d)", ops, e.engines[1].Segments())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ~600 records across 4 KiB segments is dozens of segments; the
	// snapshot must have reclaimed the covered prefix.
	if segs := e.engines[1].Segments(); segs > 8 {
		t.Fatalf("snapshot did not reclaim WAL segments: %d live", segs)
	}
	e.crash(1)
	e.start(1)
	e.mustPropose("settle")
	have := e.sms[1].have()
	for i := 0; i < ops; i++ {
		if !have[fmt.Sprintf("t-%d", i)] {
			t.Fatalf("write t-%d lost across snapshot+restart (recovered %d)", i, len(have))
		}
	}
}

// TestAdoptedEpochIsDurable: a member adopts a leader's epoch from the
// first message it hears under it, and the epoch is on its store before
// it answers. Member 1 joins an ensemble whose leader members 2 and 3
// elected without it, on a frozen clock so it never campaigns: once it
// follows, the store's hard state names the leader's epoch, on
// MemStorage and on storage.Engine alike.
func TestAdoptedEpochIsDurable(t *testing.T) {
	stores := map[string]func(t *testing.T) zab.StreamStorage{
		"MemStorage": func(*testing.T) zab.StreamStorage { return new(zab.MemStorage) },
		"Engine": func(t *testing.T) zab.StreamStorage {
			eng, err := storage.Open(storage.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			return eng
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			peers := make(map[uint64]string)
			for id := uint64(1); id <= 3; id++ {
				peers[id] = fmt.Sprintf("adopt-%s-%d", name, id)
			}
			net := transport.NewInProc()
			frozen := time.Now()
			start := func(id uint64, st zab.StreamStorage, clock func() time.Time) *zab.Node {
				n, err := zab.NewNode(zab.Config{
					ID:                id,
					Peers:             peers,
					Net:               net,
					HeartbeatInterval: 5 * time.Millisecond,
					ElectionTimeout:   30 * time.Millisecond,
					Clock:             clock,
					Storage:           st,
				}, &logSM{})
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.Stop)
				return n
			}
			var leader *zab.Node
			for _, id := range []uint64{2, 3} {
				if n := start(id, new(zab.MemStorage), nil); id == 3 {
					leader = n
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for leader.LeaderID() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("members 2 and 3 elected no leader")
				}
				time.Sleep(time.Millisecond)
			}
			st := open(t)
			member := start(1, st, func() time.Time { return frozen })
			for member.LeaderID() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("member 1 never heard the leader")
				}
				time.Sleep(time.Millisecond)
			}
			epoch := member.Epoch()
			if got, granted := st.HardState(); got != epoch || granted != 0 {
				t.Fatalf("member 1 follows epoch %d on a store that holds (%d, %d), want (%d, 0)", epoch, got, granted, epoch)
			}
		})
	}
}

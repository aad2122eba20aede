package coord

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/wire"
)

// TestApplyBatchReplayIdempotent pins the property crash-recovery
// leans on: replaying an already-applied frame through ApplyBatch —
// which happens when a recovered log tail re-applies over state that
// (partially) saw it, or when a client retry of a committed write
// lands after a failover — must not double-apply. The per-session
// dedup window replicates inside snapshots, so the second application
// returns the ORIGINAL results and leaves the tree untouched.
func TestApplyBatchReplayIdempotent(t *testing.T) {
	sm := newStateMachine()
	now := time.Now().UnixNano()

	// A group-commit frame: a session mint, two creates and a set from
	// that session (the zxids inside a frame are firstZxid+i).
	mint := sm.Apply(encodeNewSessionTxn(), 0x100000001)
	session := uint64(1)
	if got := decodeSessionID(t, mint); got != session {
		t.Fatalf("minted session %d", got)
	}
	frame := [][]byte{
		encodeCreateTxn("/replay", []byte("v0"), znode.ModePersistent, session, 1, now),
		encodeCreateTxn("/replay/a", []byte("a"), znode.ModePersistent, session, 2, now),
		encodeSetTxn("/replay", []byte("v1"), -1, session, 3, now),
	}
	first := sm.ApplyBatch(frame, 0x100000002)

	snapshotTree := func() (string, int32) {
		data, stat, err := sm.treeRef().Get("/replay")
		if err != nil {
			t.Fatal(err)
		}
		return string(data), stat.Version
	}
	wantData, wantVersion := snapshotTree()
	if wantData != "v1" {
		t.Fatalf("data after first apply = %q", wantData)
	}

	// Replay the exact same frame. Every op must come back with its
	// original result (dedup hit), not "node exists" / a double set.
	second := sm.ApplyBatch(frame, 0x100000002)
	for i := range frame {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("replayed op %d result differs:\n first: %x\nsecond: %x", i, first[i], second[i])
		}
	}
	gotData, gotVersion := snapshotTree()
	if gotData != wantData || gotVersion != wantVersion {
		t.Fatalf("replay mutated the tree: (%q, v%d) -> (%q, v%d)", wantData, wantVersion, gotData, gotVersion)
	}
	if kids, err := sm.treeRef().Children("/replay"); err != nil || len(kids) != 1 {
		t.Fatalf("children after replay: %v (%v)", kids, err)
	}
}

// TestLegacySyncTxnReplays: a log written while Sync was a replicated
// transaction may hold one. Replayed now it is an unknown transaction,
// and every replica applies it the same way: the same error result, the
// tree as it was, identical snapshots afterwards.
func TestLegacySyncTxnReplays(t *testing.T) {
	now := time.Now().UnixNano()
	tree := func(sm *stateMachine) string {
		var b strings.Builder
		sm.treeRef().Walk(func(e znode.WalkEntry) { fmt.Fprintf(&b, "%s=%q %+v\n", e.Path, e.Data, e.Stat) })
		return b.String()
	}
	var results, snaps [][]byte
	for range 2 {
		sm := newStateMachine()
		sm.Apply(encodeNewSessionTxn(), 0x100000001)
		sm.Apply(encodeCreateTxn("/kept", []byte("v"), znode.ModePersistent, 1, 1, now), 0x100000002)
		before := tree(sm)
		result := sm.Apply(legacySyncTxn(1), 0x100000003)
		if code := result[0]; code == codeOK {
			t.Fatalf("a legacy sync transaction applied as a success: %x", result)
		}
		if after := tree(sm); after != before {
			t.Fatalf("a legacy sync transaction changed the tree:\n%s->\n%s", before, after)
		}
		results, snaps = append(results, result), append(snaps, sm.Snapshot())
	}
	if !bytes.Equal(results[0], results[1]) || !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("two replicas applied a legacy sync transaction differently: %x vs %x", results[0], results[1])
	}
}

// decodeSessionID unwraps an okResult carrying the minted session ID.
func decodeSessionID(t *testing.T, result []byte) uint64 {
	t.Helper()
	r := wire.NewReader(result)
	if code := r.Uint8(); code != codeOK {
		t.Fatalf("session mint failed with code %d", code)
	}
	_ = r.String() // detail
	id := r.Uint64()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return id
}

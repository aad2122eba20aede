package coord

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/wire"
)

// resultPayload unwraps an okResult's status header, returning the
// op-specific payload.
func resultPayload(t *testing.T, result []byte) []byte {
	t.Helper()
	r := wire.NewReader(result)
	if code := r.Uint8(); code != codeOK {
		t.Fatalf("apply failed with code %d", code)
	}
	_ = r.String() // detail
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return result[len(result)-r.Remaining():]
}

// populateSM builds a state machine with sessions, dedup history and a
// small tree — every snapshot section non-trivially populated.
func populateSM(t *testing.T) *stateMachine {
	t.Helper()
	sm := newStateMachine()
	now := time.Now().UnixNano()
	sm.Apply(encodeNewSessionTxn(), 0x100000001)
	sm.Apply(encodeNewSessionTxn(), 0x100000002)
	zxid := uint64(0x100000003)
	seq := uint64(0)
	apply := func(txn []byte) {
		sm.Apply(txn, zxid)
		zxid++
	}
	next := func() uint64 { seq++; return seq }
	apply(encodeCreateTxn("/app", []byte("root"), znode.ModePersistent, 1, next(), now))
	apply(encodeCreateTxn("/app/a", []byte("alpha"), znode.ModePersistent, 1, next(), now))
	apply(encodeCreateTxn("/app/b", []byte("beta"), znode.ModeEphemeral, 2, 1, now))
	apply(encodeSetTxn("/app/a", []byte("alpha-2"), -1, 1, next(), now))
	apply(encodeCreateTxn("/app/seq-", []byte("s"), znode.ModeSequential, 1, next(), now))
	return sm
}

// TestSnapshotStreamBlobIdentical pins the compatibility contract
// between the two serialization forms: Snapshot() must return exactly
// the bytes SnapshotTo writes, so a blob-path replica and a
// streaming-path replica exchange snapshots freely.
func TestSnapshotStreamBlobIdentical(t *testing.T) {
	sm := populateSM(t)
	blob := sm.Snapshot()
	var streamed bytes.Buffer
	if err := sm.SnapshotTo(&streamed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, streamed.Bytes()) {
		t.Fatalf("Snapshot (%d bytes) and SnapshotTo (%d bytes) disagree",
			len(blob), streamed.Len())
	}
}

// TestSnapshotStreamingRoundtrip restores a streamed snapshot into a
// fresh machine and demands full state equality: tree fingerprint,
// session survival, and dedup replay protection.
func TestSnapshotStreamingRoundtrip(t *testing.T) {
	sm := populateSM(t)
	var buf bytes.Buffer
	if err := sm.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}

	restored := newStateMachine()
	if err := restored.RestoreFrom(&buf, 0x100000008); err != nil {
		t.Fatal(err)
	}
	if a, b := sm.treeRef().Fingerprint(), restored.treeRef().Fingerprint(); a != b {
		t.Fatalf("tree fingerprint mismatch after streamed restore: %x vs %x", a, b)
	}
	// Dedup windows traveled too: re-applying an already-applied write
	// on the restored machine must return the cached result, not
	// re-execute (the tree would report ErrNodeExists on a re-run).
	now := time.Now().UnixNano()
	res := restored.Apply(encodeCreateTxn("/app/a", []byte("alpha"), znode.ModePersistent, 1, 2, now), 0x100000099)
	reply, err := decodeReply(OpCreate, resultPayload(t, res))
	if err != nil {
		t.Fatalf("replayed create on restored machine: %v", err)
	}
	if reply.Created != "/app/a" {
		t.Fatalf("replayed create returned %q", reply.Created)
	}
}

// TestRestoreFromRejectsTrailingBytes: a stream with bytes past the
// encoded state is a framing bug and must refuse to restore.
func TestRestoreFromRejectsTrailingBytes(t *testing.T) {
	sm := populateSM(t)
	snap := append(sm.Snapshot(), 0xEE)
	restored := newStateMachine()
	if err := restored.RestoreFrom(bytes.NewReader(snap), 1); err == nil {
		t.Fatal("RestoreFrom accepted a snapshot with trailing bytes")
	}
	// The failed restore must not have touched the machine: the tree is
	// still the empty one it started with.
	if got := restored.treeRef().Count(); got != 0 {
		t.Fatalf("failed restore left %d nodes behind", got)
	}
}

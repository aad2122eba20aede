package zab

import (
	"bytes"
	"io"
	"sort"
	"sync"
)

// Frame is one log record: a replicated group-commit frame holding one
// or more transactions, the unit in which transactions are proposed,
// acknowledged, persisted and recovered. Zxid is the zxid of the FIRST
// transaction; transaction i of Txns carries zxid Zxid+i, so every
// transaction keeps its own identity while the frame replicates,
// commits and recovers as a single unit (all-or-nothing). Txn bytes
// are opaque to this package; Noop frames are leader barriers that
// never reach the state machine.
type Frame struct {
	Zxid uint64
	Noop bool
	Txns [][]byte
}

// Last returns the zxid of the frame's final transaction.
func (f Frame) Last() uint64 {
	if n := len(f.Txns); n > 1 {
		return f.Zxid + uint64(n-1)
	}
	return f.Zxid
}

// Storage is the state a node keeps under the replication protocol.
// Frames are persisted and synced BEFORE they are acknowledged to the
// leader (and before the leader counts its own log tip toward the
// commit quorum), votes and epochs survive restart, and NewNode
// recovers the state machine from the newest snapshot plus the log
// tail. What "persisted" is worth is the store's business: MemStorage
// (the default) survives a node restart inside one process;
// internal/coord/storage survives the crash of every server —
// ZooKeeper's contract.
//
// Implementations must be safe for concurrent use: Append is always
// called under the node's mutex, but Sync runs outside it and may be
// invoked from several goroutines at once (the per-window follower ack
// path and the leader's sync loop).
type Storage interface {
	// HardState returns the persisted epoch / vote state recovered at
	// open: the highest epoch this node has adopted and the highest
	// epoch it has granted a vote for. Both zero on a fresh store.
	HardState() (epoch, grantedEpoch uint64)
	// SaveHardState durably records the epoch / vote state. It must
	// not return before the state is on stable storage: a node that
	// grants a vote and forgets it across a crash can hand out two
	// votes in one epoch, electing two leaders.
	SaveHardState(epoch, grantedEpoch uint64) error

	// Frames returns the recovered log tail — every frame past the
	// newest snapshot's coverage, in zxid order. Only meaningful
	// immediately after opening the store.
	Frames() []Frame

	// Append adds frames to the log. Durability is deferred to Sync so
	// one fsync can cover a whole propose window (the group-commit
	// amortization); implementations should make Append itself cheap
	// (a buffered or page-cache write) and must not retain the slice.
	Append(frames []Frame) error
	// Sync makes every previously appended frame durable. Concurrent
	// callers may share one fsync: a caller whose frames are already
	// covered by an in-flight or completed sync returns immediately.
	Sync() error
	// LastDurableZxid reports the highest frame zxid covered by a
	// completed sync — the durable horizon the node may acknowledge.
	LastDurableZxid() uint64
}

// StreamStorage is the store a node runs on: a Storage that also keeps
// the newest state-machine snapshot, moved as a stream so neither saving
// nor recovering one ever needs the whole serialized state in memory at
// once (MemStorage keeps the body on the heap anyway).
type StreamStorage interface {
	Storage
	// SaveSnapshotFrom durably records a fuzzy snapshot covering zxid,
	// reading its body from r until EOF, written side-by-side with the
	// live log; log segments wholly covered by it may be reclaimed. The
	// log tail past zxid is kept.
	SaveSnapshotFrom(r io.Reader, zxid uint64) error
	// InstallSnapshotFrom durably records a snapshot received from the
	// leader, reading its body from r until EOF, and RESETS the log:
	// every local frame — including any divergent tail past zxid — is
	// discarded, and the durable horizon moves to exactly zxid. Used by
	// the follower sync path when its position has left the leader's
	// log.
	InstallSnapshotFrom(r io.Reader, zxid uint64) error
	// SnapshotStream returns a reader over the newest durable snapshot
	// body, or ok=false when none exists. The reader validates the
	// stored checksum incrementally and reports a mismatch as a read
	// error in place of EOF — a consumer that reads to EOF has read a
	// proven-intact snapshot. The caller must Close it.
	SnapshotStream() (snap io.ReadCloser, zxid uint64, ok bool)
}

var _ StreamStorage = (*MemStorage)(nil)

// MemStorage is the in-memory Storage a node runs on when its
// configuration names no other: an appended frame is durable at once
// (Sync has nothing to do), and the hard state, the newest snapshot
// and the log tail past it live on the heap. It outlives the node that
// writes it, so handing a stopped node's MemStorage to its replacement
// is a restart with the disk intact — votes, snapshot and every
// acknowledged frame recovered — without touching a filesystem. The
// zero value is an empty store.
type MemStorage struct {
	mu       sync.Mutex
	epoch    uint64
	granted  uint64
	snap     []byte
	snapZxid uint64
	hasSnap  bool
	log      []Frame // frames past the snapshot, in zxid order
	tip      uint64  // appended = durable horizon
}

// HardState implements Storage.
func (m *MemStorage) HardState() (epoch, grantedEpoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch, m.granted
}

// SaveHardState implements Storage.
func (m *MemStorage) SaveHardState(epoch, grantedEpoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch, m.granted = epoch, grantedEpoch
	return nil
}

// SnapshotStream implements StreamStorage.
func (m *MemStorage) SnapshotStream() (io.ReadCloser, uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hasSnap {
		return nil, 0, false
	}
	return io.NopCloser(bytes.NewReader(m.snap)), m.snapZxid, true
}

// Frames implements Storage: a copy of the log tail, so the caller's
// log and the store's never share a backing array.
func (m *MemStorage) Frames() []Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Frame(nil), m.log...)
}

// Append implements Storage.
func (m *MemStorage) Append(frames []Frame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.log = append(m.log, frames...)
	if n := len(frames); n > 0 && frames[n-1].Last() > m.tip {
		m.tip = frames[n-1].Last()
	}
	return nil
}

// Sync implements Storage: Append already made the frames durable.
func (m *MemStorage) Sync() error { return nil }

// LastDurableZxid implements Storage.
func (m *MemStorage) LastDurableZxid() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tip
}

// SaveSnapshotFrom implements StreamStorage: the snapshot replaces the
// previous one and the frames it covers are released. The body is read
// before the store is locked, so appends are not held up behind it.
func (m *MemStorage) SaveSnapshotFrom(r io.Reader, zxid uint64) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.hasSnap && zxid <= m.snapZxid {
		return nil
	}
	m.snap, m.snapZxid, m.hasSnap = data, zxid, true
	covered := sort.Search(len(m.log), func(i int) bool { return m.log[i].Last() > zxid })
	m.log = append([]Frame(nil), m.log[covered:]...)
	if zxid > m.tip {
		m.tip = zxid
	}
	return nil
}

// InstallSnapshotFrom implements StreamStorage.
func (m *MemStorage) InstallSnapshotFrom(r io.Reader, zxid uint64) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap, m.snapZxid, m.hasSnap = data, zxid, true
	m.log = nil
	m.tip = zxid
	return nil
}

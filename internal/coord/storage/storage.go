// Package storage is the durable storage engine under the
// coordination service's replication layer: a per-node segmented
// write-ahead log plus fuzzy snapshots, the on-disk half of
// ZooKeeper's "replicated database" that makes an acknowledged write
// survive the crash of every server (paper §IV-I; DESIGN.md §11).
//
// # On-disk layout
//
// A data directory holds two kinds of files:
//
//	wal-00000042.seg    log segment 42 (preallocated, CRC-framed records)
//	snap-00000000000001c3.snap   snapshot covering zxid 0x1c3
//
// Each segment is preallocated to SegmentSize and filled with
// records framed as
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// where the payload is either a log frame (the group-commit unit of
// internal/coord/zab — one fsync therefore amortizes a whole
// multi-transaction frame) or a hard-state record (epoch + granted
// vote). A fresh segment's first record re-states the current hard
// state, so reclaiming old segments never loses the vote. The
// preallocated tail is zeros; a zero length marks the end of the
// written prefix.
//
// # Recovery
//
// Open replays every segment in order. A record that fails its CRC at
// the very tail of the newest segment with nothing but zeros after it
// is a torn write — the crash interrupted the append — and is
// truncated away: it was never acknowledged, because acknowledgement
// requires Sync. A bad record anywhere else (valid data follows it)
// is real corruption and Open refuses to start rather than silently
// dropping acknowledged history. Snapshots are written to a temp file,
// fsynced and renamed, so a *.snap file is complete by construction;
// one that fails its checksum anyway is corruption and refuses
// startup the same way.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/coord/zab"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Record payload kinds.
const (
	recHardState uint8 = 1
	recFrame     uint8 = 2
)

// recHeaderSize is the per-record framing overhead: u32 length +
// u32 CRC-32C.
const recHeaderSize = 8

// snapMagic marks a snapshot file ("DSNP").
const snapMagic uint32 = 0x44534e50

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("storage: engine closed")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures an Engine.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// SegmentSize is the preallocated size of each log segment.
	// Defaults to 8 MiB.
	SegmentSize int64
	// SnapChunkSize bounds the buffer the engine uses to stream
	// snapshots to and from disk — the peak snapshot-path memory is
	// O(SnapChunkSize) regardless of snapshot size. Defaults to 256 KiB.
	SnapChunkSize int
	// Metrics, when non-nil, receives the engine's gauges
	// ("storage.last_durable_zxid", "storage.wal_segments") and the
	// fsync batch distribution ("storage.fsync_batch_txns").
	Metrics *metrics.Registry
}

// segment is one WAL file. Only the newest segment is open for
// writing; sealed segments are fsynced and closed at rotation.
type segment struct {
	path    string
	seq     int
	f       *os.File // nil once sealed
	off     int64    // end of the written prefix
	maxZxid uint64   // Last() of the newest frame it holds (0 if none)
}

// Engine implements zab.StreamStorage over a data directory.
type Engine struct {
	opt  Options
	dirf *os.File // kept open for directory fsyncs

	// snapMu admits one snapshot writer at a time; it is held while a
	// body is written, e.mu only while it is published.
	snapMu sync.Mutex

	mu     sync.Mutex
	closed bool
	failed error // sticky first I/O failure

	epoch   uint64
	granted uint64

	// The snapshot itself is never retained in memory: recovery verifies
	// the file's checksum by streaming it, and SnapshotStream reads it
	// back off disk on demand.
	snapZxid uint64
	hasSnap  bool
	frames   []zab.Frame // recovered log tail

	segs []*segment // ascending seq; last is the active writer

	lastAppended uint64 // zxid horizon written (not necessarily durable)
	lastDurable  uint64 // zxid horizon covered by a completed fsync
	replayTip    uint64 // recovery-time frame ordering check
	unsyncedTxns int64  // transactions appended since the last fsync

	syncing  bool // an fsync is in flight outside the lock
	syncCond *sync.Cond

	gDurable  *metrics.Gauge
	gSegments *metrics.Gauge
	dBatch    *metrics.Distribution
}

var _ zab.StreamStorage = (*Engine)(nil)

// Open creates or recovers the engine in opt.Dir.
func Open(opt Options) (*Engine, error) {
	if opt.Dir == "" {
		return nil, errors.New("storage: Options.Dir is required")
	}
	if opt.SegmentSize <= 0 {
		opt.SegmentSize = 8 << 20
	}
	if opt.SnapChunkSize <= 0 {
		opt.SnapChunkSize = 256 << 10
	}
	if opt.Metrics == nil {
		opt.Metrics = metrics.NewRegistry()
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	dirf, err := os.Open(opt.Dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	e := &Engine{
		opt:       opt,
		dirf:      dirf,
		gDurable:  opt.Metrics.Gauge("storage.last_durable_zxid"),
		gSegments: opt.Metrics.Gauge("storage.wal_segments"),
		dBatch:    opt.Metrics.Distribution("storage.fsync_batch_txns"),
	}
	e.syncCond = sync.NewCond(&e.mu)
	if err := e.recover(); err != nil {
		dirf.Close()
		return nil, err
	}
	return e, nil
}

// --- recovery ---------------------------------------------------------

func (e *Engine) recover() error {
	entries, err := os.ReadDir(e.opt.Dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	var segSeqs []int
	var snapZxids []uint64
	for _, de := range entries {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted snapshot write; never made durable.
			os.Remove(filepath.Join(e.opt.Dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"))
			if err != nil {
				return fmt.Errorf("storage: unrecognized segment name %q", name)
			}
			segSeqs = append(segSeqs, seq)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			z, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
			if err != nil {
				return fmt.Errorf("storage: unrecognized snapshot name %q", name)
			}
			snapZxids = append(snapZxids, z)
		}
	}
	sort.Ints(segSeqs)
	sort.Slice(snapZxids, func(i, j int) bool { return snapZxids[i] < snapZxids[j] })

	if len(snapZxids) > 0 {
		z := snapZxids[len(snapZxids)-1]
		if err := e.verifySnapshot(e.snapPath(z), z); err != nil {
			// A renamed snapshot was fully written and fsynced before the
			// rename; a checksum failure is corruption, not a torn write.
			return err
		}
		e.snapZxid, e.hasSnap = z, true
		e.lastAppended, e.lastDurable = z, z
	}

	for i, seq := range segSeqs {
		last := i == len(segSeqs)-1
		seg, err := e.recoverSegment(seq, last)
		if err != nil {
			return err
		}
		e.segs = append(e.segs, seg)
	}
	if len(e.segs) == 0 {
		if err := e.addSegmentLocked(1); err != nil {
			return err
		}
	} else {
		// Reopen the newest segment for writing.
		act := e.segs[len(e.segs)-1]
		f, err := os.OpenFile(act.path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		act.f = f
	}
	e.gSegments.Set(int64(len(e.segs)))
	e.gDurable.Set(int64(e.lastDurable))
	return nil
}

// recoverSegment replays one segment file. Frames accumulate into
// e.frames; hard-state records overwrite e.epoch / e.granted (the
// newest wins). A torn tail in the final segment is truncated; any
// other invalid record refuses startup.
func (e *Engine) recoverSegment(seq int, lastSeg bool) (*segment, error) {
	path := filepath.Join(e.opt.Dir, fmt.Sprintf("wal-%08d.seg", seq))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	seg := &segment{path: path, seq: seq}
	off := int64(0)
	for {
		if off+recHeaderSize > int64(len(data)) {
			break // a full segment with no end marker
		}
		length := int64(binary.BigEndian.Uint32(data[off:]))
		if length == 0 {
			// End of the written prefix — the preallocated tail must be
			// all zeros, else something was written past a zeroed header.
			if !allZero(data[off:]) {
				return nil, fmt.Errorf("storage: %s: data past the log end at offset %d", path, off)
			}
			break
		}
		crc := binary.BigEndian.Uint32(data[off+4:])
		recEnd := off + recHeaderSize + length
		valid := recEnd <= int64(len(data))
		var payload []byte
		if valid {
			payload = data[off+recHeaderSize : recEnd]
			valid = crc32.Checksum(payload, crcTable) == crc
		}
		if !valid {
			// Distinguish a torn append (nothing valid follows — the rest
			// of the preallocated file is zeros) from corruption in the
			// middle of acknowledged history.
			tailFrom := recEnd
			if tailFrom > int64(len(data)) {
				tailFrom = int64(len(data))
			}
			if lastSeg && allZero(data[tailFrom:]) {
				if err := truncateSegment(path, off, int64(len(data))); err != nil {
					return nil, err
				}
				break
			}
			return nil, fmt.Errorf("storage: %s: corrupt record at offset %d (CRC mismatch); refusing startup", path, off)
		}
		if err := e.replayRecord(path, off, payload, seg); err != nil {
			return nil, err
		}
		off = recEnd
	}
	seg.off = off
	return seg, nil
}

func (e *Engine) replayRecord(path string, off int64, payload []byte, seg *segment) error {
	r := wire.NewReader(payload)
	switch kind := r.Uint8(); kind {
	case recHardState:
		e.epoch = r.Uint64()
		e.granted = r.Uint64()
	case recFrame:
		f := zab.Frame{Zxid: r.Uint64(), Noop: r.Bool()}
		n := r.Uint32()
		if r.Err() == nil {
			if int(n) > r.Remaining()/4 {
				r.Fail(fmt.Errorf("frame claims %d txns in %d bytes", n, r.Remaining()))
			} else {
				f.Txns = make([][]byte, 0, n)
				for i := uint32(0); i < n && r.Err() == nil; i++ {
					f.Txns = append(f.Txns, r.BytesCopy32())
				}
			}
		}
		if r.Err() == nil {
			if f.Zxid <= e.replayTip {
				return fmt.Errorf("storage: %s: frame zxid %x out of order at offset %d; refusing startup", path, f.Zxid, off)
			}
			e.replayTip = f.Last()
			seg.maxZxid = f.Last()
			if f.Last() > e.lastAppended {
				e.lastAppended = f.Last()
				e.lastDurable = f.Last()
			}
			e.frames = append(e.frames, f)
		}
	default:
		r.Fail(fmt.Errorf("unknown record kind %d", kind))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("storage: %s: corrupt record at offset %d: %w; refusing startup", path, off, err)
	}
	return nil
}

// truncateSegment zeroes a segment from off onward (cut the torn
// record) while keeping its preallocated size.
func truncateSegment(path string, off, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// --- zab.Storage ------------------------------------------------------

// HardState implements zab.Storage.
func (e *Engine) HardState() (epoch, grantedEpoch uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch, e.granted
}

// SaveHardState implements zab.Storage: the record is appended and
// fsynced before returning — a forgotten vote can elect two leaders.
// The fsync also hardens any frames appended ahead of it in the same
// segment.
func (e *Engine) SaveHardState(epoch, grantedEpoch uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.usableLocked(); err != nil {
		return err
	}
	w := wire.NewWriter(24)
	w.Uint8(recHardState)
	w.Uint64(epoch)
	w.Uint64(grantedEpoch)
	if err := e.appendRecordLocked(w.Bytes()); err != nil {
		return err
	}
	e.epoch, e.granted = epoch, grantedEpoch
	mark := e.lastAppended
	txns := e.unsyncedTxns
	e.unsyncedTxns = 0
	if err := e.activeLocked().f.Sync(); err != nil {
		e.failed = fmt.Errorf("storage: fsync: %w", err)
		return e.failed
	}
	if mark > e.lastDurable {
		e.lastDurable = mark
		e.gDurable.Set(int64(mark))
	}
	if txns > 0 {
		e.dBatch.Observe(txns)
	}
	return nil
}

// SnapshotStream implements zab.StreamStorage: a checksum-validating
// reader over the newest durable snapshot body. The caller owns the
// returned reader and must Close it; a corrupt body surfaces as a read
// error in place of EOF.
func (e *Engine) SnapshotStream() (io.ReadCloser, uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.hasSnap {
		return nil, 0, false
	}
	sr, err := openSnapshotStream(e.snapPath(e.snapZxid), e.snapZxid)
	if err != nil {
		if e.failed == nil {
			e.failed = err
		}
		return nil, 0, false
	}
	return sr, e.snapZxid, true
}

// Frames implements zab.Storage. It is single-shot: the recovered
// tail is handed over and released, so a node that crashed with a
// large uncommitted tail does not keep a duplicate of every
// transaction pinned in the engine for its whole lifetime.
func (e *Engine) Frames() []zab.Frame {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]zab.Frame, 0, len(e.frames))
	for _, f := range e.frames {
		if !e.hasSnap || f.Last() > e.snapZxid {
			out = append(out, f)
		}
	}
	e.frames = nil
	return out
}

// Append implements zab.Storage: a page-cache write of each frame,
// rotating to a fresh preallocated segment when the active one fills.
func (e *Engine) Append(frames []zab.Frame) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.usableLocked(); err != nil {
		return err
	}
	for _, f := range frames {
		size := 18
		for _, txn := range f.Txns {
			size += 4 + len(txn)
		}
		w := wire.NewWriter(size)
		w.Uint8(recFrame)
		w.Uint64(f.Zxid)
		w.Bool(f.Noop)
		w.Uint32(uint32(len(f.Txns)))
		for _, txn := range f.Txns {
			w.Bytes32(txn)
		}
		if err := e.appendRecordLocked(w.Bytes()); err != nil {
			return err
		}
		seg := e.activeLocked()
		if f.Last() > seg.maxZxid {
			seg.maxZxid = f.Last()
		}
		if f.Last() > e.lastAppended {
			e.lastAppended = f.Last()
		}
		if n := int64(len(f.Txns)); n > 0 {
			e.unsyncedTxns += n
		} else {
			e.unsyncedTxns++ // a barrier still rides the fsync
		}
	}
	return nil
}

// appendRecordLocked frames payload with length + CRC and writes it at
// the active segment's tail, rotating first if it would not fit.
func (e *Engine) appendRecordLocked(payload []byte) error {
	need := int64(recHeaderSize + len(payload))
	seg := e.activeLocked()
	if seg.off+need > e.opt.SegmentSize && seg.off > 0 {
		if err := e.rotateLocked(); err != nil {
			return err
		}
		seg = e.activeLocked()
	}
	rec := make([]byte, need)
	binary.BigEndian.PutUint32(rec, uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:], crc32.Checksum(payload, crcTable))
	copy(rec[recHeaderSize:], payload)
	if seg.off+need > e.opt.SegmentSize {
		// One oversized record; grow this segment to fit it.
		if err := seg.f.Truncate(seg.off + need); err != nil {
			e.failed = fmt.Errorf("storage: %w", err)
			return e.failed
		}
	}
	if _, err := seg.f.WriteAt(rec, seg.off); err != nil {
		e.failed = fmt.Errorf("storage: %w", err)
		return e.failed
	}
	seg.off += need
	return nil
}

// rotateLocked seals the active segment (fsync + close, so a later
// Sync need only touch the new file) and opens the next one. It first
// waits out any rider fsync in flight on the file it is about to
// close — a Sync that captured the FD outside the lock would
// otherwise fsync a closed file and sticky-fail a healthy engine.
func (e *Engine) rotateLocked() error {
	e.waitSyncLocked()
	seg := e.activeLocked()
	if err := seg.f.Sync(); err != nil {
		e.failed = fmt.Errorf("storage: fsync: %w", err)
		return e.failed
	}
	seg.f.Close()
	seg.f = nil
	return e.addSegmentLocked(seg.seq + 1)
}

// waitSyncLocked blocks until no fsync is in flight outside the lock.
func (e *Engine) waitSyncLocked() {
	for e.syncing {
		e.syncCond.Wait()
	}
}

// addSegmentLocked creates and preallocates a fresh segment whose
// first record re-states the current hard state, then fsyncs the
// directory so the file itself survives a crash.
func (e *Engine) addSegmentLocked(seq int) error {
	path := filepath.Join(e.opt.Dir, fmt.Sprintf("wal-%08d.seg", seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		e.failed = fmt.Errorf("storage: %w", err)
		return e.failed
	}
	if err := f.Truncate(e.opt.SegmentSize); err != nil {
		f.Close()
		e.failed = fmt.Errorf("storage: %w", err)
		return e.failed
	}
	e.segs = append(e.segs, &segment{path: path, seq: seq, f: f})
	e.gSegments.Set(int64(len(e.segs)))
	if err := e.dirf.Sync(); err != nil {
		e.failed = fmt.Errorf("storage: fsync dir: %w", err)
		return e.failed
	}
	if e.epoch != 0 || e.granted != 0 {
		w := wire.NewWriter(24)
		w.Uint8(recHardState)
		w.Uint64(e.epoch)
		w.Uint64(e.granted)
		return e.appendRecordLocked(w.Bytes())
	}
	return nil
}

func (e *Engine) activeLocked() *segment { return e.segs[len(e.segs)-1] }

func (e *Engine) usableLocked() error {
	if e.closed {
		return ErrClosed
	}
	return e.failed
}

// Sync implements zab.Storage with rider-style group commit: the
// first caller becomes the syncer and fsyncs outside the lock;
// callers arriving meanwhile wait, and every caller whose appends the
// completed fsync covered returns without issuing its own.
func (e *Engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if err := e.usableLocked(); err != nil {
			return err
		}
		mark := e.lastAppended
		if mark <= e.lastDurable {
			return nil
		}
		if e.syncing {
			e.syncCond.Wait()
			continue // the finished fsync may have covered our mark
		}
		e.syncing = true
		f := e.activeLocked().f
		txns := e.unsyncedTxns
		e.unsyncedTxns = 0
		e.mu.Unlock()
		err := f.Sync()
		e.mu.Lock()
		e.syncing = false
		if err != nil {
			e.failed = fmt.Errorf("storage: fsync: %w", err)
		} else {
			if mark > e.lastDurable {
				e.lastDurable = mark
				e.gDurable.Set(int64(mark))
			}
			if txns > 0 {
				e.dBatch.Observe(txns)
			}
		}
		e.syncCond.Broadcast()
		if err != nil {
			return e.failed
		}
		return nil
	}
}

// LastDurableZxid implements zab.Storage.
func (e *Engine) LastDurableZxid() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastDurable
}

// SaveSnapshotFrom implements zab.StreamStorage: the snapshot body is
// copied from data to a temp file in SnapChunkSize chunks (checksummed
// incrementally, header patched in place), fsynced and renamed beside
// the live log, then sealed segments wholly covered by it are
// reclaimed and older snapshots pruned. The body is written without
// e.mu — the snapshotter's pipe feeds it for as long as the tree walk
// takes, and Append and Sync must not wait for that — and e.mu is taken
// only to publish it.
func (e *Engine) SaveSnapshotFrom(data io.Reader, zxid uint64) error {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	e.mu.Lock()
	err := e.usableLocked()
	stale := e.hasSnap && zxid <= e.snapZxid
	e.mu.Unlock()
	if err != nil || stale {
		return err
	}
	tmp, err := e.writeSnapshotTemp(data, zxid)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.publishSnapshotLocked(tmp, zxid); err != nil {
		return err
	}
	e.reclaimSegmentsLocked()
	return nil
}

// InstallSnapshotFrom implements zab.StreamStorage: a leader-shipped
// snapshot, written as SaveSnapshotFrom writes one, replaces the entire
// log, divergent tail included.
func (e *Engine) InstallSnapshotFrom(data io.Reader, zxid uint64) error {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	tmp, err := e.writeSnapshotTemp(data, zxid)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.publishSnapshotLocked(tmp, zxid); err != nil {
		return err
	}
	// Drop every segment and start fresh past the snapshot. Wait out
	// any rider fsync first — it holds an FD we are about to close.
	e.waitSyncLocked()
	act := e.activeLocked()
	nextSeq := act.seq + 1
	for _, seg := range e.segs {
		if seg.f != nil {
			seg.f.Close()
			seg.f = nil
		}
		os.Remove(seg.path)
	}
	e.segs = nil
	e.frames = nil
	// The horizons move DOWN to exactly the snapshot: everything past
	// it was just discarded, so a stale-high lastDurable would make
	// later Syncs no-op and let unfsynced pulled frames be acked.
	e.lastAppended = zxid
	e.lastDurable = zxid
	e.gDurable.Set(int64(zxid))
	e.unsyncedTxns = 0
	if err := e.addSegmentLocked(nextSeq); err != nil {
		return err
	}
	// Harden the fresh segment's restated hard state: the old durable
	// copies were deleted with the old segments.
	if err := e.activeLocked().f.Sync(); err != nil {
		e.failed = fmt.Errorf("storage: fsync: %w", err)
		return e.failed
	}
	return nil
}

// snapHeaderSize is the fixed snapshot prologue: magic u32, zxid u64,
// body CRC-32C u32, body length u32.
const snapHeaderSize = 20

// writeSnapshotTemp streams the snapshot body from data into a temp
// file in O(SnapChunkSize) memory and returns its path: the header goes
// down with zeroed CRC/length slots, the body is copied through a chunk
// buffer while the checksum accumulates, and the real CRC/length are
// patched in place before the fsync — the rename still publishes a
// complete-by-construction file. It touches no engine state, so it runs
// without e.mu; its caller holds snapMu.
func (e *Engine) writeSnapshotTemp(data io.Reader, zxid uint64) (string, error) {
	tmp := e.snapPath(zxid) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("storage: %w", err)
	}
	var hdr [snapHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:], snapMagic)
	binary.BigEndian.PutUint64(hdr[4:], zxid)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return "", fmt.Errorf("storage: %w", err)
	}
	var (
		crc   uint32
		total int64
	)
	buf := make([]byte, e.opt.SnapChunkSize)
	for {
		n, rerr := data.Read(buf)
		if n > 0 {
			crc = crc32.Update(crc, crcTable, buf[:n])
			total += int64(n)
			if total > int64(^uint32(0)) {
				f.Close()
				return "", errors.New("storage: snapshot exceeds the 4 GiB format bound")
			}
			if _, werr := f.Write(buf[:n]); werr != nil {
				f.Close()
				return "", fmt.Errorf("storage: %w", werr)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			f.Close()
			return "", fmt.Errorf("storage: snapshot source: %w", rerr)
		}
	}
	binary.BigEndian.PutUint32(hdr[12:], crc)
	binary.BigEndian.PutUint32(hdr[16:], uint32(total))
	if _, err := f.WriteAt(hdr[12:snapHeaderSize], 12); err != nil {
		f.Close()
		return "", fmt.Errorf("storage: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("storage: fsync: %w", err)
	}
	f.Close()
	return tmp, nil
}

// publishSnapshotLocked renames a snapshot writeSnapshotTemp wrote into
// place and makes it the newest generation.
func (e *Engine) publishSnapshotLocked(tmp string, zxid uint64) error {
	if err := e.usableLocked(); err != nil {
		return err
	}
	if err := os.Rename(tmp, e.snapPath(zxid)); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := e.dirf.Sync(); err != nil {
		e.failed = fmt.Errorf("storage: fsync dir: %w", err)
		return e.failed
	}
	e.snapZxid, e.hasSnap = zxid, true
	// Keep the newest generation below this one as a fallback and prune
	// the rest — any above it too: an install may go below a snapshot of
	// our own, and recovery must not pick that one over it.
	matches, _ := filepath.Glob(filepath.Join(e.opt.Dir, "snap-*.snap"))
	gens := make(map[uint64]string, len(matches))
	var fallback uint64
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "snap-"), ".snap")
		if z, err := strconv.ParseUint(base, 16, 64); err == nil {
			gens[z] = m
			if z < zxid {
				fallback = max(fallback, z)
			}
		}
	}
	for z, m := range gens {
		if z != zxid && z != fallback {
			os.Remove(m)
		}
	}
	return nil
}

// reclaimSegmentsLocked deletes sealed segments wholly covered by the
// newest snapshot. Frames are appended in zxid order, so covered
// segments always form a prefix. Before deleting anything, the active
// segment is fsynced: its head record re-states the hard state, and
// until that copy is durable the sealed segments being deleted may
// hold the only fsynced record of the vote.
func (e *Engine) reclaimSegmentsLocked() {
	victims := 0
	for i, seg := range e.segs {
		if i < len(e.segs)-1 && seg.maxZxid <= e.snapZxid {
			victims++
		}
	}
	if victims == 0 {
		return
	}
	if err := e.activeLocked().f.Sync(); err != nil {
		e.failed = fmt.Errorf("storage: fsync: %w", err)
		return
	}
	keep := e.segs[:0]
	for i, seg := range e.segs {
		sealed := i < len(e.segs)-1
		if sealed && seg.maxZxid <= e.snapZxid {
			os.Remove(seg.path)
			continue
		}
		keep = append(keep, seg)
	}
	e.segs = keep
	e.gSegments.Set(int64(len(e.segs)))
}

func (e *Engine) snapPath(zxid uint64) string {
	return filepath.Join(e.opt.Dir, fmt.Sprintf("snap-%016x.snap", zxid))
}

// snapReader streams a snapshot body while folding the bytes into a
// running CRC-32C; once the body is exhausted it verifies the stored
// checksum and reports a mismatch as a read error in place of io.EOF,
// so a consumer that reached EOF has by construction read an intact
// snapshot.
type snapReader struct {
	f         *os.File
	path      string
	remaining int64
	crc       uint32
	want      uint32
	verified  bool
}

func (sr *snapReader) Read(p []byte) (int, error) {
	if sr.remaining == 0 {
		if !sr.verified {
			if sr.crc != sr.want {
				return 0, fmt.Errorf("storage: %s: snapshot checksum mismatch", sr.path)
			}
			sr.verified = true
		}
		return 0, io.EOF
	}
	if int64(len(p)) > sr.remaining {
		p = p[:sr.remaining]
	}
	n, err := sr.f.Read(p)
	sr.crc = crc32.Update(sr.crc, crcTable, p[:n])
	sr.remaining -= int64(n)
	if err == io.EOF {
		if sr.remaining > 0 {
			err = fmt.Errorf("storage: %s: truncated snapshot", sr.path)
		} else {
			err = nil
		}
	}
	return n, err
}

func (sr *snapReader) Close() error { return sr.f.Close() }

// openSnapshotStream opens path, checks the header against wantZxid
// and hands back a validating reader over the body.
func openSnapshotStream(path string, wantZxid uint64) (*snapReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var hdr [snapHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: %s: truncated snapshot: %w; refusing startup", path, err)
	}
	magic := binary.BigEndian.Uint32(hdr[0:])
	zxid := binary.BigEndian.Uint64(hdr[4:])
	crc := binary.BigEndian.Uint32(hdr[12:])
	length := binary.BigEndian.Uint32(hdr[16:])
	if magic != snapMagic || zxid != wantZxid {
		f.Close()
		return nil, fmt.Errorf("storage: %s: bad snapshot header; refusing startup", path)
	}
	return &snapReader{f: f, path: path, remaining: int64(length), want: crc}, nil
}

// verifySnapshot streams the whole file through the validating reader
// — O(SnapChunkSize) memory however large the snapshot — refusing
// startup on any corruption, exactly as the old load-and-check did.
func (e *Engine) verifySnapshot(path string, wantZxid uint64) error {
	sr, err := openSnapshotStream(path, wantZxid)
	if err != nil {
		return err
	}
	defer sr.Close()
	buf := make([]byte, e.opt.SnapChunkSize)
	for {
		_, err := sr.Read(buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w; refusing startup", err)
		}
	}
}

// --- introspection ----------------------------------------------------

// Segments reports the number of live WAL segments.
func (e *Engine) Segments() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.segs)
}

// SnapshotZxid reports the coverage of the newest durable snapshot
// (0 when none exists).
func (e *Engine) SnapshotZxid() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapZxid
}

// FsyncBatchTxns reports the mean transactions hardened per fsync —
// the group-commit amortization factor — and the fsync count.
func (e *Engine) FsyncBatchTxns() (mean float64, count int64) {
	return e.dBatch.Mean(), e.dBatch.Count()
}

// Close fsyncs and closes the engine. Further operations return
// ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	for e.syncing {
		e.syncCond.Wait()
	}
	e.closed = true
	var first error
	for _, seg := range e.segs {
		if seg.f == nil {
			continue
		}
		if err := seg.f.Sync(); err != nil && first == nil {
			first = err
		}
		seg.f.Close()
		seg.f = nil
	}
	if err := e.dirf.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/coord/zab"
)

func openT(t *testing.T, dir string, opts ...func(*Options)) *Engine {
	t.Helper()
	opt := Options{Dir: dir}
	for _, f := range opts {
		f(&opt)
	}
	e, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func frame(zxid uint64, txns ...string) zab.Frame {
	f := zab.Frame{Zxid: zxid}
	for _, txn := range txns {
		f.Txns = append(f.Txns, []byte(txn))
	}
	return f
}

func appendSynced(t *testing.T, e zab.Storage, frames ...zab.Frame) {
	t.Helper()
	if err := e.Append(frames); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
}

func txnsOf(fs []zab.Frame) []string {
	var out []string
	for _, f := range fs {
		for _, txn := range f.Txns {
			out = append(out, string(txn))
		}
	}
	return out
}

// walFile returns the path of the only (or newest) WAL segment.
func walFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no wal segment in %s (err=%v)", dir, err)
	}
	return matches[len(matches)-1]
}

// recordOffsets scans a segment and returns each record's offset.
func recordOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(0)
	for off+recHeaderSize <= int64(len(data)) {
		l := int64(binary.BigEndian.Uint32(data[off:]))
		if l == 0 {
			break
		}
		offs = append(offs, off)
		off += recHeaderSize + l
	}
	return offs
}

// storeKind is one zab.StreamStorage implementation under the shared
// contract, with its notion of a restart: an Engine is closed and
// reopened over its directory; a MemStorage simply outlives the node
// that wrote it.
type storeKind struct {
	name   string
	open   func(t *testing.T) zab.StreamStorage
	reopen func(t *testing.T, s zab.StreamStorage) zab.StreamStorage
}

var storeKinds = []storeKind{
	{
		name: "engine",
		open: func(t *testing.T) zab.StreamStorage { return openT(t, t.TempDir()) },
		reopen: func(t *testing.T, s zab.StreamStorage) zab.StreamStorage {
			e := s.(*Engine)
			e.Close()
			return openT(t, e.opt.Dir)
		},
	},
	{
		name:   "mem",
		open:   func(t *testing.T) zab.StreamStorage { return new(zab.MemStorage) },
		reopen: func(t *testing.T, s zab.StreamStorage) zab.StreamStorage { return s },
	},
}

// TestStorageContract runs the store-agnostic half of the zab.StreamStorage
// contract over every implementation: what a node may rely on after a
// restart, whichever store it runs on.
func TestStorageContract(t *testing.T) {
	cases := []struct {
		name string
		// prepare drives a fresh store; the checks below run against it
		// after a restart.
		prepare   func(t *testing.T, s zab.StreamStorage)
		wantTxns  []string // recovered frame payloads, in order
		wantSnap  uint64   // recovered snapshot zxid (0 = none)
		wantState string   // recovered snapshot body
		wantEpoch uint64
		wantVote  uint64
		wantTip   uint64 // durable horizon after the restart
	}{
		{
			name:    "fresh store",
			prepare: func(t *testing.T, s zab.StreamStorage) {},
		},
		{
			name: "appended and synced frames are durable",
			prepare: func(t *testing.T, s zab.StreamStorage) {
				appendSynced(t, s, frame(0x100000001, "a", "b"), frame(0x100000003, "c"))
				if d := s.LastDurableZxid(); d != 0x100000003 {
					t.Fatalf("durable horizon after Sync = %x, want %x", d, uint64(0x100000003))
				}
			},
			wantTxns: []string{"a", "b", "c"},
			wantTip:  0x100000003,
		},
		{
			name: "hard state survives",
			prepare: func(t *testing.T, s zab.StreamStorage) {
				if err := s.SaveHardState(7, 9); err != nil {
					t.Fatal(err)
				}
			},
			wantEpoch: 7,
			wantVote:  9,
		},
		{
			name: "snapshot newer than log",
			prepare: func(t *testing.T, s zab.StreamStorage) {
				appendSynced(t, s, frame(0x100000001, "old-1"), frame(0x100000002, "old-2"))
				if err := s.SaveSnapshotFrom(strings.NewReader("state@5"), 0x100000005); err != nil {
					t.Fatal(err)
				}
			},
			// The log frames are all covered by the snapshot: none replay.
			wantSnap:  0x100000005,
			wantState: "state@5",
			wantTip:   0x100000005,
		},
		{
			name: "snapshot plus log tail",
			prepare: func(t *testing.T, s zab.StreamStorage) {
				appendSynced(t, s, frame(0x100000001, "covered"))
				if err := s.SaveSnapshotFrom(strings.NewReader("state@1"), 0x100000001); err != nil {
					t.Fatal(err)
				}
				appendSynced(t, s, frame(0x100000002, "tail-1"), frame(0x100000003, "tail-2"))
			},
			wantSnap:  0x100000001,
			wantState: "state@1",
			wantTxns:  []string{"tail-1", "tail-2"},
			wantTip:   0x100000003,
		},
		{
			// Installing a snapshot BELOW the append horizon (a divergent
			// tail being discarded) must pull the durable horizon down to
			// exactly the snapshot — a stale-high horizon would let the
			// node acknowledge pulled frames it never synced.
			name: "install snapshot resets the log and lowers the durable horizon",
			prepare: func(t *testing.T, s zab.StreamStorage) {
				appendSynced(t, s, frame(0x500000063, "divergent-1"), frame(0x500000064, "divergent-2"))
				if err := s.InstallSnapshotFrom(strings.NewReader("leader state"), 0x500000032); err != nil {
					t.Fatal(err)
				}
				if d := s.LastDurableZxid(); d != 0x500000032 {
					t.Fatalf("durable horizon after install = %x, want %x", d, uint64(0x500000032))
				}
				appendSynced(t, s, frame(0x500000033, "pulled"))
				if d := s.LastDurableZxid(); d != 0x500000033 {
					t.Fatalf("durable horizon after sync = %x, want %x", d, uint64(0x500000033))
				}
			},
			wantSnap:  0x500000032,
			wantState: "leader state",
			wantTxns:  []string{"pulled"},
			wantTip:   0x500000033,
		},
	}
	for _, kind := range storeKinds {
		for _, tc := range cases {
			t.Run(kind.name+"/"+tc.name, func(t *testing.T) {
				s := kind.open(t)
				tc.prepare(t, s)
				s = kind.reopen(t, s)

				tail := s.Frames()
				if got := txnsOf(tail); !slices.Equal(got, tc.wantTxns) {
					t.Fatalf("recovered txns %v, want %v", got, tc.wantTxns)
				}
				var data []byte
				rc, snapZxid, hasSnap := s.SnapshotStream()
				if hasSnap {
					var err error
					if data, err = io.ReadAll(rc); err != nil {
						t.Fatal(err)
					}
					rc.Close()
				}
				if (tc.wantSnap != 0) != hasSnap || snapZxid != tc.wantSnap || string(data) != tc.wantState {
					t.Fatalf("snapshot = (%q, %x, %v), want (%q, %x)", data, snapZxid, hasSnap, tc.wantState, tc.wantSnap)
				}
				if epoch, vote := s.HardState(); epoch != tc.wantEpoch || vote != tc.wantVote {
					t.Fatalf("hard state = (%d, %d), want (%d, %d)", epoch, vote, tc.wantEpoch, tc.wantVote)
				}
				if d := s.LastDurableZxid(); d != tc.wantTip {
					t.Fatalf("durable horizon = %x, want %x", d, tc.wantTip)
				}

				// Frames hands the tail over: the caller owns the slice, and
				// scribbling on it must not reach what the store recovers next.
				for i := range tail {
					tail[i] = frame(0xdead, "scribble")
				}
				// Whatever was recovered must remain appendable.
				next := tc.wantTip + 1
				if next == 1 {
					next = 0x100000001
				}
				appendSynced(t, s, frame(next, "post-recovery"))
				s = kind.reopen(t, s)
				want := append(slices.Clone(tc.wantTxns), "post-recovery")
				if got := txnsOf(s.Frames()); !slices.Equal(got, want) {
					t.Fatalf("after a second restart recovered %v, want %v", got, want)
				}
			})
		}
	}
}

// TestRecovery is the table-driven sweep over the engine's on-disk
// recovery edge cases: each case prepares a data directory, optionally
// corrupts it, and states what Open must do — recover a precise state,
// truncate a torn tail, or refuse to start. What every zab.Storage
// must recover from an undamaged store is TestStorageContract's.
func TestRecovery(t *testing.T) {
	cases := []struct {
		name string
		// prepare writes engine state and returns nothing; corrupt
		// mutates the files afterwards.
		prepare  func(t *testing.T, dir string)
		corrupt  func(t *testing.T, dir string)
		wantErr  string   // non-empty: Open must fail and mention this
		wantTxns []string // recovered frame payloads, in order
	}{
		{
			name: "torn tail record is truncated",
			prepare: func(t *testing.T, dir string) {
				e := openT(t, dir)
				appendSynced(t, e, frame(0x100000001, "keep-1"), frame(0x100000002, "keep-2"), frame(0x100000003, "torn"))
			},
			corrupt: func(t *testing.T, dir string) {
				// Zero the final record's trailing bytes: a write the crash
				// interrupted, with nothing but preallocated zeros after it.
				path := walFile(t, dir)
				offs := recordOffsets(t, path)
				last := offs[len(offs)-1]
				f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteAt(make([]byte, 4), last+recHeaderSize+2); err != nil {
					t.Fatal(err)
				}
			},
			wantTxns: []string{"keep-1", "keep-2"},
		},
		{
			name: "bit-flipped CRC mid-log refuses startup",
			prepare: func(t *testing.T, dir string) {
				e := openT(t, dir)
				appendSynced(t, e, frame(0x100000001, "early"), frame(0x100000002, "later-1"), frame(0x100000003, "later-2"))
			},
			corrupt: func(t *testing.T, dir string) {
				// Flip one payload bit in the FIRST record: valid records
				// follow it, so this is corruption of acknowledged history,
				// not a torn append.
				path := walFile(t, dir)
				offs := recordOffsets(t, path)
				f, err := os.OpenFile(path, os.O_RDWR, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var b [1]byte
				pos := offs[0] + recHeaderSize + 10
				if _, err := f.ReadAt(b[:], pos); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x40
				if _, err := f.WriteAt(b[:], pos); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "corrupt record",
		},
		{
			name: "garbage past the log end refuses startup",
			prepare: func(t *testing.T, dir string) {
				e := openT(t, dir)
				appendSynced(t, e, frame(0x100000001, "x"))
			},
			corrupt: func(t *testing.T, dir string) {
				path := walFile(t, dir)
				offs := recordOffsets(t, path)
				data, _ := os.ReadFile(path)
				end := offs[len(offs)-1]
				// Skip to after the last record, past the zero header, and
				// plant non-zero garbage in the preallocated tail.
				l := int64(binary.BigEndian.Uint32(data[end:]))
				f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteAt([]byte{0xde, 0xad}, end+recHeaderSize+l+64); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "past the log end",
		},
		{
			name: "corrupt snapshot refuses startup",
			prepare: func(t *testing.T, dir string) {
				e := openT(t, dir)
				if err := e.SaveSnapshotFrom(strings.NewReader("precious state"), 0x100000004); err != nil {
					t.Fatal(err)
				}
			},
			corrupt: func(t *testing.T, dir string) {
				matches, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
				f, err := os.OpenFile(matches[0], os.O_RDWR, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteAt([]byte{0xff}, 20); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "snapshot",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.prepare(t, dir)
			// Close the preparing engine before reopening.
			if tc.corrupt != nil {
				tc.corrupt(t, dir)
			}
			e, err := Open(Options{Dir: dir})
			if tc.wantErr != "" {
				if err == nil {
					e.Close()
					t.Fatalf("Open succeeded, want error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Open error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got := txnsOf(e.Frames()); !slices.Equal(got, tc.wantTxns) {
				t.Fatalf("recovered txns %v, want %v", got, tc.wantTxns)
			}
			// The engine's Frames is single-shot: the tail is handed over
			// and released, not pinned for the engine's lifetime.
			if again := e.Frames(); len(again) != 0 {
				t.Fatalf("second Frames call returned %d frames, want the tail released", len(again))
			}
			// Whatever was recovered must remain appendable.
			next := e.LastDurableZxid() + 1
			if next == 1 {
				next = 0x100000001
			}
			appendSynced(t, e, frame(next, "post-recovery"))
		})
	}
}

// TestSegmentRotationAndReclaim drives enough records through tiny
// segments to rotate many times, then snapshots and expects the
// covered prefix to be deleted — and recovery to still work across
// the surviving segment boundary.
func TestSegmentRotationAndReclaim(t *testing.T) {
	dir := t.TempDir()
	small := func(o *Options) { o.SegmentSize = 512 }
	e := openT(t, dir, small)
	const n = 64
	for i := 0; i < n; i++ {
		appendSynced(t, e, frame(0x100000001+uint64(i), fmt.Sprintf("payload-%02d-%s", i, strings.Repeat("x", 32))))
	}
	if e.Segments() < 4 {
		t.Fatalf("expected many segments, got %d", e.Segments())
	}
	cover := uint64(0x100000001 + n - 3)
	if err := e.SaveSnapshotFrom(strings.NewReader("snap"), cover); err != nil {
		t.Fatal(err)
	}
	if e.Segments() > 3 {
		t.Fatalf("snapshot at %x reclaimed nothing: %d segments live", cover, e.Segments())
	}
	e.Close()

	e2 := openT(t, dir, small)
	got := txnsOf(e2.Frames())
	if len(got) != 2 {
		t.Fatalf("recovered %d tail txns, want 2 (%v)", len(got), got)
	}
	if !strings.HasPrefix(got[0], fmt.Sprintf("payload-%02d", n-2)) {
		t.Fatalf("tail starts at %q", got[0])
	}
}

// TestHardStateSurvivesReclaim: the vote must survive even when every
// segment it was originally written to has been reclaimed (a fresh
// segment re-states it at creation).
func TestHardStateSurvivesReclaim(t *testing.T) {
	dir := t.TempDir()
	small := func(o *Options) { o.SegmentSize = 256 }
	e := openT(t, dir, small)
	if err := e.SaveHardState(3, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		appendSynced(t, e, frame(0x300000001+uint64(i), strings.Repeat("y", 40)))
	}
	if err := e.SaveSnapshotFrom(strings.NewReader("s"), 0x300000001+31); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2 := openT(t, dir, small)
	epoch, granted := e2.HardState()
	if epoch != 3 || granted != 4 {
		t.Fatalf("hard state = (%d, %d), want (3, 4)", epoch, granted)
	}
}

// TestGroupSyncRiders: concurrent Sync callers must all return with
// their appends durable, sharing fsyncs rather than serializing one
// each (we can only assert correctness plus the batch metric here).
func TestGroupSyncRiders(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	var mu sync.Mutex
	next := uint64(0x100000000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				mu.Lock()
				next++
				z := next
				if err := e.Append([]zab.Frame{frame(z, "t")}); err != nil {
					mu.Unlock()
					t.Error(err)
					return
				}
				mu.Unlock()
				if err := e.Sync(); err != nil {
					t.Error(err)
					return
				}
				if d := e.LastDurableZxid(); d < z {
					t.Errorf("after Sync, durable %x < appended %x", d, z)
					return
				}
			}
		}()
	}
	wg.Wait()
	if mean, count := e.FsyncBatchTxns(); count == 0 || mean < 1 {
		t.Fatalf("fsync batch metric: mean=%.1f count=%d", mean, count)
	}
}

// TestAppendAloneIsNotDurable is the engine's half of the
// install-snapshot row in TestStorageContract: once the horizon has
// been pulled down to the installed snapshot, a pulled frame must need
// (and get) a real sync — Append on its own never moves the horizon.
func TestAppendAloneIsNotDurable(t *testing.T) {
	e := openT(t, t.TempDir())
	appendSynced(t, e, frame(0x500000064, "divergent"))
	if err := e.InstallSnapshotFrom(strings.NewReader("s"), 0x500000032); err != nil {
		t.Fatal(err)
	}
	if err := e.Append([]zab.Frame{frame(0x500000033, "pulled")}); err != nil {
		t.Fatal(err)
	}
	if d := e.LastDurableZxid(); d != 0x500000032 {
		t.Fatalf("append alone advanced the durable horizon to %x", d)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := e.LastDurableZxid(); d != 0x500000033 {
		t.Fatalf("durable horizon after sync = %x, want %x", d, uint64(0x500000033))
	}
}

// TestClosedEngineRefusesOps: a closed engine must error, not panic —
// the server closes the engine while late transport handlers may
// still be unwinding.
func TestClosedEngineRefusesOps(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	e.Close()
	if err := e.Append([]zab.Frame{frame(0x100000001, "x")}); err == nil {
		t.Fatal("Append on closed engine succeeded")
	}
	if err := e.Sync(); err == nil {
		t.Fatal("Sync on closed engine succeeded")
	}
	if err := e.SaveHardState(1, 1); err == nil {
		t.Fatal("SaveHardState on closed engine succeeded")
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/coord"
	"repro/internal/vfs"
)

// countingClient is a Do decorator that counts every operation that
// leaves the process — the test double the batched-API contract is
// asserted against. Every typed and asynchronous form reaches it through
// coord.Wrap, one Do each; Atomic is not counted (it is pure client-side
// routing math).
type countingClient struct {
	coord.Doer
	calls atomic.Int64
}

func (c *countingClient) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	c.calls.Add(1)
	return c.Doer.Do(ctx, op)
}

// mountCounting builds a DUFS over a counting session against env.
func mountCounting(t *testing.T, env *testEnv) (*DUFS, *countingClient) {
	t.Helper()
	sess, err := env.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	cc := &countingClient{Doer: sess}
	d, err := New(Config{Session: coord.Wrap(cc), Backends: env.backends})
	if err != nil {
		t.Fatal(err)
	}
	return d, cc
}

// TestReaddirIsOneRPC is the headline acceptance check: listing a
// K-entry directory costs exactly ONE coordination round trip —
// ChildrenData carries the directory's own node and every child's
// data — where the per-op protocol cost K+2.
func TestReaddirIsOneRPC(t *testing.T) {
	env := newEnv(t, 1, 2)
	d, cc := mountCounting(t, env)

	const K = 16
	if err := d.Mkdir("/fan", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Mkdir("/fan/sub", 0o700); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < K-1; i++ {
		h, err := d.Create(fmt.Sprintf("/fan/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}

	cc.calls.Store(0)
	entries, err := d.Readdir("/fan")
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("Readdir of %d entries issued %d coordination RPCs, want exactly 1", K, got)
	}
	if len(entries) != K {
		t.Fatalf("got %d entries, want %d", len(entries), K)
	}
	// The single round trip still delivers full entry metadata.
	for _, e := range entries {
		if e.Name == "sub" {
			if !e.IsDir || e.Mode != 0o700 {
				t.Fatalf("sub entry = %+v, want dir mode 0700", e)
			}
		} else if e.IsDir || e.Mode != 0o644 {
			t.Fatalf("file entry = %+v, want file mode 0644", e)
		}
	}

	// Error semantics survive the batching: a file is ENOTDIR, a
	// missing path ENOENT — still one RPC each.
	cc.calls.Store(0)
	if _, err := d.Readdir("/fan/f0"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("Readdir(file) err = %v, want ErrNotDir", err)
	}
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("Readdir(file) issued %d RPCs, want 1", got)
	}
	if _, err := d.Readdir("/fan/absent"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Readdir(absent) err = %v, want ErrNotExist", err)
	}
}

// TestSameShardRenameIsOneTransaction verifies a single-ensemble file
// rename runs as Get + dest-probe + one Multi (3 RPCs, no intent
// znodes), and that the intent log stays empty.
func TestSameShardRenameIsOneTransaction(t *testing.T) {
	env := newEnv(t, 1, 2)
	d, cc := mountCounting(t, env)

	if err := d.Mkdir("/r", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(d, "/r/src", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	cc.calls.Store(0)
	if err := d.Rename("/r/src", "/r/dst"); err != nil {
		t.Fatal(err)
	}
	if got := cc.calls.Load(); got != 3 {
		t.Fatalf("same-shard rename issued %d RPCs, want 3 (get, dest probe, multi)", got)
	}
	if data, err := vfs.ReadFile(d, "/r/dst"); err != nil || string(data) != "payload" {
		t.Fatalf("dst = %q, %v", data, err)
	}
	if _, err := d.Stat("/r/src"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("src after rename: %v, want ErrNotExist", err)
	}
	if n, err := d.RecoverRenames(0); err != nil || n != 0 {
		t.Fatalf("intent log after atomic rename = %d, %v; want empty", n, err)
	}
}

// TestLeafDirectoryRenameIsAtomic covers renameDir's fast path: an
// empty directory moves with one Multi instead of copy+delete.
func TestLeafDirectoryRenameIsAtomic(t *testing.T) {
	env := newEnv(t, 1, 1)
	d, cc := mountCounting(t, env)
	if err := d.Mkdir("/parent", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Mkdir("/parent/leaf", 0o711); err != nil {
		t.Fatal(err)
	}
	cc.calls.Store(0)
	if err := d.Rename("/parent/leaf", "/parent/moved"); err != nil {
		t.Fatal(err)
	}
	// get(src) + dest probe + listing + multi = 4 RPCs regardless of
	// subtree shape checks.
	if got := cc.calls.Load(); got != 4 {
		t.Fatalf("leaf dir rename issued %d RPCs, want 4", got)
	}
	fi, err := d.Stat("/parent/moved")
	if err != nil || !fi.IsDir() || fi.Mode&vfs.PermMask != 0o711 {
		t.Fatalf("moved dir stat = %+v, %v", fi, err)
	}
	if _, err := d.Stat("/parent/leaf"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("old dir survives: %v", err)
	}
}

// TestRenameDirBatchesLeafChildren verifies the subtree walk batches
// each directory's childless children: a flat 8-file directory moves
// with one Multi for all 8 creates and one for all 8 deletes.
func TestRenameDirBatchesLeafChildren(t *testing.T) {
	env := newEnv(t, 1, 2)
	d, cc := mountCounting(t, env)
	if err := d.Mkdir("/big", 0o755); err != nil {
		t.Fatal(err)
	}
	const K = 8
	for i := 0; i < K; i++ {
		h, err := d.Create(fmt.Sprintf("/big/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	cc.calls.Store(0)
	if err := d.Rename("/big", "/moved"); err != nil {
		t.Fatal(err)
	}
	// get(src) + dest probe + leaf-listing + copy(listing + create +
	// 1 batched multi) + remove(listing + 1 batched multi + delete) = 9.
	if got := cc.calls.Load(); got > 9 {
		t.Fatalf("renameDir of %d files issued %d RPCs, want <= 9 (batched)", K, got)
	}
	entries, err := d.Readdir("/moved")
	if err != nil || len(entries) != K {
		t.Fatalf("moved dir = %+v, %v; want %d files", entries, err, K)
	}
	for i := 0; i < K; i++ {
		if data, err := vfs.ReadFile(d, fmt.Sprintf("/moved/f%d", i)); err != nil || len(data) != 0 {
			t.Fatalf("moved file f%d unreadable: %v", i, err)
		}
	}
	if _, err := d.Stat("/big"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("source tree survives: %v", err)
	}
}

// multiRaceClient is a Do decorator that deletes the rename source
// through a second client immediately before the first Multi executes —
// the concurrent-unlink race against a replacing rename.
type multiRaceClient struct {
	coord.Doer
	victim string
	rival  *DUFS
	fired  atomic.Bool
}

func (c *multiRaceClient) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	if op.Kind == coord.OpMulti && !c.fired.Swap(true) {
		if err := c.rival.Unlink(c.victim); err != nil {
			return coord.Result{}, err
		}
	}
	return c.Doer.Do(ctx, op)
}

// TestFailedReplacingRenameLeavesDestinationIntact locks in the POSIX
// contract: Rename(src, dst) onto an existing dst, where src vanishes
// concurrently, must FAIL without harming dst. The destination's
// replacement rides inside the same atomic transaction as the rename,
// so the aborted batch rolls it back; the pre-transactional Unlink of
// the old implementation destroyed dst on this exact interleaving.
func TestFailedReplacingRenameLeavesDestinationIntact(t *testing.T) {
	env := newEnv(t, 1, 2)
	rival := env.newDUFS(t, "")
	if err := rival.Mkdir("/rr", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(rival, "/rr/src", []byte("source")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(rival, "/rr/dst", []byte("precious")); err != nil {
		t.Fatal(err)
	}

	sess, err := env.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	rc := &multiRaceClient{Doer: sess, victim: "/rr/src", rival: rival}
	d, err := New(Config{Session: coord.Wrap(rc), Backends: env.backends})
	if err != nil {
		t.Fatal(err)
	}

	if err := d.Rename("/rr/src", "/rr/dst"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("rename with concurrently-deleted src = %v, want ErrNotExist", err)
	}
	// dst survives, namespace entry AND physical body.
	data, err := vfs.ReadFile(d, "/rr/dst")
	if err != nil || string(data) != "precious" {
		t.Fatalf("dst after failed rename = %q, %v; want untouched contents", data, err)
	}
}

// raceClient is a Do decorator that injects an Open/Create race: the
// first coordination-level create of the victim path, in whichever form
// DUFS submits it, is preceded by a competing client creating the same
// name, so the caller's create loses with ErrNodeExists.
type raceClient struct {
	coord.Doer
	victim string
	rival  *DUFS
	fired  atomic.Bool
	hits   atomic.Int64
}

func (c *raceClient) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	if op.Kind == coord.OpCreate && op.Path == c.victim && !c.fired.Swap(true) {
		if err := vfs.WriteFile(c.rival, "/race/f", []byte("winner")); err != nil {
			return coord.Result{}, err
		}
		c.hits.Add(1)
	}
	return c.Doer.Do(ctx, op)
}

// TestOpenCreateRaceFallsBackToLookup reproduces the satellite bug:
// two clients race Open(path, OpenCreate); the loser's Create fails
// with the namespace's ErrNodeExists. O_CREAT without O_EXCL must open
// the winner's file instead of surfacing vfs.ErrExist.
func TestOpenCreateRaceFallsBackToLookup(t *testing.T) {
	env := newEnv(t, 1, 2)
	rival := env.newDUFS(t, "")
	if err := rival.Mkdir("/race", 0o755); err != nil {
		t.Fatal(err)
	}

	sess, err := env.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	rc := &raceClient{Doer: sess, victim: "/dufs/race/f", rival: rival}
	loser, err := New(Config{Session: coord.Wrap(rc), Backends: env.backends})
	if err != nil {
		t.Fatal(err)
	}

	h, err := loser.Open("/race/f", vfs.OpenRDWR|vfs.OpenCreate)
	if err != nil {
		t.Fatalf("racing Open(OpenCreate) = %v, want the winner's handle", err)
	}
	defer h.Close()
	if rc.hits.Load() != 1 {
		t.Fatal("race was never injected; test is vacuous")
	}
	buf := make([]byte, 16)
	n, _ := h.ReadAt(buf, 0)
	if string(buf[:n]) != "winner" {
		t.Fatalf("opened file contents = %q, want the race winner's %q", buf[:n], "winner")
	}
	// The namespace holds exactly one entry for the contested name.
	entries, err := loser.Readdir("/race")
	if err != nil || len(entries) != 1 {
		t.Fatalf("post-race dir = %+v, %v", entries, err)
	}
}

// TestCreateUndoPreservesConcurrentOverwrite locks in the undo-path
// upgrade: when the physical create fails AFTER another client has
// already replaced our namespace entry, the check+delete Multi must
// leave the other client's node alone (the old unconditional delete
// clobbered it).
func TestCreateUndoPreservesConcurrentOverwrite(t *testing.T) {
	env := newEnv(t, 1, 1)
	d := env.newDUFS(t, "")

	// Deterministic re-enactment: register an entry, let a second
	// client bump its version (as a concurrent overwrite would), then
	// issue the exact undo transaction Create uses and observe it
	// refuse rather than delete.
	if err := d.Mkdir("/u", 0o755); err != nil {
		t.Fatal(err)
	}
	h, err := d.Create("/u/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	sess, err := env.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	// Another client replaces the entry's data (version 0 -> 1).
	if _, err := sess.Set("/dufs/u/f", []byte("replaced"), 0); err != nil {
		t.Fatal(err)
	}
	// The undo transaction Create would have issued must now refuse.
	if _, err := sess.Multi([]coord.Op{
		coord.CheckOp("/dufs/u/f", 0),
		coord.DeleteOp("/dufs/u/f", 0),
	}); !errors.Is(err, coord.ErrBadVersion) {
		t.Fatalf("undo multi err = %v, want ErrBadVersion (refuse to clobber)", err)
	}
	if _, ok, err := sess.Exists("/dufs/u/f"); err != nil || !ok {
		t.Fatalf("concurrently-written node deleted by undo: ok=%v err=%v", ok, err)
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

// TestUnlinkAndRmdirAreOneRPC: the type check rides in the write's
// transaction as a data-guarded check, so removing a name is one
// coordination round trip whatever it turns out to be — a file, a
// directory refused with ErrIsDir or ErrNotDir, an empty directory —
// and only a symlink, which the file guard refuses, takes a second. So
// is a chmod, of a directory (the guarded set) or of a file (the guard
// misses and the leader answers from its state), and a file rename, to
// a new name or over a file. The names the guards refuse take no more
// round trips than their lookups did: a symlink's chmod 2, a rename of
// or over a symlink 3, a leaf directory's rename 4.
func TestUnlinkAndRmdirAreOneRPC(t *testing.T) {
	env := newEnv(t, 1, 2)
	d, cc := mountCounting(t, env)
	if err := d.Mkdir("/o", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Mkdir("/o/full", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Mkdir("/o/leaf", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"/o/f", "/o/g", "/o/h", "/o/i", "/o/full/kid"} {
		if err := vfs.WriteFile(d, f, []byte("body "+f)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ln := range []string{"/o/ln", "/o/ln2"} {
		if err := d.Symlink("/o/g", ln); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		op   func() error
		want error
		rpcs int64
	}{
		{"chmod dir", func() error { return d.Chmod("/o", 0o750) }, nil, 1},
		{"chmod file", func() error { return d.Chmod("/o/h", 0o600) }, nil, 1},
		{"chmod symlink", func() error { return d.Chmod("/o/ln2", 0o700) }, nil, 2},
		{"chmod missing", func() error { return d.Chmod("/o/none", 0o700) }, vfs.ErrNotExist, 1},
		{"rename file", func() error { return d.Rename("/o/h", "/o/h2") }, nil, 1},
		{"rename over file", func() error { return d.Rename("/o/h2", "/o/i") }, nil, 1},
		{"rename missing", func() error { return d.Rename("/o/h", "/o/h3") }, vfs.ErrNotExist, 1},
		{"rename over dir", func() error { return d.Rename("/o/i", "/o/leaf") }, vfs.ErrIsDir, 1},
		{"rename symlink", func() error { return d.Rename("/o/ln2", "/o/ln3") }, nil, 3},
		{"rename over symlink", func() error { return d.Rename("/o/i", "/o/ln3") }, nil, 3},
		{"rename leaf dir", func() error { return d.Rename("/o/leaf", "/o/leaf2") }, nil, 4},
		{"unlink file", func() error { return d.Unlink("/o/f") }, nil, 1},
		{"unlink dir", func() error { return d.Unlink("/o/full") }, vfs.ErrIsDir, 1},
		{"unlink missing", func() error { return d.Unlink("/o/f") }, vfs.ErrNotExist, 1},
		{"unlink symlink", func() error { return d.Unlink("/o/ln") }, nil, 2},
		{"rmdir file", func() error { return d.Rmdir("/o/g") }, vfs.ErrNotDir, 1},
		{"rmdir non-empty", func() error { return d.Rmdir("/o/full") }, vfs.ErrNotEmpty, 1},
		{"rmdir missing", func() error { return d.Rmdir("/o/none") }, vfs.ErrNotExist, 1},
		{"unlink kid", func() error { return d.Unlink("/o/full/kid") }, nil, 1},
		{"rmdir empty", func() error { return d.Rmdir("/o/full") }, nil, 1},
	} {
		cc.calls.Store(0)
		if err := c.op(); !errors.Is(err, c.want) {
			t.Fatalf("%s = %v, want %v", c.name, err, c.want)
		}
		if got := cc.calls.Load(); got != c.rpcs {
			t.Fatalf("%s issued %d coordination RPCs, want %d", c.name, got, c.rpcs)
		}
	}
	// The chmods landed where each kind keeps its mode, the renamed file
	// kept its body, and the symlink's target kept its own; the bodies
	// of the unlinked and the renamed-over files went.
	for _, p := range []string{"/o/h2", "/o/i", "/o/ln2", "/o/leaf"} {
		if _, err := d.Stat(p); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("%s was renamed away, but stats as %v", p, err)
		}
	}
	for p, want := range map[string]uint32{"/o": 0o750, "/o/leaf2": 0o755} {
		if fi, err := d.Stat(p); err != nil || fi.Mode&vfs.PermMask != want {
			t.Fatalf("%s = %+v, %v; want mode %o", p, fi, err, want)
		}
	}
	if data, err := vfs.ReadFile(d, "/o/ln3"); err != nil || string(data) != "body /o/h" {
		t.Fatalf("the file renamed twice reads %q, %v", data, err)
	}
	if fi, err := d.Stat("/o/ln3"); err != nil || fi.IsSymlink() || fi.Mode&vfs.PermMask != 0o600 {
		t.Fatalf("/o/ln3 = %+v, %v; want the file chmodded to 0600", fi, err)
	}
	if _, err := vfs.ReadFile(d, "/o/g"); err != nil {
		t.Fatal(err)
	}
	assertNamesMatchBodies(t, env, d)
}

// TestSameShardRenameIsOneTransaction verifies a single-ensemble file
// rename is one Multi — a guarded check and a move, with no lookup in
// front (1 RPC, no intent znodes) — and that the intent log stays empty.
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
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("same-shard rename issued %d RPCs, want 1 (one multi)", got)
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

// interposer is a Do decorator that runs a rival's move once, right
// before the first write naming victim (a set, a delete, or a Multi
// with an op on it, a move's destination included) leaves this client:
// the window between a lookup, or the caller's last look at the name,
// and the write it was made for. A create of victim does not trigger it.
type interposer struct {
	coord.Doer
	victim string
	move   func() error
	fired  atomic.Bool
}

func (c *interposer) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	if writes(op, c.victim) && !c.fired.Swap(true) {
		if err := c.move(); err != nil {
			return coord.Result{}, fmt.Errorf("interposed move: %w", err)
		}
	}
	return c.Doer.Do(ctx, op)
}

func writes(op coord.Op, path string) bool {
	switch op.Kind {
	case coord.OpSet, coord.OpDelete:
		return op.Path == path
	case coord.OpMulti:
		for _, o := range op.Ops {
			if o.Path == path || o.Kind == coord.OpMove && o.To == path {
				return true
			}
		}
	}
	return false
}

// mountInterposed builds a DUFS over backends whose session runs move
// before its first write naming the virtual path victim.
func mountInterposed(t *testing.T, env *testEnv, backends []vfs.FileSystem, victim string, move func() error) (*DUFS, *interposer) {
	t.Helper()
	sess, err := env.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	ic := &interposer{Doer: sess, victim: "/dufs" + victim, move: move}
	d, err := New(Config{Session: coord.Wrap(ic), Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	return d, ic
}

// assertNamesMatchBodies walks the namespace through d and fails unless
// every file name reaches its body and every body on the back-ends
// belongs to a file name: nothing dangles, nothing is orphaned.
func assertNamesMatchBodies(t *testing.T, env *testEnv, d *DUFS) {
	t.Helper()
	var walk func(dir string) int64
	walk = func(dir string) int64 {
		entries, err := d.Readdir(dir)
		if err != nil {
			t.Fatalf("Readdir(%s): %v", dir, err)
		}
		var files int64
		for _, e := range entries {
			p := dir + "/" + e.Name
			if dir == "/" {
				p = "/" + e.Name
			}
			if e.IsDir {
				files += walk(p)
				continue
			}
			fi, err := d.Stat(p)
			if err != nil {
				t.Fatalf("%s names a body that is gone: %v", p, err)
			}
			if !fi.IsSymlink() {
				files++
			}
		}
		return files
	}
	names := walk("/")
	bodies := physCount(t, env)
	if bodies != names {
		t.Fatalf("%d bodies on the back-ends for %d file names: %d orphaned", bodies, names, bodies-names)
	}
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

	d, _ := mountInterposed(t, env, env.backends, "/rr/src", func() error { return rival.Unlink("/rr/src") })
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
// guard: when the physical create fails AFTER another client has
// already replaced our namespace entry, the check+delete Multi must
// leave the other client's node alone (the old unconditional delete
// clobbered it).
func TestCreateUndoPreservesConcurrentOverwrite(t *testing.T) {
	env := newEnv(t, 1, 1)
	d := env.newDUFS(t, "")

	// Deterministic re-enactment: register an entry, let a second
	// client replace its data (as a concurrent overwrite would), then
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
	registered, _, err := sess.Get("/dufs/u/f")
	if err != nil {
		t.Fatal(err)
	}
	// Another client replaces the entry's data (version 0 -> 1).
	if _, err := sess.Set("/dufs/u/f", []byte("replaced"), 0); err != nil {
		t.Fatal(err)
	}
	// The undo transaction Create would have issued must now refuse.
	if _, err := sess.Multi([]coord.Op{
		coord.CheckDataOp("/dufs/u/f", 0, registered),
		coord.DeleteOp("/dufs/u/f", 0),
	}); !errors.Is(err, coord.ErrBadVersion) {
		t.Fatalf("undo multi err = %v, want ErrBadVersion (refuse to clobber)", err)
	}
	if _, ok, err := sess.Exists("/dufs/u/f"); err != nil || !ok {
		t.Fatalf("concurrently-written node deleted by undo: ok=%v err=%v", ok, err)
	}
}

// refusingBackend fails every file create, the physical step after a
// Create's namespace entry is registered, so Create runs its undo.
type refusingBackend struct{ vfs.FileSystem }

func (refusingBackend) Create(string, uint32) (vfs.Handle, error) {
	return nil, errors.New("refused")
}

// The four tests below put another client's move in the window between
// a lookup and the write it was made for. A file znode keeps version 0
// for life, so only the bytes a check compares tell the node read from
// the node written; each move would pass a version check, and each
// test fails if the write lands on the wrong node.

// TestInterposedRenameOverUnlink: the name being unlinked is renamed
// over before the delete. The body unlinked must be that of the znode
// deleted, or the renamed file's body is orphaned.
func TestInterposedRenameOverUnlink(t *testing.T) {
	env := newEnv(t, 1, 2)
	rival := env.newDUFS(t, "")
	if err := rival.Mkdir("/u", 0o755); err != nil {
		t.Fatal(err)
	}
	for f, body := range map[string]string{"/u/victim": "old", "/u/other": "new"} {
		if err := vfs.WriteFile(rival, f, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	d, ic := mountInterposed(t, env, env.backends, "/u/victim", func() error { return rival.Rename("/u/other", "/u/victim") })
	if err := d.Unlink("/u/victim"); err != nil {
		t.Fatal(err)
	}
	if !ic.fired.Load() {
		t.Fatal("the move was never interposed; test is vacuous")
	}
	if _, err := d.Stat("/u/victim"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("victim after unlink: %v", err)
	}
	assertNamesMatchBodies(t, env, rival)
}

// TestInterposedRecreateRename: the rename's source, then its
// destination, is deleted and re-created by another client after the
// rename read it. The rename must move or replace the file that is
// there now, not the one it read.
func TestInterposedRecreateRename(t *testing.T) {
	for _, tc := range []struct {
		name, recreate, want string
	}{
		{"source", "/r/src", "second"},
		{"destination", "/r/dst", "mine"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newEnv(t, 1, 2)
			rival := env.newDUFS(t, "")
			if err := rival.Mkdir("/r", 0o755); err != nil {
				t.Fatal(err)
			}
			for f, body := range map[string]string{"/r/src": "mine", "/r/dst": "theirs"} {
				if err := vfs.WriteFile(rival, f, []byte(body)); err != nil {
					t.Fatal(err)
				}
			}
			d, ic := mountInterposed(t, env, env.backends, tc.recreate, func() error {
				if err := rival.Unlink(tc.recreate); err != nil {
					return err
				}
				return vfs.WriteFile(rival, tc.recreate, []byte("second"))
			})
			if err := d.Rename("/r/src", "/r/dst"); err != nil {
				t.Fatal(err)
			}
			if !ic.fired.Load() {
				t.Fatal("the move was never interposed; test is vacuous")
			}
			if data, err := vfs.ReadFile(d, "/r/dst"); err != nil || string(data) != tc.want {
				t.Fatalf("dst after rename = %q, %v; want %q", data, err, tc.want)
			}
			if _, err := d.Stat("/r/src"); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("src after rename: %v", err)
			}
			assertNamesMatchBodies(t, env, rival)
		})
	}
}

// TestInterposedRecreateCreateUndo: a create whose physical step fails
// undoes its namespace entry, but another client has deleted that
// entry and created its own file under the name first. The undo must
// leave the other client's file alone.
func TestInterposedRecreateCreateUndo(t *testing.T) {
	env := newEnv(t, 1, 2)
	rival := env.newDUFS(t, "")
	if err := rival.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	refusing := make([]vfs.FileSystem, len(env.backends))
	for i, b := range env.backends {
		refusing[i] = refusingBackend{b}
	}
	d, ic := mountInterposed(t, env, refusing, "/c/f", func() error {
		if err := rival.Unlink("/c/f"); err != nil {
			return err
		}
		return vfs.WriteFile(rival, "/c/f", []byte("rival"))
	})
	if _, err := d.Create("/c/f", 0o644); err == nil {
		t.Fatal("create over a refusing back-end succeeded")
	}
	if !ic.fired.Load() {
		t.Fatal("the move was never interposed; test is vacuous")
	}
	if data, err := vfs.ReadFile(rival, "/c/f"); err != nil || string(data) != "rival" {
		t.Fatalf("rival's file after the undo = %q, %v", data, err)
	}
	assertNamesMatchBodies(t, env, rival)
}

// TestInterposedRenameOverChmod: a directory being chmodded is replaced
// by a file. The chmod must not write directory data over the file's
// znode (which would lose its FID); it resolves the name again and
// chmods the file.
func TestInterposedRenameOverChmod(t *testing.T) {
	env := newEnv(t, 1, 2)
	rival := env.newDUFS(t, "")
	if err := vfs.MkdirAll(rival, "/m/p", 0o755); err != nil {
		t.Fatal(err)
	}
	d, ic := mountInterposed(t, env, env.backends, "/m/p", func() error {
		if err := rival.Rmdir("/m/p"); err != nil {
			return err
		}
		return vfs.WriteFile(rival, "/m/p", []byte("file body"))
	})
	if err := d.Chmod("/m/p", 0o600); err != nil {
		t.Fatal(err)
	}
	if !ic.fired.Load() {
		t.Fatal("the move was never interposed; test is vacuous")
	}
	fi, err := d.Stat("/m/p")
	if err != nil || fi.IsDir() || fi.Mode&vfs.PermMask != 0o600 {
		t.Fatalf("/m/p after chmod = %+v, %v; want the file, mode 0600", fi, err)
	}
	if data, err := vfs.ReadFile(d, "/m/p"); err != nil || string(data) != "file body" {
		t.Fatalf("file after chmod = %q, %v", data, err)
	}
	assertNamesMatchBodies(t, env, rival)
}

// TestConcurrentUnlinkRenameOver races one client's unlinks against
// another's rename-overs of the same two names, for as long as the
// renames run. Whatever interleaving the scheduler produces, no file
// name may be left without its body and no body without a name. (A
// lookup-then-delete unlink orphans a body here in most runs under
// -race.)
func TestConcurrentUnlinkRenameOver(t *testing.T) {
	env := newEnv(t, 1, 2)
	renamer, unlinker := env.newDUFS(t, ""), env.newDUFS(t, "")
	if err := renamer.Mkdir("/s", 0o755); err != nil {
		t.Fatal(err)
	}
	const slots, rounds = 2, 150
	var wg sync.WaitGroup
	var renamed atomic.Bool
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer renamed.Store(true)
		for i := 0; i < rounds; i++ {
			tmp := fmt.Sprintf("/s/tmp%d", i)
			if err := vfs.WriteFile(renamer, tmp, []byte(tmp)); err != nil {
				errs <- err
				return
			}
			if err := renamer.Rename(tmp, fmt.Sprintf("/s/slot%d", i%slots)); err != nil {
				errs <- fmt.Errorf("rename %s: %w", tmp, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !renamed.Load(); i++ {
			if err := unlinker.Unlink(fmt.Sprintf("/s/slot%d", i%slots)); err != nil && !errors.Is(err, vfs.ErrNotExist) {
				errs <- fmt.Errorf("unlink: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertNamesMatchBodies(t, env, renamer)
}

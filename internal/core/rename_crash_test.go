package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend/memfs"
	"repro/internal/coord"
	"repro/internal/coord/shard"
	"repro/internal/transport"
	"repro/internal/vfs"
)

var errInjectedCrash = errors.New("injected client crash")

// crashClient is a Do decorator that, once armed, lets `allow` more
// mutations through before failing every subsequent one — simulating a
// DUFS client that dies mid-protocol (chaos_test.go style, but at the
// client rather than the server). A dead client cannot put new
// proposals on the wire in any form, blocking or asynchronous.
type crashClient struct {
	coord.Doer
	mu    sync.Mutex
	armed bool
	allow int
}

func (c *crashClient) arm(allow int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = true
	c.allow = allow
}

func (c *crashClient) mutate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return nil
	}
	if c.allow > 0 {
		c.allow--
		return nil
	}
	return errInjectedCrash
}

func (c *crashClient) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	switch op.Kind {
	case coord.OpCreate, coord.OpSet, coord.OpDelete, coord.OpMulti:
		if err := c.mutate(); err != nil {
			return coord.Result{}, err
		}
	}
	return c.Doer.Do(ctx, op)
}

// shardedEnv boots two single-server ensembles and returns a router
// factory plus shared back-ends, so several DUFS clients can mount
// the same sharded namespace.
type shardedEnv struct {
	t         *testing.T
	ensembles []*coord.Ensemble
	backends  []vfs.FileSystem
}

var shardEnvSeq int

func newShardedEnv(t *testing.T) *shardedEnv {
	t.Helper()
	shardEnvSeq++
	net := transport.NewInProc()
	env := &shardedEnv{t: t}
	for s := 0; s < 2; s++ {
		e, err := coord.StartEnsemble(coord.EnsembleConfig{
			Servers:           1,
			Net:               net,
			AddrPrefix:        fmt.Sprintf("renamecrash%d-%d", shardEnvSeq, s),
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Stop)
		env.ensembles = append(env.ensembles, e)
	}
	env.backends = []vfs.FileSystem{memfs.New(), memfs.New()}
	return env
}

func (env *shardedEnv) router() *shard.Router {
	env.t.Helper()
	var sessions []coord.Client
	for _, e := range env.ensembles {
		s, err := e.Connect(-1)
		if err != nil {
			env.t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	r, err := shard.New(sessions)
	if err != nil {
		env.t.Fatal(err)
	}
	env.t.Cleanup(func() { r.Close() })
	return r
}

func (env *shardedEnv) mount(sess coord.Client) *DUFS {
	env.t.Helper()
	d, err := New(Config{Session: sess, Backends: env.backends})
	if err != nil {
		env.t.Fatal(err)
	}
	return d
}

// crossShardPaths returns src/dst file paths whose PARENT directories
// live on different shards, so the rename's two writes land on two
// ensembles.
func crossShardPaths(t *testing.T, r *shard.Router, zroot string) (src, dst string) {
	t.Helper()
	for i := 0; i < 1024; i++ {
		a := fmt.Sprintf("/a%d", i)
		b := fmt.Sprintf("/b%d", i)
		if r.ShardFor(zroot+a+"/f") != r.ShardFor(zroot+b+"/f") {
			return a + "/src", b + "/dst"
		}
	}
	t.Fatal("no cross-shard directory pair found")
	return "", ""
}

func dirOf(p string) string {
	_, err := vfs.Clean(p)
	if err != nil {
		panic(err)
	}
	i := len(p) - 1
	for p[i] != '/' {
		i--
	}
	return p[:i]
}

// TestCrossShardRenameCrashRollForward kills the client between
// create-dest and delete-src — the rename committed (dst exists) but
// left a duplicate name. A later client's sweep must finish the job:
// dst survives with the file's contents, src disappears, the intent
// log drains.
func TestCrossShardRenameCrashRollForward(t *testing.T) {
	env := newShardedEnv(t)
	crash := &crashClient{Doer: env.router()}
	d1 := env.mount(coord.Wrap(crash))
	src, dst := crossShardPaths(t, crash.Doer.(*shard.Router), "/dufs")

	for _, dir := range []string{dirOf(src), dirOf(dst)} {
		if err := d1.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := vfs.WriteFile(d1, src, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// Allow intent-create and dst-create, then die at src-delete.
	crash.arm(2)
	if err := d1.Rename(src, dst); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("rename: got %v, want injected crash", err)
	}

	d2 := env.mount(env.router())
	if _, err := d2.Stat(src); err != nil {
		t.Fatalf("pre-sweep: src should still exist (duplicate window): %v", err)
	}
	n, err := d2.RecoverRenames(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d intents, want 1", n)
	}
	if _, err := d2.Stat(src); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("src after sweep: got %v, want ErrNotExist", err)
	}
	data, err := vfs.ReadFile(d2, dst)
	if err != nil || string(data) != "payload" {
		t.Fatalf("dst after sweep = %q, %v; want payload", data, err)
	}
	if n, err := d2.RecoverRenames(0); err != nil || n != 0 {
		t.Fatalf("second sweep = %d, %v; want clean log", n, err)
	}
}

// TestCrossShardRenameCrashRollBack kills the client before
// create-dest: nothing committed, so the sweep must discard the
// intent and leave src untouched.
func TestCrossShardRenameCrashRollBack(t *testing.T) {
	env := newShardedEnv(t)
	crash := &crashClient{Doer: env.router()}
	d1 := env.mount(coord.Wrap(crash))
	src, dst := crossShardPaths(t, crash.Doer.(*shard.Router), "/dufs")

	for _, dir := range []string{dirOf(src), dirOf(dst)} {
		if err := d1.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := vfs.WriteFile(d1, src, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// Allow only the intent create; die at dst-create.
	crash.arm(1)
	if err := d1.Rename(src, dst); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("rename: got %v, want injected crash", err)
	}

	d2 := env.mount(env.router())
	n, err := d2.RecoverRenames(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d intents, want 1", n)
	}
	data, err := vfs.ReadFile(d2, src)
	if err != nil || string(data) != "payload" {
		t.Fatalf("src after rollback = %q, %v; want intact payload", data, err)
	}
	if _, err := d2.Stat(dst); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("dst after rollback: got %v, want ErrNotExist", err)
	}
}

// TestRenameIntentLeakIsSurfaced covers the cleanup-failure path: the
// destination create fails for a reason other than "node exists" (the
// shard died) and the best-effort intent delete fails too. The intent
// znode leaks until a sweep — and the error must SAY so instead of
// swallowing the cleanup failure, while still matching the original
// error for errors.Is.
func TestRenameIntentLeakIsSurfaced(t *testing.T) {
	env := newShardedEnv(t)
	crash := &crashClient{Doer: env.router()}
	d1 := env.mount(coord.Wrap(crash))
	src, dst := crossShardPaths(t, crash.Doer.(*shard.Router), "/dufs")

	for _, dir := range []string{dirOf(src), dirOf(dst)} {
		if err := d1.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := vfs.WriteFile(d1, src, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// Allow only the intent create: the dst create fails, and so does
	// the intent-delete cleanup — the leak scenario.
	crash.arm(1)
	err := d1.Rename(src, dst)
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("rename: got %v, want the injected failure", err)
	}
	if !strings.Contains(err.Error(), "rename intent") || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("cleanup failure swallowed: error %q does not surface the leaked intent", err)
	}

	// The leak is real: a fresh client's sweep finds and drains it,
	// leaving src untouched (the rename never committed).
	d2 := env.mount(env.router())
	n, err := d2.RecoverRenames(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("sweep resolved %d intents, want the 1 leaked record", n)
	}
	if data, err := vfs.ReadFile(d2, src); err != nil || string(data) != "payload" {
		t.Fatalf("src after leak+sweep = %q, %v; want intact payload", data, err)
	}
	if _, err := d2.Stat(dst); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("dst after failed rename: got %v, want ErrNotExist", err)
	}
}

// TestShardedDeepDirectoryRename moves depth-2 subtrees through the
// shard router. Regression: an interior directory's authoritative
// znode cannot see children hosted on another shard (NumChildren is
// shard-local), so leaf classification must come from the entry KIND,
// not the stat — otherwise nested directories are copied childless
// and grandchildren are lost.
func TestShardedDeepDirectoryRename(t *testing.T) {
	env := newShardedEnv(t)
	d := env.mount(env.router())
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf("/deep%d", i)
		if err := d.Mkdir(src, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := d.Mkdir(src+"/sub", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(d, src+"/sub/f", []byte("grandchild")); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(d, src+"/top", []byte("child")); err != nil {
			t.Fatal(err)
		}
		dst := fmt.Sprintf("/moved%d", i)
		if err := d.Rename(src, dst); err != nil {
			t.Fatalf("deep rename %s -> %s: %v", src, dst, err)
		}
		if data, err := vfs.ReadFile(d, dst+"/sub/f"); err != nil || string(data) != "grandchild" {
			t.Fatalf("grandchild after rename = %q, %v", data, err)
		}
		if data, err := vfs.ReadFile(d, dst+"/top"); err != nil || string(data) != "child" {
			t.Fatalf("child after rename = %q, %v", data, err)
		}
		for _, gone := range []string{src, src + "/sub", src + "/sub/f", src + "/top"} {
			if _, err := d.Stat(gone); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("source %s survives rename: %v", gone, err)
			}
		}
	}
}

// TestShardedLeafRenameLeavesNoGhostStub covers the stub-cleanup
// regression: renaming away a directory that had materialised a stub
// on its children shard (by once hosting a child) must remove the
// stub too, or the old name remains listable as an empty ghost.
func TestShardedLeafRenameLeavesNoGhostStub(t *testing.T) {
	env := newShardedEnv(t)
	d := env.mount(env.router())
	for i := 0; i < 4; i++ {
		dir := fmt.Sprintf("/ghost%d", i)
		if err := d.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		// Materialise the stub on the children shard, then empty the
		// directory again so the rename takes the leaf fast path.
		if err := vfs.WriteFile(d, dir+"/x", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := d.Unlink(dir + "/x"); err != nil {
			t.Fatal(err)
		}
		if err := d.Rename(dir, dir+"-moved"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Stat(dir); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("stat(%s) after rename = %v, want ErrNotExist", dir, err)
		}
		if _, err := d.Readdir(dir); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("readdir(%s) after rename = %v, want ErrNotExist (ghost stub)", dir, err)
		}
	}
}

// TestRenameCleanPathLeavesNoIntent verifies the happy path drains
// its own intent record.
func TestRenameCleanPathLeavesNoIntent(t *testing.T) {
	env := newShardedEnv(t)
	d := env.mount(env.router())
	if err := d.Mkdir("/x", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(d, "/x/f", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d.Rename("/x/f", "/x/g"); err != nil {
		t.Fatal(err)
	}
	if n, err := d.RecoverRenames(0); err != nil || n != 0 {
		t.Fatalf("intent log after clean rename = %d, %v; want empty", n, err)
	}
	if data, err := vfs.ReadFile(d, "/x/g"); err != nil || string(data) != "v" {
		t.Fatalf("renamed file = %q, %v", data, err)
	}
}

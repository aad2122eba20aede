package core

import (
	"errors"
	"fmt"
	"path"
	"sync"
	"testing"
	"time"

	"repro/internal/backend/backendtest"
	"repro/internal/backend/memfs"
	"repro/internal/coord"
	"repro/internal/fid"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vfs"
)

var envSeq int

// testEnv is a coordination ensemble plus shared memfs back-ends.
type testEnv struct {
	ens      *coord.Ensemble
	backends []vfs.FileSystem
	mems     []*memfs.FS
}

func newEnv(t *testing.T, servers, backends int) *testEnv {
	t.Helper()
	envSeq++
	ens, err := coord.StartEnsemble(coord.EnsembleConfig{
		Servers:           servers,
		Net:               transport.NewInProc(),
		AddrPrefix:        fmt.Sprintf("dufs-env%d", envSeq),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ens.Stop)
	env := &testEnv{ens: ens}
	for i := 0; i < backends; i++ {
		m := memfs.New()
		env.mems = append(env.mems, m)
		env.backends = append(env.backends, m)
	}
	return env
}

func (e *testEnv) newDUFS(t *testing.T, zroot string) *DUFS {
	t.Helper()
	sess, err := e.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	d, err := New(Config{Session: sess, Backends: e.backends, ZRoot: zroot})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConformance(t *testing.T) {
	i := 0
	backendtest.Run(t, func(t *testing.T) vfs.FileSystem {
		env := newEnv(t, 3, 2)
		i++
		return env.newDUFS(t, fmt.Sprintf("/conf%d", i))
	}, backendtest.Options{})
}

func TestNewValidation(t *testing.T) {
	env := newEnv(t, 1, 1)
	sess, err := env.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := New(Config{Backends: env.backends}); err == nil {
		t.Fatal("New without session succeeded")
	}
	if _, err := New(Config{Session: sess}); err == nil {
		t.Fatal("New without backends succeeded")
	}
}

func TestDirectoryOpsNeverTouchBackends(t *testing.T) {
	// Paper §IV-A: "directories and directory-trees are considered as
	// metadata only, so they are not physically created on the
	// back-end storage."
	env := newEnv(t, 3, 2)
	d := env.newDUFS(t, "/dirs")
	for i := 0; i < 10; i++ {
		if err := d.Mkdir(fmt.Sprintf("/d%d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Stat("/d5"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Readdir("/"); err != nil {
		t.Fatal(err)
	}
	for _, m := range env.mems {
		files, dirs := backendCounts(t, m)
		if files != 0 || dirs != 0 {
			t.Fatalf("back-end touched by directory ops: %d files, %d dirs", files, dirs)
		}
	}
}

func TestFilesLandOnMappedBackend(t *testing.T) {
	env := newEnv(t, 3, 4)
	d := env.newDUFS(t, "/map")
	const n = 64
	for i := 0; i < n; i++ {
		if err := vfs.WriteFile(d, fmt.Sprintf("/f%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Every physical file must be on exactly one back-end, and the
	// spread over four back-ends must touch all of them (MD5 balance).
	total := int64(0)
	for idx, m := range env.mems {
		files, _ := backendCounts(t, m)
		total += files
		if files == 0 {
			t.Fatalf("back-end %d received no files", idx)
		}
	}
	if total != n {
		t.Fatalf("physical files = %d, want %d", total, n)
	}
}

func TestPhysicalPathIsFIDDerived(t *testing.T) {
	env := newEnv(t, 1, 1)
	d := env.newDUFS(t, "/phys")
	if err := vfs.WriteFile(d, "/name", []byte("body")); err != nil {
		t.Fatal(err)
	}
	// The file body must live under the FID-derived path, not under
	// anything name-derived: the counter's low 16 bits name the
	// directory, the client ID and the counter's other digits the file.
	g, _ := fid.NewGenerator(d.ClientID())
	f := g.Next() // the first FID this client minted
	phys := f.PhysicalPath()
	got, err := vfs.ReadFile(env.mems[0], phys)
	if err != nil {
		t.Fatalf("physical file not at %s: %v", phys, err)
	}
	if string(got) != "body" {
		t.Fatalf("physical content = %q", got)
	}
}

func TestRenameFileKeepsPhysicalData(t *testing.T) {
	// §IV-A: rename re-binds the name; data never moves.
	env := newEnv(t, 3, 2)
	d := env.newDUFS(t, "/ren")
	if err := vfs.WriteFile(d, "/old", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	before := physCount(t, env)
	if err := d.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if got := physCount(t, env); got != before {
		t.Fatalf("physical file count changed on rename: %d -> %d", before, got)
	}
	got, err := vfs.ReadFile(d, "/new")
	if err != nil || string(got) != "payload" {
		t.Fatalf("content after rename = %q, %v", got, err)
	}
}

// physCount is the number of file bodies on all back-ends.
func physCount(t *testing.T, env *testEnv) int64 {
	t.Helper()
	var total int64
	for _, m := range env.mems {
		files, _ := backendCounts(t, m)
		total += files
	}
	return total
}

// backendCounts walks a back-end and counts its files (symlinks
// included) and its directories other than the root.
func backendCounts(t *testing.T, fs vfs.FileSystem) (files, dirs int64) {
	t.Helper()
	var walk func(dir string)
	walk = func(dir string) {
		entries, err := fs.Readdir(dir)
		if err != nil {
			t.Fatalf("Readdir(%s): %v", dir, err)
		}
		for _, e := range entries {
			if !e.IsDir {
				files++
				continue
			}
			dirs++
			walk(path.Join(dir, e.Name))
		}
	}
	walk("/")
	return files, dirs
}

func TestRenameDirectorySubtree(t *testing.T) {
	env := newEnv(t, 3, 2)
	d := env.newDUFS(t, "/rdir")
	if err := d.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Mkdir("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(d, "/a/b/f", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	if err := d.Rename("/a", "/z"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(d, "/z/b/f")
	if err != nil || string(got) != "deep" {
		t.Fatalf("subtree content = %q, %v", got, err)
	}
	if _, err := d.Stat("/a"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("old subtree still present")
	}
}

func TestTwoClientsShareNamespace(t *testing.T) {
	// Two DUFS instances (distinct sessions, distinct client IDs) must
	// see one coherent filesystem — the union abstraction of §IV-A.
	env := newEnv(t, 3, 2)
	a := env.newDUFS(t, "/shared")
	b := env.newDUFS(t, "/shared")
	if a.ClientID() == b.ClientID() {
		t.Fatal("client IDs collide")
	}
	if err := a.Mkdir("/from-a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(b, "/from-a/file-b", []byte("b!")); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(a, "/from-a/file-b")
	if err != nil || string(got) != "b!" {
		t.Fatalf("a sees %q, %v", got, err)
	}
	es, err := b.Readdir("/from-a")
	if err != nil || len(es) != 1 {
		t.Fatalf("b readdir = %v, %v", es, err)
	}
}

func TestConcurrentClientsUniquePhysicalFiles(t *testing.T) {
	// Many clients creating files concurrently must never collide on
	// physical paths: FIDs embed the unique client ID (§IV-E).
	env := newEnv(t, 3, 2)
	const clients = 4
	const perClient = 30
	dufses := make([]*DUFS, clients)
	for i := range dufses {
		dufses[i] = env.newDUFS(t, "/conc")
	}
	var wg sync.WaitGroup
	for i, d := range dufses {
		wg.Add(1)
		go func(i int, d *DUFS) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				p := fmt.Sprintf("/c%d-f%d", i, j)
				if err := vfs.WriteFile(d, p, []byte(p)); err != nil {
					t.Errorf("%s: %v", p, err)
					return
				}
			}
		}(i, d)
	}
	wg.Wait()
	if got := physCount(t, env); got != clients*perClient {
		t.Fatalf("physical files = %d, want %d", got, clients*perClient)
	}
	// Spot-check content integrity through a different client.
	if err := dufses[0].Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(dufses[0], "/c3-f7")
	if err != nil || string(got) != "/c3-f7" {
		t.Fatalf("cross-client read = %q, %v", got, err)
	}
}

func TestDeleteThenRecreateGetsNewFID(t *testing.T) {
	// §IV-A: "a filename can represent two different data contents
	// (after deletion and a new creation with the same name)".
	env := newEnv(t, 1, 2)
	d := env.newDUFS(t, "/refid")
	if err := vfs.WriteFile(d, "/f", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := d.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(d, "/f", []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(d, "/f")
	if err != nil || string(got) != "second" {
		t.Fatalf("content = %q, %v", got, err)
	}
	if got := physCount(t, env); got != 1 {
		t.Fatalf("stale physical file left behind: %d", got)
	}
}

func TestChmodSplit(t *testing.T) {
	// Directory modes live in the znode; file modes live with the
	// physical file (§IV-D).
	env := newEnv(t, 1, 1)
	d := env.newDUFS(t, "/modes")
	if err := d.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Chmod("/dir", 0o700); err != nil {
		t.Fatal(err)
	}
	fi, err := d.Stat("/dir")
	if err != nil || fi.Mode&vfs.PermMask != 0o700 {
		t.Fatalf("dir mode = %o, %v", fi.Mode, err)
	}
	if err := vfs.WriteFile(d, "/file", nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Chmod("/file", 0o600); err != nil {
		t.Fatal(err)
	}
	fi, err = d.Stat("/file")
	if err != nil || fi.Mode&vfs.PermMask != 0o600 {
		t.Fatalf("file mode = %o, %v", fi.Mode, err)
	}
}

func TestMetricsCountOps(t *testing.T) {
	env := newEnv(t, 1, 1)
	sess, err := env.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	reg := metrics.NewRegistry()
	d, err := New(Config{Session: sess, Backends: env.backends, ZRoot: "/met", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mkdir("/x", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stat("/x"); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("mkdir").Value() != 1 || reg.Counter("stat").Value() != 1 {
		t.Fatalf("counters: mkdir=%d stat=%d",
			reg.Counter("mkdir").Value(), reg.Counter("stat").Value())
	}
}

func TestStatelessClientRestart(t *testing.T) {
	// §IV-I: "The DUFS client does not have any state." A brand-new
	// client must see everything an old client created, with no
	// recovery protocol.
	env := newEnv(t, 3, 2)
	old := env.newDUFS(t, "/stateless")
	if err := old.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(old, "/d/f", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	fresh := env.newDUFS(t, "/stateless")
	got, err := vfs.ReadFile(fresh, "/d/f")
	if err != nil || string(got) != "survives" {
		t.Fatalf("fresh client sees %q, %v", got, err)
	}
}

func TestNodeDataRoundTrip(t *testing.T) {
	cases := []nodeData{
		{Kind: kindDir, Mode: 0o755},
		{Kind: kindFile, Mode: 0o644, FID: fid.FID{Hi: 7, Lo: 9}},
		{Kind: kindSymlink, Mode: 0o777, Target: "/else/where"},
	}
	for _, c := range cases {
		got, err := decodeNodeData(encodeNodeData(c))
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("round trip = %+v, want %+v", got, c)
		}
	}
	if _, err := decodeNodeData([]byte{1, 2}); err == nil {
		t.Fatal("truncated node data decoded")
	}
}

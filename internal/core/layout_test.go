package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fid"
	"repro/internal/vfs"
)

// countingFS counts the directory and file creations a back-end sees.
type countingFS struct {
	vfs.FileSystem
	mkdirs, rmdirs, creates atomic.Int64
}

func (c *countingFS) Mkdir(path string, perm uint32) error {
	c.mkdirs.Add(1)
	return c.FileSystem.Mkdir(path, perm)
}

func (c *countingFS) Rmdir(path string) error {
	c.rmdirs.Add(1)
	return c.FileSystem.Rmdir(path)
}

func (c *countingFS) Create(path string, perm uint32) (vfs.Handle, error) {
	c.creates.Add(1)
	return c.FileSystem.Create(path, perm)
}

// TestCreateMakesOneBackendDirectory pins the physical layout's cost on
// the back-end: a create makes one directory (the FID's static one,
// ErrExist when another file made it first) and one file, and unlinking
// every file leaves at most the directories the FIDs named.
func TestCreateMakesOneBackendDirectory(t *testing.T) {
	env := newEnv(t, 1, 1)
	back := &countingFS{FileSystem: env.mems[0]}
	sess, err := env.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	d, err := New(Config{Session: sess, Backends: []vfs.FileSystem{back}, ZRoot: "/onedir"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	g, _ := fid.NewGenerator(d.ClientID()) // mints the FIDs d mints
	tops := map[string]bool{}
	for i := 0; i < n; i++ {
		h, err := d.Create(fmt.Sprintf("/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
		top, _, _ := strings.Cut(g.Next().PhysicalPath()[1:], "/")
		tops[top] = true
	}
	if got := back.mkdirs.Load(); got != n {
		t.Errorf("%d creates made %d back-end directories, want one each", n, got)
	}
	if got := back.creates.Load(); got != n {
		t.Errorf("%d creates made %d back-end files, want one each", n, got)
	}
	for i := 0; i < n; i++ {
		if err := d.Unlink(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	files, dirs := backendCounts(t, env.mems[0])
	if files != 0 {
		t.Errorf("%d file bodies left after unlinking every name", files)
	}
	if dirs > int64(len(tops)) {
		t.Errorf("%d back-end directories left for %d distinct top components", dirs, len(tops))
	}
	if got := back.rmdirs.Load(); got != 0 {
		t.Errorf("%d back-end rmdirs; the static hierarchy is never removed", got)
	}
}

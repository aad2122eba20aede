package memfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

func TestMkdirStatRmdir(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	if !fi.IsDir() || fi.Name != "d" {
		t.Fatalf("fi = %+v", fi)
	}
	if err := fs.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/d"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestMkdirErrors(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/a/b", 0o755); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("orphan mkdir err = %v", err)
	}
	if err := fs.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a", 0o755); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("dup mkdir err = %v", err)
	}
	if err := fs.Mkdir("/", 0o755); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("mkdir / err = %v", err)
	}
}

func TestRmdirErrors(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/d"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
	if _, err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/f"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("rmdir file err = %v", err)
	}
	if err := fs.Rmdir("/"); !errors.Is(err, vfs.ErrPerm) {
		t.Fatalf("rmdir / err = %v", err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs := New()
	h, err := fs.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	h.Close()
	got, err := vfs.ReadFile(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
	fi, _ := fs.Stat("/f")
	if fi.Size != 11 || fi.IsDir() {
		t.Fatalf("fi = %+v", fi)
	}
}

func TestWriteAtSparseAndOverwrite(t *testing.T) {
	fs := New()
	h, err := fs.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("abc"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("XY"), 0); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(fs, "/f")
	want := "XY\x00\x00\x00abc"
	if string(got) != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestReadOnlyHandleRejectsWrites(t *testing.T) {
	fs := New()
	if err := vfs.WriteFile(fs, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	h, err := fs.Open("/f", vfs.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.WriteAt([]byte("y"), 0); !errors.Is(err, vfs.ErrPerm) {
		t.Fatalf("write on RO handle err = %v", err)
	}
}

func TestOpenFlags(t *testing.T) {
	fs := New()
	if _, err := fs.Open("/nope", vfs.OpenRead); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("open missing err = %v", err)
	}
	h, err := fs.Open("/new", vfs.OpenCreate|vfs.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	h.Close()
	h2, err := fs.Open("/new", vfs.OpenWrite|vfs.OpenTrunc)
	if err != nil {
		t.Fatal(err)
	}
	h2.Close()
	fi, _ := fs.Stat("/new")
	if fi.Size != 0 {
		t.Fatalf("size after trunc = %d", fi.Size)
	}
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/d", vfs.OpenRead); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("open dir err = %v", err)
	}
}

func TestUnlink(t *testing.T) {
	fs := New()
	if err := vfs.WriteFile(fs, "/f", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("double unlink err = %v", err)
	}
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("unlink dir err = %v", err)
	}
}

func TestReaddirSorted(t *testing.T) {
	fs := New()
	for _, n := range []string{"/c", "/a", "/b"} {
		if err := fs.Mkdir(n, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := vfs.WriteFile(fs, "/z", nil); err != nil {
		t.Fatal(err)
	}
	es, err := fs.Readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	names := ""
	for _, e := range es {
		names += e.Name + ","
	}
	if names != "a,b,c,z," {
		t.Fatalf("entries = %q", names)
	}
	if !es[0].IsDir || es[3].IsDir {
		t.Fatal("IsDir flags wrong")
	}
}

func TestRenameFileAndDir(t *testing.T) {
	fs := New()
	if err := vfs.WriteFile(fs, "/f", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("old name still exists")
	}
	got, _ := vfs.ReadFile(fs, "/g")
	if string(got) != "v" {
		t.Fatalf("content after rename = %q", got)
	}
	if err := fs.Mkdir("/d1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/d1/x", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d1", "/d2"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/d2/x"); err != nil {
		t.Fatalf("child lost after dir rename: %v", err)
	}
}

func TestRenameOntoExisting(t *testing.T) {
	fs := New()
	if err := vfs.WriteFile(fs, "/a", []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/b", []byte("B")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(fs, "/b")
	if string(got) != "A" {
		t.Fatalf("content = %q", got)
	}
	if fs.files != 1 {
		t.Fatalf("files = %d, want 1", fs.files)
	}
	// dir over non-empty dir fails
	if err := fs.Mkdir("/d1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d2", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/d2/x", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d1", "/d2"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("rename onto non-empty dir err = %v", err)
	}
	// file over dir fails
	if err := fs.Rename("/b", "/d1"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("file-over-dir err = %v", err)
	}
}

func TestRenameIntoOwnSubtree(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d", "/d/sub"); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestSymlink(t *testing.T) {
	fs := New()
	if err := fs.Symlink("/target", "/link"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Readlink("/link")
	if err != nil || got != "/target" {
		t.Fatalf("readlink = %q, %v", got, err)
	}
	fi, _ := fs.Stat("/link")
	if !fi.IsSymlink() {
		t.Fatalf("mode = %o", fi.Mode)
	}
	if _, err := fs.Readlink("/"); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("readlink on dir err = %v", err)
	}
}

func TestTruncate(t *testing.T) {
	fs := New()
	if err := vfs.WriteFile(fs, "/f", []byte("123456")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/f", 3); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(fs, "/f")
	if string(got) != "123" {
		t.Fatalf("after shrink = %q", got)
	}
	if err := fs.Truncate("/f", 5); err != nil {
		t.Fatal(err)
	}
	got, _ = vfs.ReadFile(fs, "/f")
	if string(got) != "123\x00\x00" {
		t.Fatalf("after grow = %q", got)
	}
	if err := fs.Truncate("/f", -1); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("negative size err = %v", err)
	}
}

func TestChmodAccess(t *testing.T) {
	fs := New()
	if err := vfs.WriteFile(fs, "/f", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod("/f", 0o400); err != nil {
		t.Fatal(err)
	}
	if err := fs.Access("/f", vfs.AccessRead); err != nil {
		t.Fatalf("read access denied: %v", err)
	}
	if err := fs.Access("/f", vfs.AccessWrite); !errors.Is(err, vfs.ErrAccess) {
		t.Fatalf("write access err = %v", err)
	}
	fi, _ := fs.Stat("/f")
	if fi.Mode&vfs.PermMask != 0o400 {
		t.Fatalf("mode = %o", fi.Mode)
	}
}

func TestCountsTrackEverything(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/d/f", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/x", "/d/l"); err != nil {
		t.Fatal(err)
	}
	if fs.files != 2 || fs.dirs != 1 {
		t.Fatalf("counts = %d files, %d dirs", fs.files, fs.dirs)
	}
	if err := fs.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if fs.files != 1 {
		t.Fatalf("files after unlink = %d", fs.files)
	}
}

func TestConcurrentCreates(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/p", 0o755); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				path := fmt.Sprintf("/p/f-%d-%d", w, i)
				if err := vfs.WriteFile(fs, path, []byte("x")); err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	es, err := fs.Readdir("/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 800 {
		t.Fatalf("entries = %d", len(es))
	}
}

func TestWriteReadRoundTripProperty(t *testing.T) {
	fs := New()
	i := 0
	if err := quick.Check(func(data []byte) bool {
		i++
		path := fmt.Sprintf("/q%d", i)
		if err := vfs.WriteFile(fs, path, data); err != nil {
			return false
		}
		got, err := vfs.ReadFile(fs, path)
		if err != nil {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for j := range data {
			if got[j] != data[j] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

package vfs

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// fakeFS records which (op, path) pairs were invoked. It implements
// FileSystem with no behaviour, for forwarding tests.
type fakeFS struct {
	calls []string
}

func (f *fakeFS) record(op, path string) { f.calls = append(f.calls, op+":"+path) }

func (f *fakeFS) Mkdir(p string, _ uint32) error { f.record("mkdir", p); return nil }
func (f *fakeFS) Rmdir(p string) error           { f.record("rmdir", p); return nil }
func (f *fakeFS) Create(p string, _ uint32) (Handle, error) {
	f.record("create", p)
	return nopHandle{}, nil
}
func (f *fakeFS) Open(p string, _ int) (Handle, error) { f.record("open", p); return nopHandle{}, nil }
func (f *fakeFS) Unlink(p string) error                { f.record("unlink", p); return nil }
func (f *fakeFS) Stat(p string) (FileInfo, error) {
	f.record("stat", p)
	return FileInfo{Name: p, Mtime: time.Now()}, nil
}
func (f *fakeFS) Readdir(p string) ([]DirEntry, error) { f.record("readdir", p); return nil, nil }
func (f *fakeFS) Rename(o, n string) error             { f.record("rename", o+"->"+n); return nil }
func (f *fakeFS) Symlink(t, l string) error            { f.record("symlink", l); return nil }
func (f *fakeFS) Readlink(p string) (string, error)    { f.record("readlink", p); return "", nil }
func (f *fakeFS) Truncate(p string, _ int64) error     { f.record("truncate", p); return nil }
func (f *fakeFS) Chmod(p string, _ uint32) error       { f.record("chmod", p); return nil }
func (f *fakeFS) Access(p string, _ uint32) error      { f.record("access", p); return nil }

type nopHandle struct{}

func (nopHandle) ReadAt(p []byte, off int64) (int, error)  { return 0, nil }
func (nopHandle) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (nopHandle) Close() error                             { return nil }

func TestClean(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{"/", "/", false},
		{"/a", "/a", false},
		{"/a/b/", "/a/b", false},
		{"//a//b", "/a/b", false},
		{"/a/./b", "/a/b", false},
		{"/a/../b", "/b", false},
		{"/..", "", true},
		{"relative", "", true},
		{"", "", true},
	}
	for _, c := range cases {
		got, err := Clean(c.in)
		if c.wantErr != (err != nil) {
			t.Errorf("Clean(%q) err = %v, wantErr=%v", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCleanIdempotentProperty(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		p, err := Clean("/" + s)
		if err != nil {
			return true // rejected input; nothing to verify
		}
		p2, err := Clean(p)
		return err == nil && p2 == p
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzClean checks Clean's fast path against the general one: for any
// input, Clean returns exactly what rebuilding the path from its
// segments returns, error included.
func FuzzClean(f *testing.F) {
	for _, seed := range []string{"/", "//a", "/a/./b", "/a/../b", "/a/", "..", "/a/" + strings.Repeat("x", 256), "/a/b"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, gotErr := Clean(in)
		want, wantErr := cleanSegments(in)
		if got != want || gotErr != wantErr {
			t.Fatalf("Clean(%q) = %q, %v; the general path gives %q, %v", in, got, gotErr, want, wantErr)
		}
	})
}

func TestSplit(t *testing.T) {
	cases := []struct{ in, dir, name string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
	}
	for _, c := range cases {
		d, n := Split(c.in)
		if d != c.dir || n != c.name {
			t.Errorf("Split(%q) = (%q,%q)", c.in, d, n)
		}
	}
}

func TestDummyForwardsEverything(t *testing.T) {
	inner := &fakeFS{}
	d := NewDummy(inner)
	if err := d.Mkdir("/x", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stat("/x"); err != nil {
		t.Fatal(err)
	}
	if len(inner.calls) != 2 {
		t.Fatalf("calls = %v", inner.calls)
	}
}

func TestFileInfoPredicates(t *testing.T) {
	dir := FileInfo{Mode: ModeDir | 0o755}
	if !dir.IsDir() || dir.IsSymlink() {
		t.Fatal("dir predicates wrong")
	}
	link := FileInfo{Mode: ModeSymlink | 0o777}
	if !link.IsSymlink() || link.IsDir() {
		t.Fatal("symlink predicates wrong")
	}
	reg := FileInfo{Mode: ModeRegular | 0o644}
	if reg.IsDir() || reg.IsSymlink() {
		t.Fatal("regular predicates wrong")
	}
}

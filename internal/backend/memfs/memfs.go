// Package memfs is a complete in-memory filesystem implementing
// vfs.FileSystem. It plays two roles in the reproduction:
//
//   - the local "physical" store inside each simulated storage server
//     (Lustre OSS object store, PVFS data server), and
//   - a stand-alone back-end mount for unit tests and examples.
//
// It is safe for concurrent use; a single RWMutex guards the
// namespace, matching the coarse-grained semantics of a local disk
// filesystem under one kernel.
package memfs

import (
	"errors"
	"strings"
	"sync"
	"time"
)

import "repro/internal/vfs"

type inode struct {
	mode     uint32
	data     []byte
	target   string // symlink target
	children map[string]*inode
	nlink    uint32
	ctime    time.Time
	mtime    time.Time
}

func (n *inode) isDir() bool { return n.mode&vfs.ModeDir != 0 }

// FS is an in-memory filesystem. Use New.
type FS struct {
	mu   sync.RWMutex
	root *inode

	files int64 // regular files + symlinks
	dirs  int64 // directories, excluding root
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{
		root: &inode{
			mode:     vfs.ModeDir | 0o755,
			children: make(map[string]*inode),
			nlink:    2,
			ctime:    time.Now(),
			mtime:    time.Now(),
		},
	}
}

// lookup walks to the inode at a cleaned path. Caller holds f.mu.
func (f *FS) lookup(path string) (*inode, error) {
	if path == "/" {
		return f.root, nil
	}
	cur := f.root
	for rest := path[1:]; ; {
		seg, tail, more := strings.Cut(rest, "/")
		if !cur.isDir() {
			return nil, vfs.ErrNotDir
		}
		next, ok := cur.children[seg]
		if !ok {
			return nil, vfs.ErrNotExist
		}
		if !more {
			return next, nil
		}
		cur, rest = next, tail
	}
}

// lookupParent returns the parent directory inode and the base name.
func (f *FS) lookupParent(path string) (*inode, string, error) {
	dir, name := vfs.Split(path)
	if name == "" {
		return nil, "", vfs.ErrInvalid
	}
	p, err := f.lookup(dir)
	if err != nil {
		return nil, "", err
	}
	if !p.isDir() {
		return nil, "", vfs.ErrNotDir
	}
	return p, name, nil
}

// Mkdir implements vfs.FileSystem.
func (f *FS) Mkdir(path string, perm uint32) error {
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return vfs.ErrExist
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.lookupParent(p)
	if err != nil {
		return err
	}
	if _, dup := parent.children[name]; dup {
		return vfs.ErrExist
	}
	now := time.Now()
	parent.children[name] = &inode{
		mode:     vfs.ModeDir | (perm & vfs.PermMask),
		children: make(map[string]*inode),
		nlink:    2,
		ctime:    now,
		mtime:    now,
	}
	parent.nlink++
	parent.mtime = now
	f.dirs++
	return nil
}

// Rmdir implements vfs.FileSystem.
func (f *FS) Rmdir(path string) error {
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return vfs.ErrPerm
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	if !n.isDir() {
		return vfs.ErrNotDir
	}
	if len(n.children) > 0 {
		return vfs.ErrNotEmpty
	}
	delete(parent.children, name)
	parent.nlink--
	parent.mtime = time.Now()
	f.dirs--
	return nil
}

type handle struct {
	fs    *FS
	node  *inode
	write bool
}

// ReadAt implements vfs.Handle.
func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	if off >= int64(len(h.node.data)) {
		return 0, nil
	}
	n := copy(p, h.node.data[off:])
	return n, nil
}

// WriteAt implements vfs.Handle.
func (h *handle) WriteAt(p []byte, off int64) (int, error) {
	if !h.write {
		return 0, vfs.ErrPerm
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(h.node.data)) {
		grown := make([]byte, end)
		copy(grown, h.node.data)
		h.node.data = grown
	}
	copy(h.node.data[off:], p)
	h.node.mtime = time.Now()
	return len(p), nil
}

// Close implements vfs.Handle.
func (h *handle) Close() error { return nil }

// Create implements vfs.FileSystem.
func (f *FS) Create(path string, perm uint32) (vfs.Handle, error) {
	p, err := vfs.Clean(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.lookupParent(p)
	if err != nil {
		return nil, err
	}
	if _, dup := parent.children[name]; dup {
		return nil, vfs.ErrExist
	}
	now := time.Now()
	n := &inode{
		mode:  vfs.ModeRegular | (perm & vfs.PermMask),
		nlink: 1,
		ctime: now,
		mtime: now,
	}
	parent.children[name] = n
	parent.mtime = now
	f.files++
	return &handle{fs: f, node: n, write: true}, nil
}

// Open implements vfs.FileSystem.
func (f *FS) Open(path string, flags int) (vfs.Handle, error) {
	p, err := vfs.Clean(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookup(p)
	if errors.Is(err, vfs.ErrNotExist) && flags&vfs.OpenCreate != 0 {
		parent, name, perr := f.lookupParent(p)
		if perr != nil {
			return nil, perr
		}
		now := time.Now()
		n = &inode{mode: vfs.ModeRegular | 0o644, nlink: 1, ctime: now, mtime: now}
		parent.children[name] = n
		parent.mtime = now
		f.files++
		err = nil
	}
	if err != nil {
		return nil, err
	}
	if n.isDir() {
		return nil, vfs.ErrIsDir
	}
	write := flags&(vfs.OpenWrite|vfs.OpenRDWR|vfs.OpenCreate|vfs.OpenTrunc) != 0
	if flags&vfs.OpenTrunc != 0 {
		n.data = nil
		n.mtime = time.Now()
	}
	return &handle{fs: f, node: n, write: write}, nil
}

// Unlink implements vfs.FileSystem.
func (f *FS) Unlink(path string) error {
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	if n.isDir() {
		return vfs.ErrIsDir
	}
	delete(parent.children, name)
	parent.mtime = time.Now()
	f.files--
	return nil
}

// Stat implements vfs.FileSystem.
func (f *FS) Stat(path string) (vfs.FileInfo, error) {
	p, err := vfs.Clean(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.lookup(p)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	_, name := vfs.Split(p)
	return vfs.FileInfo{
		Name:  name,
		Size:  int64(len(n.data)),
		Mode:  n.mode,
		Nlink: n.nlink,
		Ctime: n.ctime,
		Mtime: n.mtime,
	}, nil
}

// Readdir implements vfs.FileSystem.
func (f *FS) Readdir(path string) ([]vfs.DirEntry, error) {
	p, err := vfs.Clean(path)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.lookup(p)
	if err != nil {
		return nil, err
	}
	if !n.isDir() {
		return nil, vfs.ErrNotDir
	}
	out := make([]vfs.DirEntry, 0, len(n.children))
	for name, c := range n.children {
		out = append(out, vfs.DirEntry{Name: name, IsDir: c.isDir(), Mode: c.mode & vfs.PermMask})
	}
	sortEntries(out)
	return out, nil
}

func sortEntries(es []vfs.DirEntry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Name < es[j-1].Name; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// Rename implements vfs.FileSystem. POSIX semantics: the destination
// may exist and is replaced if compatible (file over file, empty dir
// over dir).
func (f *FS) Rename(oldPath, newPath string) error {
	op, err := vfs.Clean(oldPath)
	if err != nil {
		return err
	}
	np, err := vfs.Clean(newPath)
	if err != nil {
		return err
	}
	if op == "/" || np == "/" {
		return vfs.ErrPerm
	}
	if op == np {
		return nil
	}
	if strings.HasPrefix(np, op+"/") {
		return vfs.ErrInvalid // cannot move a directory into itself
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	oparent, oname, err := f.lookupParent(op)
	if err != nil {
		return err
	}
	n, ok := oparent.children[oname]
	if !ok {
		return vfs.ErrNotExist
	}
	nparent, nname, err := f.lookupParent(np)
	if err != nil {
		return err
	}
	if existing, ok := nparent.children[nname]; ok {
		switch {
		case existing.isDir() && !n.isDir():
			return vfs.ErrIsDir
		case !existing.isDir() && n.isDir():
			return vfs.ErrNotDir
		case existing.isDir() && len(existing.children) > 0:
			return vfs.ErrNotEmpty
		}
		if existing.isDir() {
			nparent.nlink--
			f.dirs--
		} else {
			f.files--
		}
	}
	delete(oparent.children, oname)
	nparent.children[nname] = n
	now := time.Now()
	oparent.mtime = now
	nparent.mtime = now
	if n.isDir() {
		oparent.nlink--
		nparent.nlink++
	}
	return nil
}

// Symlink implements vfs.FileSystem.
func (f *FS) Symlink(target, linkPath string) error {
	p, err := vfs.Clean(linkPath)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.lookupParent(p)
	if err != nil {
		return err
	}
	if _, dup := parent.children[name]; dup {
		return vfs.ErrExist
	}
	now := time.Now()
	parent.children[name] = &inode{
		mode:   vfs.ModeSymlink | 0o777,
		target: target,
		nlink:  1,
		ctime:  now,
		mtime:  now,
	}
	parent.mtime = now
	f.files++
	return nil
}

// Readlink implements vfs.FileSystem.
func (f *FS) Readlink(path string) (string, error) {
	p, err := vfs.Clean(path)
	if err != nil {
		return "", err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.lookup(p)
	if err != nil {
		return "", err
	}
	if !n.IsSymlinkMode() {
		return "", vfs.ErrInvalid
	}
	return n.target, nil
}

// IsSymlinkMode reports whether the inode is a symlink.
func (n *inode) IsSymlinkMode() bool { return n.mode&vfs.ModeSymlink == vfs.ModeSymlink }

// Truncate implements vfs.FileSystem.
func (f *FS) Truncate(path string, size int64) error {
	if size < 0 {
		return vfs.ErrInvalid
	}
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookup(p)
	if err != nil {
		return err
	}
	if n.isDir() {
		return vfs.ErrIsDir
	}
	switch {
	case int64(len(n.data)) > size:
		n.data = n.data[:size]
	case int64(len(n.data)) < size:
		grown := make([]byte, size)
		copy(grown, n.data)
		n.data = grown
	}
	n.mtime = time.Now()
	return nil
}

// Chmod implements vfs.FileSystem.
func (f *FS) Chmod(path string, perm uint32) error {
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookup(p)
	if err != nil {
		return err
	}
	n.mode = (n.mode &^ vfs.PermMask) | (perm & vfs.PermMask)
	return nil
}

// Access implements vfs.FileSystem. Ownership is not modelled; the
// check is against the user permission bits, which is what the DUFS
// prototype needs.
func (f *FS) Access(path string, mask uint32) error {
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.lookup(p)
	if err != nil {
		return err
	}
	perm := (n.mode & vfs.PermMask) >> 6 // user bits
	if mask&AccessBits(perm) != mask {
		return vfs.ErrAccess
	}
	return nil
}

// AccessBits maps permission bits to an access mask.
func AccessBits(perm uint32) uint32 { return perm & 7 }

var _ vfs.FileSystem = (*FS)(nil)

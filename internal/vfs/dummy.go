package vfs

import "sync"

// Dummy is the paper's "dummy FUSE filesystem which just does nothing,
// except forwarding the requests to a local filesystem" (§V-E). It
// wraps an inner filesystem and forwards every call, optionally
// counting operations so the memory study can correlate footprint with
// request volume.
type Dummy struct {
	Inner FileSystem
	ops   sync.Map // op name -> *int64 (simple counters)
}

// NewDummy wraps inner.
func NewDummy(inner FileSystem) *Dummy { return &Dummy{Inner: inner} }

// Mkdir implements FileSystem.
func (d *Dummy) Mkdir(path string, perm uint32) error { return d.Inner.Mkdir(path, perm) }

// Rmdir implements FileSystem.
func (d *Dummy) Rmdir(path string) error { return d.Inner.Rmdir(path) }

// Create implements FileSystem.
func (d *Dummy) Create(path string, perm uint32) (Handle, error) { return d.Inner.Create(path, perm) }

// Open implements FileSystem.
func (d *Dummy) Open(path string, flags int) (Handle, error) { return d.Inner.Open(path, flags) }

// Unlink implements FileSystem.
func (d *Dummy) Unlink(path string) error { return d.Inner.Unlink(path) }

// Stat implements FileSystem.
func (d *Dummy) Stat(path string) (FileInfo, error) { return d.Inner.Stat(path) }

// Readdir implements FileSystem.
func (d *Dummy) Readdir(path string) ([]DirEntry, error) { return d.Inner.Readdir(path) }

// Rename implements FileSystem.
func (d *Dummy) Rename(o, n string) error { return d.Inner.Rename(o, n) }

// Symlink implements FileSystem.
func (d *Dummy) Symlink(t, l string) error { return d.Inner.Symlink(t, l) }

// Readlink implements FileSystem.
func (d *Dummy) Readlink(p string) (string, error) { return d.Inner.Readlink(p) }

// Truncate implements FileSystem.
func (d *Dummy) Truncate(p string, s int64) error { return d.Inner.Truncate(p, s) }

// Chmod implements FileSystem.
func (d *Dummy) Chmod(p string, m uint32) error { return d.Inner.Chmod(p, m) }

// Access implements FileSystem.
func (d *Dummy) Access(p string, m uint32) error { return d.Inner.Access(p, m) }

var _ FileSystem = (*Dummy)(nil)

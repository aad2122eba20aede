// Package vfs is the userspace stand-in for FUSE (paper §II-B, §IV-C).
//
// The paper uses FUSE only as a POSIX entry point: applications issue
// filesystem calls, the kernel module bounces them to the DUFS daemon,
// DUFS translates them (open -> dufs_open, ...) and returns results.
// This package provides the same call surface — a FileSystem interface
// with the operation set the DUFS prototype implements ("mkdir,
// create, open, symlink, rename, stat, readdir, rmdir, unlink,
// truncate, chmod, access, read, write") — and a Dummy passthrough
// filesystem used by the paper's memory study (Fig 11). DUFS is one
// mount over N back-ends (§IV-A), so no mount table routes between
// filesystems here.
package vfs

import (
	"errors"
	"strings"
	"time"
)

// Errors mirror the POSIX errno values a FUSE filesystem returns.
var (
	ErrNotExist  = errors.New("vfs: no such file or directory") // ENOENT
	ErrExist     = errors.New("vfs: file exists")               // EEXIST
	ErrNotDir    = errors.New("vfs: not a directory")           // ENOTDIR
	ErrIsDir     = errors.New("vfs: is a directory")            // EISDIR
	ErrNotEmpty  = errors.New("vfs: directory not empty")       // ENOTEMPTY
	ErrInvalid   = errors.New("vfs: invalid argument")          // EINVAL
	ErrPerm      = errors.New("vfs: operation not permitted")   // EPERM
	ErrAccess    = errors.New("vfs: permission denied")         // EACCES
	ErrReadOnly  = errors.New("vfs: read-only file system")     // EROFS
	ErrNotionSup = errors.New("vfs: operation not supported")   // ENOTSUP
	ErrStale     = errors.New("vfs: stale file handle")         // ESTALE
	ErrNameLong  = errors.New("vfs: file name too long")        // ENAMETOOLONG
)

// Mode bits, a minimal subset of POSIX st_mode.
const (
	ModeDir     uint32 = 0o040000
	ModeSymlink uint32 = 0o120000
	ModeRegular uint32 = 0o100000
	PermMask    uint32 = 0o7777
)

// Access mask bits for the Access operation.
const (
	AccessRead  uint32 = 4
	AccessWrite uint32 = 2
	AccessExec  uint32 = 1
)

// Open flags, a minimal subset of POSIX open(2).
const (
	OpenRead   = 0x0
	OpenWrite  = 0x1
	OpenRDWR   = 0x2
	OpenCreate = 0x40
	OpenTrunc  = 0x200
)

// FileInfo is the stat structure returned by Stat — the fields the
// paper's stat() algorithm fills from the Znode or the physical file
// (Fig 6).
type FileInfo struct {
	Name  string
	Size  int64
	Mode  uint32 // type bits | permissions
	Nlink uint32
	Ctime time.Time
	Mtime time.Time
}

// IsDir reports whether the entry is a directory.
func (fi FileInfo) IsDir() bool { return fi.Mode&ModeDir != 0 }

// IsSymlink reports whether the entry is a symbolic link.
func (fi FileInfo) IsSymlink() bool { return fi.Mode&ModeSymlink == ModeSymlink }

// DirEntry is one readdir record. Mode carries the entry's permission
// bits when the filesystem has them at listing time (DUFS's batched
// readdir does); 0 means "not reported" — callers needing authoritative
// modes must Stat.
type DirEntry struct {
	Name  string
	IsDir bool
	Mode  uint32
}

// Handle is an open file. Read/write follow the pread/pwrite model
// FUSE uses.
type Handle interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Close() error
}

// FileSystem is the operation surface the DUFS prototype implements
// (paper §IV-C). Paths are absolute within the filesystem ("/x/y").
type FileSystem interface {
	Mkdir(path string, perm uint32) error
	Rmdir(path string) error
	Create(path string, perm uint32) (Handle, error)
	Open(path string, flags int) (Handle, error)
	Unlink(path string) error
	Stat(path string) (FileInfo, error)
	Readdir(path string) ([]DirEntry, error)
	Rename(oldPath, newPath string) error
	Symlink(target, linkPath string) error
	Readlink(path string) (string, error)
	Truncate(path string, size int64) error
	Chmod(path string, perm uint32) error
	Access(path string, mask uint32) error
}

// Clean normalizes a path: collapses slashes, resolves "."/"" and
// rejects escapes above the root. It returns "/" for the root. A path
// already in that form is returned as is, without a copy.
func Clean(path string) (string, error) {
	if isClean(path) {
		return path, nil
	}
	return cleanSegments(path)
}

// isClean reports whether path is already what Clean would return: it
// is rooted, and every segment is non-empty, neither "." nor "..", and
// at most 255 bytes long.
func isClean(path string) bool {
	if path == "/" {
		return true
	}
	if len(path) < 2 || path[0] != '/' {
		return false
	}
	for rest := path[1:]; ; {
		seg, tail, more := strings.Cut(rest, "/")
		if seg == "" || seg == "." || seg == ".." || len(seg) > 255 {
			return false
		}
		if !more {
			return true
		}
		rest = tail
	}
}

// cleanSegments is Clean's general path: it rebuilds the path from its
// segments.
func cleanSegments(path string) (string, error) {
	if path == "" {
		return "", ErrInvalid
	}
	if path[0] != '/' {
		return "", ErrInvalid
	}
	parts := make([]string, 0, 8)
	for _, seg := range strings.Split(path, "/") {
		switch seg {
		case "", ".":
		case "..":
			if len(parts) == 0 {
				return "", ErrInvalid
			}
			parts = parts[:len(parts)-1]
		default:
			if len(seg) > 255 {
				return "", ErrNameLong
			}
			parts = append(parts, seg)
		}
	}
	if len(parts) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(parts, "/"), nil
}

// Split returns the parent path and base name of a cleaned path.
func Split(path string) (dir, name string) {
	i := strings.LastIndexByte(path, '/')
	if i == 0 {
		if len(path) == 1 {
			return "/", ""
		}
		return "/", path[1:]
	}
	return path[:i], path[i+1:]
}

// ReadFile is a convenience helper: open, read everything, close.
func ReadFile(fs FileSystem, path string) ([]byte, error) {
	fi, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	h, err := fs.Open(path, OpenRead)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	buf := make([]byte, fi.Size)
	n, err := h.ReadAt(buf, 0)
	if err != nil && n != len(buf) {
		return nil, err
	}
	return buf[:n], nil
}

// WriteFile is a convenience helper: create/truncate, write, close.
func WriteFile(fs FileSystem, path string, data []byte) error {
	h, err := fs.Create(path, 0o644)
	if err != nil {
		h2, err2 := fs.Open(path, OpenWrite|OpenTrunc)
		if err2 != nil {
			return err
		}
		h = h2
	}
	defer h.Close()
	if _, err := h.WriteAt(data, 0); err != nil {
		return err
	}
	return nil
}

// MkdirAll creates a directory and any missing parents.
func MkdirAll(fs FileSystem, path string, perm uint32) error {
	p, err := Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return nil
	}
	parts := strings.Split(p[1:], "/")
	cur := ""
	for _, seg := range parts {
		cur += "/" + seg
		if err := fs.Mkdir(cur, perm); err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Package core implements DUFS — the Distributed Union File System,
// the paper's primary contribution (§IV).
//
// DUFS presents a single POSIX-style namespace that unions N mounts of
// a parallel filesystem. The metadata path is the paper's two-step
// indirection (Fig 2):
//
//	virtual path --(coordination service)--> FID --(MD5 mod N)--> physical path
//
// Directories and the directory tree exist ONLY in the coordination
// service: a directory operation never touches the back-end storage
// (§IV-A: "directories and directory-trees are considered as metadata
// only"). A file's znode carries its 128-bit FID in the custom data
// field; the file body lives on the back-end mount selected by the
// deterministic mapping function, under the FID-derived physical path
// (Fig 4), so renames never move data.
//
// A DUFS instance is stateless (§IV-I): everything lives in the
// coordination service or on the back-end storage, so clients can
// appear and disappear freely. DUFS implements vfs.FileSystem, making
// it mountable wherever the real prototype's FUSE mount point would
// be.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/znode"
	"repro/internal/fid"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Entry kinds stored in the znode custom data field (§IV-D: "this
// custom field is used to tell the Znode if it is representing a
// directory or a file. In the latter case, the FID of the file is also
// stored in this field").
const (
	kindDir uint8 = iota + 1
	kindFile
	kindSymlink
)

// nodeData is the decoded znode custom data field.
type nodeData struct {
	Kind   uint8
	Mode   uint32  // permission bits (directories and symlinks)
	FID    fid.FID // files only
	Target string  // symlinks only
}

func encodeNodeData(d nodeData) []byte {
	w := wire.NewWriter(32 + len(d.Target))
	w.Uint8(d.Kind)
	w.Uint32(d.Mode)
	w.Uint64(d.FID.Hi)
	w.Uint64(d.FID.Lo)
	w.String(d.Target)
	return w.Bytes()
}

func decodeNodeData(b []byte) (nodeData, error) {
	r := wire.NewReader(b)
	d := nodeData{
		Kind: r.Uint8(),
		Mode: r.Uint32(),
	}
	d.FID.Hi = r.Uint64()
	d.FID.Lo = r.Uint64()
	d.Target = r.String()
	if err := r.Err(); err != nil {
		return nodeData{}, fmt.Errorf("dufs: corrupt znode data: %w", err)
	}
	return d, nil
}

// Config assembles a DUFS client instance.
type Config struct {
	// Session is the coordination-service handle (one per DUFS client,
	// like the paper's co-located ZooKeeper client library). It is
	// either a *coord.Session against a single ensemble or a
	// *shard.Router spanning several; DUFS cannot tell the difference.
	Session coord.Client
	// Backends are the underlying parallel-filesystem mounts to union.
	Backends []vfs.FileSystem
	// Mapper overrides the FID->back-end mapping function. Defaults to
	// the paper's MD5 mod N (§IV-F). Its Backends() must equal
	// len(Backends).
	Mapper placement.Mapper
	// ZRoot is the znode subtree holding this DUFS namespace.
	// Defaults to "/dufs". Several DUFS filesystems can share one
	// coordination service under different roots.
	ZRoot string
	// Metrics, when non-nil, counts operations by name.
	Metrics *metrics.Registry
}

// DUFS is one client instance of the Distributed Union File System.
type DUFS struct {
	sess     coord.Client
	backends []vfs.FileSystem
	mapper   placement.Mapper
	zroot    string
	gen      *fid.Generator
	reg      *metrics.Registry
}

// New builds a DUFS client. It creates the znode root if missing and
// mints the client's FID generator from the session ID, which the
// replicated state machine guarantees unique — the paper's "another
// unique 64-bit client ID" on restart (§IV-E).
func New(cfg Config) (*DUFS, error) {
	if cfg.Session == nil {
		return nil, errors.New("dufs: Config.Session is required")
	}
	if len(cfg.Backends) == 0 {
		return nil, errors.New("dufs: at least one back-end mount is required")
	}
	mapper := cfg.Mapper
	if mapper == nil {
		m, err := placement.NewModN(len(cfg.Backends))
		if err != nil {
			return nil, err
		}
		mapper = m
	}
	if mapper.Backends() != len(cfg.Backends) {
		return nil, fmt.Errorf("dufs: mapper covers %d back-ends, have %d",
			mapper.Backends(), len(cfg.Backends))
	}
	zroot := cfg.ZRoot
	if zroot == "" {
		zroot = "/dufs"
	}
	gen, err := fid.NewGenerator(cfg.Session.ID())
	if err != nil {
		return nil, fmt.Errorf("dufs: session ID unusable as client ID: %w", err)
	}
	d := &DUFS{
		sess:     cfg.Session,
		backends: cfg.Backends,
		mapper:   mapper,
		zroot:    zroot,
		gen:      gen,
		reg:      cfg.Metrics,
	}
	// The root directory znode is shared by all clients; racing
	// creations are fine.
	rootData := encodeNodeData(nodeData{Kind: kindDir, Mode: 0o755})
	if _, err := cfg.Session.Create(zroot, rootData, 0); err != nil && !errors.Is(err, coord.ErrNodeExists) {
		return nil, fmt.Errorf("dufs: creating znode root %s: %w", zroot, err)
	}
	if _, err := cfg.Session.Create(d.intentRoot(), rootData, 0); err != nil && !errors.Is(err, coord.ErrNodeExists) {
		return nil, fmt.Errorf("dufs: creating intent root %s: %w", d.intentRoot(), err)
	}
	// Sweep rename intents abandoned by crashed clients (§IV-I keeps
	// all state in the coordination service, so any booting client can
	// finish any other client's rename). Best-effort: a failed sweep
	// must not keep a healthy client from mounting.
	_, _ = d.RecoverRenames(RenameIntentMinAge)
	return d, nil
}

// ClientID returns the unique 64-bit DUFS client ID (the FID high
// half).
func (d *DUFS) ClientID() uint64 { return d.gen.ClientID() }

// Sync brings this client's namespace view up to date with every
// metadata mutation committed before the call — the coordination
// service's sync() barrier. A client always sees its own writes
// without it; Sync is for reading another client's latest changes.
func (d *DUFS) Sync() error { return d.sess.Sync() }

func (d *DUFS) count(op string) {
	if d.reg != nil {
		d.reg.Counter(op).Inc()
	}
}

// zpath maps a cleaned virtual path to its znode path.
func (d *DUFS) zpath(p string) string {
	if p == "/" {
		return d.zroot
	}
	return d.zroot + p
}

// ZnodePath exposes the zpath mapping for tools (dufsctl's watch
// command registers coordination watches on the znode backing a
// virtual path).
func (d *DUFS) ZnodePath(p string) (string, error) {
	cp, err := vfs.Clean(p)
	if err != nil {
		return "", err
	}
	return d.zpath(cp), nil
}

// opCtx is the per-operation context of the vfs entry points. The vfs
// interface carries no context, so the public methods run under the
// background context; every internal helper below threads an explicit
// ctx so deadline- or cancel-scoped callers (and the async walks) are
// fully plumbed.
func opCtx() context.Context { return context.Background() }

// mapError converts coordination-service errors to vfs errors.
func mapError(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, coord.ErrNoNode), errors.Is(err, coord.ErrNoParent):
		return vfs.ErrNotExist
	case errors.Is(err, coord.ErrNodeExists):
		return vfs.ErrExist
	case errors.Is(err, coord.ErrNotEmpty):
		return vfs.ErrNotEmpty
	case errors.Is(err, coord.ErrBadPath):
		return vfs.ErrInvalid
	default:
		return err
	}
}

// getNode fetches and decodes a znode (steps A+B of Fig 3).
func (d *DUFS) getNode(ctx context.Context, p string) (nodeData, coordStat, error) {
	data, stat, err := d.sess.GetCtx(ctx, d.zpath(p))
	if err != nil {
		return nodeData{}, coordStat{}, mapError(err)
	}
	nd, err := decodeNodeData(data)
	if err != nil {
		return nodeData{}, coordStat{}, err
	}
	return nd, coordStat{ctime: stat.Ctime, mtime: stat.Mtime, children: stat.NumChildren}, nil
}

// coordStat is the subset of znode stat DUFS surfaces.
type coordStat struct {
	ctime    int64
	mtime    int64
	children int32
}

// locate resolves a FID to its back-end mount and physical path
// (step C of Fig 3: the deterministic mapping function needs no
// coordination).
func (d *DUFS) locate(f fid.FID) (vfs.FileSystem, string) {
	idx := d.mapper.Locate(f)
	return d.backends[idx], f.PhysicalPath()
}

// Mkdir implements vfs.FileSystem — the paper's Fig 5 algorithm: the
// directory exists only as a znode; the back-end is never contacted.
func (d *DUFS) Mkdir(path string, perm uint32) error {
	d.count("mkdir")
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return vfs.ErrExist
	}
	data := encodeNodeData(nodeData{Kind: kindDir, Mode: perm & vfs.PermMask})
	_, err = d.sess.CreateCtx(opCtx(), d.zpath(p), data, 0)
	return mapError(err)
}

// Rmdir implements vfs.FileSystem in one coordination round trip: the
// type check rides in the transaction as a check guarded on the
// directory kind, and the delete beside it refuses a non-empty one.
func (d *DUFS) Rmdir(path string) error {
	d.count("rmdir")
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return vfs.ErrPerm
	}
	zp := d.zpath(p)
	_, err = d.sess.MultiCtx(opCtx(), []coord.Op{
		coord.CheckDataOp(zp, -1, []byte{kindDir}),
		coord.DeleteOp(zp, -1),
	})
	if errors.Is(err, coord.ErrBadVersion) {
		return vfs.ErrNotDir
	}
	return mapError(err)
}

// Create implements vfs.FileSystem: mint a FID locally, register the
// filename znode, then create the physical file on the mapped
// back-end under the FID-derived path. The znode registration is
// submitted ASYNCHRONOUSLY and the file's FID directory is made on the
// back-end while it is in flight — the two touch disjoint systems, so
// the create's latency is max(quorum RTT, back-end mkdir) instead of
// their sum.
func (d *DUFS) Create(path string, perm uint32) (vfs.Handle, error) {
	d.count("create")
	ctx := opCtx()
	p, err := vfs.Clean(path)
	if err != nil {
		return nil, err
	}
	f := d.gen.Next()
	data := encodeNodeData(nodeData{Kind: kindFile, Mode: perm & vfs.PermMask, FID: f})
	fut := d.sess.Begin(ctx, coord.CreateOp(d.zpath(p), data, 0))
	// Undo the namespace entry so a failed create is invisible. The
	// atomic check+delete only removes the znode while it still holds
	// the bytes we registered: version 0 alone proves nothing (a file
	// znode keeps version 0 for life, so one another client deleted and
	// re-created passes it), but the data carries our freshly minted
	// FID, so equal bytes mean our node and the undo can never clobber
	// a concurrent writer's. Best-effort.
	undo := func() {
		_, _ = d.sess.MultiCtx(ctx, []coord.Op{
			coord.CheckDataOp(d.zpath(p), 0, data),
			coord.DeleteOp(d.zpath(p), 0),
		})
	}
	backend, phys := d.locate(f)
	// If the namespace write already failed (fast round trip, EEXIST
	// race), skip the backend work entirely — the old sequential path's
	// behaviour on the contention path.
	select {
	case <-fut.Done():
		if _, err := fut.Result(); err != nil {
			return nil, mapError(err)
		}
	default:
	}
	// The directory is one of the static hierarchy's (§IV-G), shared by
	// every FID with the same low 16 bits: another client may have made
	// it (ErrExist), and it stays when the namespace write fails, ready
	// for the next FID that maps to it. It is never removed, so it
	// cannot vanish under another client's create.
	dir, _ := vfs.Split(phys)
	physErr := backend.Mkdir(dir, 0o755)
	if errors.Is(physErr, vfs.ErrExist) {
		physErr = nil
	}
	if _, err := fut.Result(); err != nil {
		return nil, mapError(err)
	}
	if physErr != nil {
		undo()
		return nil, physErr
	}
	h, err := backend.Create(phys, perm)
	if err != nil {
		undo()
		return nil, err
	}
	return h, nil
}

// Open implements vfs.FileSystem — the paper's Fig 3 walk-through:
// (A) virtual path in, (B) znode lookup returns the FID, (C) the
// mapping function picks the back-end, (D) the physical file opens.
func (d *DUFS) Open(path string, flags int) (vfs.Handle, error) {
	d.count("open")
	ctx := opCtx()
	p, err := vfs.Clean(path)
	if err != nil {
		return nil, err
	}
	for {
		nd, _, err := d.getNode(ctx, p)
		if err != nil {
			if errors.Is(err, vfs.ErrNotExist) && flags&vfs.OpenCreate != 0 {
				h, cerr := d.Create(p, 0o644)
				if errors.Is(cerr, vfs.ErrExist) {
					// Two clients raced Open(OpenCreate): both saw
					// ErrNotExist, the other's Create won. O_CREAT
					// without O_EXCL must open the winner's file, so
					// loop back to the lookup instead of failing.
					continue
				}
				return h, cerr
			}
			return nil, err
		}
		switch nd.Kind {
		case kindDir:
			return nil, vfs.ErrIsDir
		case kindSymlink:
			return nil, vfs.ErrInvalid // no link chasing at this layer
		}
		backend, phys := d.locate(nd.FID)
		return backend.Open(phys, flags)
	}
}

// Unlink implements vfs.FileSystem: drop the name from the namespace,
// then remove the physical body. The FID indirection is what lets the
// same virtual name later refer to brand-new contents (§IV-A).
//
// The name goes in one coordination round trip: a check guarded on the
// file kind and the delete ride in one Multi, and the check reports the
// data of the very znode the delete removed, so the body unlinked is
// always that znode's — a rename-over racing the unlink cannot pair one
// file's name with another file's body. A failed guard reports what the
// name is instead: a directory is ErrIsDir, and a symlink is deleted by
// a second Multi guarded on exactly the bytes the first one found.
func (d *DUFS) Unlink(path string) error {
	d.count("unlink")
	ctx := opCtx()
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	zp := d.zpath(p)
	guard := []byte{kindFile}
	for {
		res, err := d.sess.MultiCtx(ctx, []coord.Op{
			coord.CheckDataOp(zp, -1, guard),
			coord.DeleteOp(zp, -1),
		})
		switch {
		case err == nil:
		case errors.Is(err, coord.ErrBadVersion):
			nd, derr := checkedNode(res)
			if derr != nil {
				return derr
			}
			if nd.Kind == kindDir {
				return vfs.ErrIsDir
			}
			guard = res[0].Data
			continue
		case errors.Is(err, coord.ErrNotEmpty):
			return vfs.ErrIsDir // only a directory has children
		default:
			return mapError(err)
		}
		nd, err := checkedNode(res)
		if err != nil {
			return err
		}
		if nd.Kind == kindFile {
			backend, phys := d.locate(nd.FID)
			if err := backend.Unlink(phys); err != nil && !errors.Is(err, vfs.ErrNotExist) {
				return err
			}
		}
		return nil
	}
}

// checkedNode decodes the node a batch's leading guarded check found.
func checkedNode(res []coord.OpResult) (nodeData, error) {
	if len(res) == 0 {
		return nodeData{}, errors.New("dufs: a guarded check returned no result")
	}
	return decodeNodeData(res[0].Data)
}

// Stat implements vfs.FileSystem — the paper's Fig 6 algorithm:
// directory stats are satisfied entirely from the znode ("the
// back-end storage are not contacted"); file stats read the physical
// file for size and times.
func (d *DUFS) Stat(path string) (vfs.FileInfo, error) {
	d.count("stat")
	p, err := vfs.Clean(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	nd, st, err := d.getNode(opCtx(), p)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	_, name := vfs.Split(p)
	switch nd.Kind {
	case kindDir:
		return vfs.FileInfo{
			Name:  name,
			Mode:  vfs.ModeDir | nd.Mode,
			Nlink: uint32(2 + st.children),
			Ctime: unixNano(st.ctime),
			Mtime: unixNano(st.mtime),
		}, nil
	case kindSymlink:
		return vfs.FileInfo{
			Name:  name,
			Mode:  vfs.ModeSymlink | nd.Mode,
			Nlink: 1,
			Size:  int64(len(nd.Target)),
			Ctime: unixNano(st.ctime),
			Mtime: unixNano(st.mtime),
		}, nil
	default:
		backend, phys := d.locate(nd.FID)
		fi, err := backend.Stat(phys)
		if err != nil {
			return vfs.FileInfo{}, err
		}
		fi.Name = name
		fi.Mode = vfs.ModeRegular | (fi.Mode & vfs.PermMask)
		return fi, nil
	}
}

func unixNano(ns int64) time.Time { return time.Unix(0, ns) }

// Readdir implements vfs.FileSystem in exactly ONE coordination RPC:
// ChildrenData returns the directory's own znode (the "." entry, used
// for the is-it-a-directory check) plus every child's data and stat,
// so the N+1 per-entry lookups of the naive implementation collapse
// into a single round trip (DESIGN.md §8.3; the batching lever HopsFS
// attributes its readdir wins to). The back-end is never consulted.
func (d *DUFS) Readdir(path string) ([]vfs.DirEntry, error) {
	d.count("readdir")
	p, err := vfs.Clean(path)
	if err != nil {
		return nil, err
	}
	entries, err := d.sess.ChildrenDataCtx(opCtx(), d.zpath(p))
	if err != nil {
		return nil, mapError(err)
	}
	out := make([]vfs.DirEntry, 0, len(entries))
	for _, e := range entries {
		nd, derr := decodeNodeData(e.Data)
		if e.Name == "." {
			if derr != nil {
				return nil, derr
			}
			if nd.Kind != kindDir {
				return nil, vfs.ErrNotDir
			}
			continue
		}
		if derr != nil {
			continue // not a DUFS entry; tolerate like a concurrent delete
		}
		out = append(out, vfs.DirEntry{Name: e.Name, IsDir: nd.Kind == kindDir, Mode: nd.Mode})
	}
	return out, nil
}

// listing fetches a directory's own node plus its children in one RPC,
// split into the "." self entry and the child entries.
func (d *DUFS) listing(ctx context.Context, p string) (self coord.ChildEntry, children []coord.ChildEntry, err error) {
	entries, err := d.sess.ChildrenDataCtx(ctx, d.zpath(p))
	if err != nil {
		return coord.ChildEntry{}, nil, mapError(err)
	}
	return splitListing(entries), entriesWithoutSelf(entries), nil
}

// splitListing returns the "." self entry of a ChildrenData listing.
func splitListing(entries []coord.ChildEntry) (self coord.ChildEntry) {
	for _, e := range entries {
		if e.Name == "." {
			return e
		}
	}
	return coord.ChildEntry{}
}

// entriesWithoutSelf returns a listing's child entries (everything but
// ".").
func entriesWithoutSelf(entries []coord.ChildEntry) []coord.ChildEntry {
	var children []coord.ChildEntry
	for _, e := range entries {
		if e.Name != "." {
			children = append(children, e)
		}
	}
	return children
}

// Rename implements vfs.FileSystem. Thanks to the FID indirection the
// physical data never moves (§IV-A: "this representation also makes
// rename operations and physical data relocation easier"): renaming a
// file re-binds the FID to a new name in the coordination service.
// Directory renames move the znode subtree.
//
// When source and destination live on the same coordination shard a
// file rename is ONE round trip: a check guarded on the file kind and a
// move of the name, replacing a file at the destination, ride in one
// Multi — one ZAB proposal, with no lookup in front of it, no
// intermediate state for a crash to expose and no intent znode to write
// and reap. The move reports the file it replaced, whose body is
// unlinked after commit. A guard that misses says what the name is
// instead, and the rename goes on from what it said: a directory source
// to renameDir, a symlink at either name to the lookup-guarded batch.
// Only when the two names hash to different shards does the
// durable-intent protocol (rename.go) run.
func (d *DUFS) Rename(oldPath, newPath string) error {
	d.count("rename")
	ctx := opCtx()
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
	if len(np) > len(op) && np[:len(op)] == op && np[len(op)] == '/' {
		return vfs.ErrInvalid
	}
	zop, znp := d.zpath(op), d.zpath(np)
	if !d.sess.Atomic(zop, znp) {
		return d.renameLooked(ctx, op, np, nil, nil)
	}
	guard := []byte{kindFile}
	res, err := d.sess.MultiCtx(ctx, []coord.Op{
		coord.CheckDataOp(zop, -1, guard),
		coord.MoveOp(zop, znp, guard),
	})
	if len(res) != 2 && (err == nil || errors.Is(err, coord.ErrBadVersion)) {
		return fmt.Errorf("dufs: a rename batch of 2 ops returned %d results", len(res))
	}
	switch {
	case err == nil:
		d.reclaim(res[1].Data)
		return nil
	case errors.Is(err, coord.ErrNotEmpty):
		// A shard.Router found children of one of the names on another
		// shard before it sent the batch: a directory.
		return d.renameLooked(ctx, op, np, nil, nil)
	case !errors.Is(err, coord.ErrBadVersion):
		return mapError(err)
	case errors.Is(res[0].Err, coord.ErrBadVersion):
		return d.renameLooked(ctx, op, np, &res[0], nil) // the source is no file
	}
	// The source is a file; the destination is not.
	if nd, err := decodeNodeData(res[1].Data); err == nil && nd.Kind == kindDir {
		return vfs.ErrIsDir
	}
	return d.renameLooked(ctx, op, np, nil, &res[1])
}

// reclaim unlinks the body of a file the namespace no longer names,
// given the znode data it had. Best-effort: a failed physical unlink
// orphans a body that is unreachable by any name (its FID left the
// namespace with the transaction that replaced it).
func (d *DUFS) reclaim(replaced []byte) {
	if len(replaced) == 0 {
		return // nothing was replaced; decoding would build an error
	}
	if nd, err := decodeNodeData(replaced); err == nil && nd.Kind == kindFile {
		backend, phys := d.locate(nd.FID)
		_ = backend.Unlink(phys)
	}
}

// renameLooked is the rename of names the one-transaction form cannot
// move: a directory, a symlink at either name, or names on two shards.
// It looks both names up — src and dst, when non-nil, are what a failed
// guard already reported for them, and stand in for the first lookup —
// and moves the file with a batch guarded on the bytes read, retrying
// from the lookups when a concurrent writer got in between.
func (d *DUFS) renameLooked(ctx context.Context, op, np string, src, dst *coord.OpResult) error {
	zop, znp := d.zpath(op), d.zpath(np)
	for {
		var raw []byte
		var stat znode.Stat
		if src != nil {
			raw, stat, src = src.Data, src.Stat, nil
		} else {
			var gerr error
			if raw, stat, gerr = d.sess.GetCtx(ctx, zop); gerr != nil {
				return mapError(gerr)
			}
		}
		nd, derr := decodeNodeData(raw)
		if derr != nil {
			return derr
		}
		if nd.Kind == kindDir {
			return d.renameDir(ctx, op, np)
		}
		// Replace semantics: an existing destination file is superseded.
		var existing nodeData
		var existingRaw []byte
		var existingStat znode.Stat
		var exErr error
		if dst != nil {
			existingRaw, existingStat, dst = dst.Data, dst.Stat, nil
		} else {
			existingRaw, existingStat, exErr = d.sess.GetCtx(ctx, znp)
		}
		if exErr == nil {
			existing, derr = decodeNodeData(existingRaw)
			if derr != nil {
				return derr
			}
			if existing.Kind == kindDir {
				return vfs.ErrIsDir
			}
		} else if !errors.Is(exErr, coord.ErrNoNode) && !errors.Is(exErr, coord.ErrNoParent) {
			return mapError(exErr)
		}
		if !d.sess.Atomic(zop, znp) {
			// Cross-shard fallback: no transaction spans both names, so
			// the destination is superseded up front and the intent
			// protocol brackets the two writes.
			if exErr == nil {
				if err := d.Unlink(np); err != nil && !errors.Is(err, vfs.ErrNotExist) {
					return err
				}
			}
			return d.renameFileIntent(ctx, op, np, raw)
		}
		// The destination replacement rides in the SAME transaction as
		// the rename, so a rename that fails — src deleted concurrently,
		// anything — leaves an existing dst fully intact, as POSIX
		// requires. Only after commit is the replaced file's physical
		// body reclaimed. Both names are guarded on the bytes read, not
		// the version alone: a file znode keeps version 0 for life, so a
		// name deleted and re-created since the lookup would pass a
		// version check, and the rename would resurrect a FID whose body
		// is gone (src) or orphan the new file's body (dst). FIDs are
		// unique, so equal bytes mean the same file.
		ops := []coord.Op{coord.CheckDataOp(zop, stat.Version, raw)}
		if exErr == nil {
			ops = append(ops,
				coord.CheckDataOp(znp, existingStat.Version, existingRaw),
				coord.DeleteOp(znp, existingStat.Version))
		}
		ops = append(ops, coord.CreateOp(znp, raw, 0), coord.DeleteOp(zop, -1))
		_, err := d.sess.MultiCtx(ctx, ops)
		switch {
		case err == nil:
			if exErr == nil {
				d.reclaim(existingRaw)
			}
			return nil
		case errors.Is(err, coord.ErrBadVersion), errors.Is(err, coord.ErrNodeExists),
			errors.Is(err, coord.ErrNoNode):
			// A concurrent writer touched src or dst between our reads
			// and the transaction; nothing was applied. Loop back to
			// re-resolve and retry.
			continue
		default:
			return mapError(err)
		}
	}
}

// renameDir moves a directory subtree znode-by-znode (children first
// would orphan them, so parents first, then delete the old subtree
// bottom-up). An empty directory on one shard — the common leaf move —
// is a single atomic Multi; deeper trees batch each directory's leaf
// children into per-directory transactions.
func (d *DUFS) renameDir(ctx context.Context, op, np string) error {
	if existing, _, err := d.getNode(ctx, np); err == nil {
		if existing.Kind != kindDir {
			return vfs.ErrNotDir
		}
		names, err := d.sess.ChildrenCtx(ctx, d.zpath(np))
		if err != nil {
			return mapError(err)
		}
		if len(names) > 0 {
			return vfs.ErrNotEmpty
		}
		if err := d.sess.DeleteCtx(ctx, d.zpath(np), -1); err != nil {
			return mapError(err)
		}
	}
	zop, znp := d.zpath(op), d.zpath(np)
	self, kids, err := d.listing(ctx, op)
	if err != nil {
		return err
	}
	if len(kids) == 0 && d.sess.Atomic(zop, znp) {
		// Leaf move: the whole rename is one atomic transaction. A
		// directory's bytes pin only its kind and mode (it has no FID),
		// so the guard refuses a name that became a file or symlink or
		// was chmodded since the listing, but not an empty directory
		// re-created with the same mode — which is indistinguishable.
		_, merr := d.sess.MultiCtx(ctx, []coord.Op{
			coord.CheckDataOp(zop, self.Stat.Version, self.Data),
			coord.CreateOp(znp, self.Data, 0),
			coord.DeleteOp(zop, -1),
		})
		if merr == nil {
			return nil
		}
		if !errors.Is(merr, coord.ErrNotEmpty) && !errors.Is(merr, coord.ErrBadVersion) {
			return mapError(merr)
		}
		// A child appeared or the data changed since the listing;
		// nothing was applied — fall through to the subtree walk.
	}
	if err := d.copyTree(ctx, op, np); err != nil {
		return err
	}
	return d.removeTree(ctx, op)
}

// isLeafEntry reports whether a listed child can be moved without
// recursion: files and symlinks never have children in DUFS. Child
// DIRECTORIES always recurse, even when their stat shows no children —
// on a sharded router the authoritative child znode cannot see
// children hosted on a different shard, so NumChildren==0 proves
// nothing; ChildrenData on the child itself consults the right shard.
func isLeafEntry(e coord.ChildEntry) bool {
	nd, err := decodeNodeData(e.Data)
	return err == nil && nd.Kind != kindDir
}

// dirPair is one (source, destination) directory of a subtree copy.
type dirPair struct{ from, to string }

// walkFlight bounds how many futures a subtree walk keeps outstanding
// at once — enough to keep the session's async window (and behind it
// the leader's group-commit pipeline) full, without materialising a
// goroutine and a future per entry of an arbitrarily wide level.
const walkFlight = 48

// listLevel fans ChildrenData listings for a BFS level through the
// asynchronous layer, walkFlight at a time — a chunk's round trips
// overlap, so the wall-clock cost is ~len(dirs)/walkFlight round
// trips instead of len(dirs).
func (d *DUFS) listLevel(ctx context.Context, dirs []string) ([][]coord.ChildEntry, error) {
	out := make([][]coord.ChildEntry, len(dirs))
	var first error
	for base := 0; base < len(dirs); base += walkFlight {
		end := base + walkFlight
		if end > len(dirs) {
			end = len(dirs)
		}
		futs := make([]*coord.Future, end-base)
		for i := base; i < end; i++ {
			futs[i-base] = d.sess.BeginChildrenData(ctx, d.zpath(dirs[i]))
		}
		for i, f := range futs {
			entries, err := f.Entries()
			if err != nil && first == nil {
				first = mapError(err)
			}
			out[base+i] = entriesWithoutSelf(entries)
		}
	}
	return out, first
}

// flushFull keeps the pipeline a SLIDING window: once walkFlight
// futures are outstanding, the oldest are waited out one by one as new
// submissions arrive — the wire stays continuously occupied (no
// burst-then-drain), while memory and goroutines stay bounded.
func flushFull(pl *coord.Pipeline) error {
	for pl.Outstanding() >= walkFlight {
		if err := pl.WaitOne(); err != nil {
			return err
		}
	}
	return nil
}

// batchInto queues one directory's leaf-child ops: as a single atomic
// Multi when the batch is provably same-shard (always true for
// children of one directory on a Session), as independent pipelined
// submissions otherwise. ops and paths are parallel slices.
func batchInto(pl *coord.Pipeline, ops []coord.Op, paths []string, atomic func(...string) bool) {
	switch {
	case len(ops) == 0:
	case len(ops) > 1 && atomic(paths...):
		pl.Multi(ops)
	default:
		for _, op := range ops {
			pl.Begin(op)
		}
	}
}

// copyTree replicates the subtree at from under to, parents first, as
// a breadth-first walk over futures: a level's listings are fetched in
// one pipelined flight, then every directory's leaf children (one
// batched Multi each) and every next-level directory node are
// submitted in a second flight. The walk is a SINGLE goroutine — the
// concurrency the old semaphore recursion simulated with goroutines
// now lives in the wire pipeline — and the parents-first invariant
// holds by construction: a level's nodes are created before any of its
// children are queued. Child-directory data comes from the parent's
// listing, which is the child node's authoritative shard.
func (d *DUFS) copyTree(ctx context.Context, from, to string) error {
	self, kids, err := d.listing(ctx, from)
	if err != nil {
		return err
	}
	if _, err := d.sess.CreateCtx(ctx, d.zpath(to), self.Data, 0); err != nil {
		return mapError(err)
	}
	pairs := []dirPair{{from, to}}
	listings := [][]coord.ChildEntry{kids}
	for {
		var next []dirPair
		pl := coord.NewPipeline(ctx, d.sess)
		for i, pair := range pairs {
			var leaves []coord.Op
			var leafPaths []string
			for _, e := range listings[i] {
				if isLeafEntry(e) {
					p := d.zpath(pair.to + "/" + e.Name)
					leaves = append(leaves, coord.CreateOp(p, e.Data, 0))
					leafPaths = append(leafPaths, p)
				} else {
					next = append(next, dirPair{pair.from + "/" + e.Name, pair.to + "/" + e.Name})
					pl.Create(d.zpath(pair.to+"/"+e.Name), e.Data, 0)
					if err := flushFull(pl); err != nil {
						return mapError(err)
					}
				}
			}
			batchInto(pl, leaves, leafPaths, d.sess.Atomic)
			if err := flushFull(pl); err != nil {
				return mapError(err)
			}
		}
		if err := pl.Wait(); err != nil {
			return mapError(err)
		}
		if len(next) == 0 {
			return nil
		}
		pairs = next
		from := make([]string, len(next))
		for i, pair := range next {
			from[i] = pair.from
		}
		if listings, err = d.listLevel(ctx, from); err != nil {
			return err
		}
	}
}

// removeTree deletes the subtree at p bottom-up: a breadth-first
// descent collects every level's structure (pipelined listings), then
// the levels unwind deepest-first — each level's leaf children go out
// as batched Multis and its directory nodes as pipelined deletes, all
// futures of one level in flight together. Children-first holds by
// construction: level k+1 is fully deleted before level k's directory
// nodes are touched. Single goroutine, like copyTree. Only the PATHS
// survive the descent — each listing's data blobs are discarded as
// soon as its entries are classified, so the client's footprint is
// O(subtree paths), not O(subtree bytes).
func (d *DUFS) removeTree(ctx context.Context, p string) error {
	type rmLevel struct {
		dirs   []string   // this level's directories (virtual paths)
		leaves [][]string // per-directory leaf-child zpaths
	}
	var stack []rmLevel
	for cur := []string{p}; len(cur) > 0; {
		lst, err := d.listLevel(ctx, cur)
		if err != nil {
			return err
		}
		lvl := rmLevel{dirs: cur, leaves: make([][]string, len(cur))}
		var next []string
		for i, dir := range cur {
			for _, e := range lst[i] {
				if isLeafEntry(e) {
					lvl.leaves[i] = append(lvl.leaves[i], d.zpath(dir+"/"+e.Name))
				} else {
					next = append(next, dir+"/"+e.Name)
				}
			}
			lst[i] = nil // release the listing's data blobs promptly
		}
		stack = append(stack, lvl)
		cur = next
	}
	for k := len(stack) - 1; k >= 0; k-- {
		pl := coord.NewPipeline(ctx, d.sess)
		for _, leafPaths := range stack[k].leaves {
			ops := make([]coord.Op, len(leafPaths))
			for i, zp := range leafPaths {
				ops[i] = coord.DeleteOp(zp, -1)
			}
			batchInto(pl, ops, leafPaths, d.sess.Atomic)
			if err := flushFull(pl); err != nil {
				return mapError(err)
			}
		}
		if err := pl.Wait(); err != nil {
			return mapError(err)
		}
		// The level's directories themselves, after their leaf files and
		// (already unwound) subdirectories are gone. Routed through
		// Begin so cross-shard deletes keep the router's contract.
		for _, dir := range stack[k].dirs {
			pl.Delete(d.zpath(dir), -1)
			if err := flushFull(pl); err != nil {
				return mapError(err)
			}
		}
		if err := pl.Wait(); err != nil {
			return mapError(err)
		}
		stack[k] = rmLevel{} // unwound; release its paths
	}
	return nil
}

// Symlink implements vfs.FileSystem: pure metadata, znode only.
func (d *DUFS) Symlink(target, linkPath string) error {
	d.count("symlink")
	p, err := vfs.Clean(linkPath)
	if err != nil {
		return err
	}
	data := encodeNodeData(nodeData{Kind: kindSymlink, Mode: 0o777, Target: target})
	_, err = d.sess.CreateCtx(opCtx(), d.zpath(p), data, 0)
	return mapError(err)
}

// Readlink implements vfs.FileSystem.
func (d *DUFS) Readlink(path string) (string, error) {
	d.count("readlink")
	p, err := vfs.Clean(path)
	if err != nil {
		return "", err
	}
	nd, _, err := d.getNode(opCtx(), p)
	if err != nil {
		return "", err
	}
	if nd.Kind != kindSymlink {
		return "", vfs.ErrInvalid
	}
	return nd.Target, nil
}

// Truncate implements vfs.FileSystem: resolved through the FID, then
// forwarded to the physical file.
func (d *DUFS) Truncate(path string, size int64) error {
	d.count("truncate")
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	nd, _, err := d.getNode(opCtx(), p)
	if err != nil {
		return err
	}
	if nd.Kind == kindDir {
		return vfs.ErrIsDir
	}
	if nd.Kind != kindFile {
		return vfs.ErrInvalid
	}
	backend, phys := d.locate(nd.FID)
	return backend.Truncate(phys, size)
}

// Chmod implements vfs.FileSystem. Directory and symlink modes live in
// the znode; file modes live with the physical file, matching the
// paper's split of metadata ownership (§IV-D).
//
// A directory's data is its kind and mode alone, so its chmod is one
// round trip with no lookup: a check guarded on the directory kind and
// the set of the new data ride in one Multi. A guard that misses says
// what the name is: a file is chmodded on its back-end — the leader
// answers the miss from its state, with nothing proposed
// (coord.Session's idle multi), so a file's chmod costs the one read it
// always did — and a symlink's znode is set by a batch guarded on
// exactly the bytes returned, looping while a concurrent writer gets in
// between. No name is ever overwritten with the data of what it used to
// be (a file would lose its FID to directory data).
func (d *DUFS) Chmod(path string, perm uint32) error {
	d.count("chmod")
	ctx := opCtx()
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	zp := d.zpath(p)
	guard := []byte{kindDir}
	data := encodeNodeData(nodeData{Kind: kindDir, Mode: perm & vfs.PermMask})
	for {
		res, err := d.sess.MultiCtx(ctx, []coord.Op{
			coord.CheckDataOp(zp, -1, guard),
			coord.SetOp(zp, data, -1),
		})
		if !errors.Is(err, coord.ErrBadVersion) {
			return mapError(err)
		}
		nd, err := checkedNode(res)
		if err != nil {
			return err
		}
		if nd.Kind == kindFile {
			backend, phys := d.locate(nd.FID)
			return backend.Chmod(phys, perm)
		}
		nd.Mode = perm & vfs.PermMask
		guard, data = res[0].Data, encodeNodeData(nd)
	}
}

// Access implements vfs.FileSystem.
func (d *DUFS) Access(path string, mask uint32) error {
	d.count("access")
	p, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	nd, _, err := d.getNode(opCtx(), p)
	if err != nil {
		return err
	}
	var perm uint32
	if nd.Kind == kindFile {
		backend, phys := d.locate(nd.FID)
		fi, err := backend.Stat(phys)
		if err != nil {
			return err
		}
		perm = (fi.Mode & vfs.PermMask) >> 6
	} else {
		perm = (nd.Mode & vfs.PermMask) >> 6
	}
	if mask&perm != mask {
		return vfs.ErrAccess
	}
	return nil
}

var _ vfs.FileSystem = (*DUFS)(nil)

// Package pvfs simulates a PVFS2 filesystem instance (paper §II, ref
// [2]): metadata is partitioned across M metadata servers — "PVFS
// provides some level of parallelism through distributed metadata
// servers that manage different ranges of metadata" (§III) — and file
// bodies live on D data servers.
//
// Ownership: all entries of one directory live together on the
// metadata server owning that directory's path hash. Because an
// object's attributes live with its parent's dirent while its own
// directory body (or datafile) lives elsewhere, namespace mutations
// take two to three RPCs:
//
//	mkdir  = dirent insert (owner(parent)) + body create (owner(dir))
//	create = dirent insert (owner(parent)) + datafile create (data server)
//	unlink = dirent remove (owner(parent)) + datafile destroy
//	rmdir  = body check/remove (owner(dir)) + dirent remove (owner(parent))
//
// That multi-server protocol — without a coordination service to batch
// or order it — is exactly why the paper measures PVFS2 metadata
// mutations more than an order of magnitude slower than DUFS (×23 for
// directory creation at 256 processes, §V-D).
package pvfs

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"repro/internal/backend/objstore"
	"repro/internal/backend/proto"
	"repro/internal/transport"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Metadata server op codes.
const (
	opDirInsert uint8 = iota + 1
	opDirRemove
	opDirLookup
	opDirList
	opDirUpdate
	opBodyCreate
	opBodyRemove
	opBodyExists
)

// attr is a dirent's attribute record (PVFS keeps attributes in the
// metafile; co-locating them with the dirent is a simplification that
// preserves the RPC count for the paths the paper measures).
type attr struct {
	Mode       uint32
	Target     string
	DataHandle uint64
	DataServer uint32
	Ctime      int64
	Mtime      int64
}

func (a attr) isDir() bool     { return a.Mode&vfs.ModeDir != 0 }
func (a attr) isSymlink() bool { return a.Mode&vfs.ModeSymlink == vfs.ModeSymlink }

func encodeAttr(w *wire.Writer, a attr) {
	w.Uint32(a.Mode)
	w.String(a.Target)
	w.Uint64(a.DataHandle)
	w.Uint32(a.DataServer)
	w.Int64(a.Ctime)
	w.Int64(a.Mtime)
}

func decodeAttr(r *wire.Reader) attr {
	return attr{
		Mode:       r.Uint32(),
		Target:     r.String(),
		DataHandle: r.Uint64(),
		DataServer: r.Uint32(),
		Ctime:      r.Int64(),
		Mtime:      r.Int64(),
	}
}

// MetaServer owns the directory bodies whose path hash maps to it.
type MetaServer struct {
	mu     sync.Mutex
	bodies map[string]map[string]attr // dir path -> name -> attr
	delay  func(op uint8) time.Duration
}

// Config assembles one PVFS instance.
type Config struct {
	// Net is the shared transport.
	Net transport.Network
	// MetaAddrs are the metadata server addresses (at least one).
	MetaAddrs []string
	// DataAddrs are the data server addresses (at least one).
	DataAddrs []string
	// ServiceDelay, when non-nil, sleeps per metadata op in real-stack
	// runs.
	ServiceDelay func(op uint8) time.Duration
}

// Instance is a running PVFS filesystem (servers only).
type Instance struct {
	meta    []*MetaServer
	metaLns []io.Closer
	data    []*objstore.Server
	dataLns []io.Closer
}

// Start boots the metadata and data servers and creates the root
// directory body on its owner.
func Start(cfg Config) (*Instance, error) {
	if len(cfg.MetaAddrs) == 0 || len(cfg.DataAddrs) == 0 {
		return nil, fmt.Errorf("pvfs: need at least one metadata and one data server")
	}
	inst := &Instance{}
	for _, addr := range cfg.MetaAddrs {
		ms := &MetaServer{bodies: make(map[string]map[string]attr), delay: cfg.ServiceDelay}
		ln, err := cfg.Net.Listen(addr, transport.HandlerFunc(ms.handle))
		if err != nil {
			inst.Stop()
			return nil, fmt.Errorf("pvfs: meta listen %s: %w", addr, err)
		}
		inst.meta = append(inst.meta, ms)
		inst.metaLns = append(inst.metaLns, ln)
	}
	for _, addr := range cfg.DataAddrs {
		ds := objstore.NewServer()
		ln, err := cfg.Net.Listen(addr, transport.HandlerFunc(ds.Handle))
		if err != nil {
			inst.Stop()
			return nil, fmt.Errorf("pvfs: data listen %s: %w", addr, err)
		}
		inst.data = append(inst.data, ds)
		inst.dataLns = append(inst.dataLns, ln)
	}
	// The root body lives on owner("/").
	rootOwner := ownerOf("/", len(cfg.MetaAddrs))
	inst.meta[rootOwner].mu.Lock()
	inst.meta[rootOwner].bodies["/"] = make(map[string]attr)
	inst.meta[rootOwner].mu.Unlock()
	return inst, nil
}

// Stop shuts down every server.
func (i *Instance) Stop() {
	for _, ln := range i.metaLns {
		ln.Close()
	}
	for _, ln := range i.dataLns {
		ln.Close()
	}
}

// ownerOf maps a directory path to its metadata server index.
func ownerOf(dirPath string, numMeta int) int {
	h := fnv.New32a()
	h.Write([]byte(dirPath))
	return int(h.Sum32()) % numMeta
}

func (m *MetaServer) handle(req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	op := r.Uint8()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if m.delay != nil {
		if d := m.delay(op); d > 0 {
			time.Sleep(d)
		}
	}
	w := wire.NewWriter(64)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch op {
	case opDirInsert:
		dir := r.String()
		name := r.String()
		a := decodeAttr(r)
		exclusive := r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		body, ok := m.bodies[dir]
		if !ok {
			proto.WriteHeader(w, vfs.ErrNotExist)
			break
		}
		if _, dup := body[name]; dup && exclusive {
			proto.WriteHeader(w, vfs.ErrExist)
			break
		}
		body[name] = a
		proto.WriteHeader(w, nil)
	case opDirRemove:
		dir := r.String()
		name := r.String()
		wantDir := r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		body, ok := m.bodies[dir]
		if !ok {
			proto.WriteHeader(w, vfs.ErrNotExist)
			break
		}
		a, ok := body[name]
		if !ok {
			proto.WriteHeader(w, vfs.ErrNotExist)
			break
		}
		if wantDir && !a.isDir() {
			proto.WriteHeader(w, vfs.ErrNotDir)
			break
		}
		if !wantDir && a.isDir() {
			proto.WriteHeader(w, vfs.ErrIsDir)
			break
		}
		delete(body, name)
		proto.WriteHeader(w, nil)
		encodeAttr(w, a)
	case opDirLookup:
		dir := r.String()
		name := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		body, ok := m.bodies[dir]
		if !ok {
			proto.WriteHeader(w, vfs.ErrNotExist)
			break
		}
		a, ok := body[name]
		if !ok {
			proto.WriteHeader(w, vfs.ErrNotExist)
			break
		}
		proto.WriteHeader(w, nil)
		encodeAttr(w, a)
	case opDirList:
		dir := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		body, ok := m.bodies[dir]
		if !ok {
			proto.WriteHeader(w, vfs.ErrNotExist)
			break
		}
		proto.WriteHeader(w, nil)
		w.Uint32(uint32(len(body)))
		for name, a := range body {
			w.String(name)
			w.Bool(a.isDir())
			w.Uint32(a.Mode & vfs.PermMask)
		}
	case opDirUpdate:
		dir := r.String()
		name := r.String()
		a := decodeAttr(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		body, ok := m.bodies[dir]
		if !ok {
			proto.WriteHeader(w, vfs.ErrNotExist)
			break
		}
		if _, ok := body[name]; !ok {
			proto.WriteHeader(w, vfs.ErrNotExist)
			break
		}
		body[name] = a
		proto.WriteHeader(w, nil)
	case opBodyCreate:
		dir := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if _, dup := m.bodies[dir]; dup {
			proto.WriteHeader(w, vfs.ErrExist)
			break
		}
		m.bodies[dir] = make(map[string]attr)
		proto.WriteHeader(w, nil)
	case opBodyRemove:
		dir := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		body, ok := m.bodies[dir]
		if !ok {
			proto.WriteHeader(w, vfs.ErrNotExist)
			break
		}
		if len(body) > 0 {
			proto.WriteHeader(w, vfs.ErrNotEmpty)
			break
		}
		delete(m.bodies, dir)
		proto.WriteHeader(w, nil)
	case opBodyExists:
		dir := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		_, ok := m.bodies[dir]
		proto.WriteHeader(w, nil)
		w.Bool(ok)
	default:
		return nil, fmt.Errorf("pvfs: unknown meta op %d", op)
	}
	return w.Bytes(), nil
}

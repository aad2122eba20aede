// Package znode implements the hierarchical in-memory namespace of the
// coordination service — the equivalent of ZooKeeper's znode tree
// (paper §II-C).
//
// Znodes are addressed by slash-separated absolute paths. Each znode
// carries a custom data field (DUFS stores the entry type and FID
// there, paper §IV-D), standard stat fields (creation/modification
// zxids and times, data version, child count) and may be ephemeral
// (bound to a session) or sequential (server appends a monotonic
// counter to the name).
//
// Tree is purely a state machine: every mutation is applied by the
// replication layer (internal/coord/zab) in commit order, identically
// on every server, which is what makes the replicas consistent. Tree
// itself is safe for concurrent use so that read requests can be
// served locally while commits apply.
package znode

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Errors mirror the ZooKeeper client error codes DUFS depends on.
var (
	ErrNoNode       = errors.New("znode: no such node")
	ErrNodeExists   = errors.New("znode: node already exists")
	ErrNotEmpty     = errors.New("znode: node has children")
	ErrBadVersion   = errors.New("znode: version mismatch")
	ErrBadPath      = errors.New("znode: invalid path")
	ErrNoParent     = errors.New("znode: parent does not exist")
	ErrRootReadOnly = errors.New("znode: cannot modify the root")
	// ErrRolledBack marks an operation of a Multi batch that did not
	// cause the failure itself but was undone (or never attempted)
	// because a sibling operation failed — ZooKeeper's multi() contract.
	ErrRolledBack = errors.New("znode: rolled back by failed transaction")
)

// Stat is the metadata block attached to every znode, mirroring the
// ZooKeeper stat structure fields DUFS reads (paper §IV-D: "standard
// fields include Znode creation time, list of children Znodes, etc.").
type Stat struct {
	Czxid          uint64 // zxid of the transaction that created the node
	Mzxid          uint64 // zxid of the last modification
	Ctime          int64  // creation time, UnixNano, as provided by the leader
	Mtime          int64  // last-modification time, UnixNano
	Version        int32  // data version, bumped by Set
	Cversion       int32  // child version, bumped by child create/delete
	NumChildren    int32
	DataLength     int32
	EphemeralOwner uint64 // session ID when ephemeral, else 0
}

// CreateMode selects znode flavor at creation.
type CreateMode uint8

// Create modes. Sequential nodes get a 10-digit zero-padded counter
// (per parent) appended to the requested name, like ZooKeeper.
const (
	ModePersistent CreateMode = iota
	ModeEphemeral
	ModeSequential
	ModeEphemeralSequential
)

// IsEphemeral reports whether the mode binds the node to a session.
func (m CreateMode) IsEphemeral() bool {
	return m == ModeEphemeral || m == ModeEphemeralSequential
}

// IsSequential reports whether the server appends a sequence number.
func (m CreateMode) IsSequential() bool {
	return m == ModeSequential || m == ModeEphemeralSequential
}

type node struct {
	name     string
	data     []byte
	stat     Stat
	children map[string]*node
	nextSeq  int64 // per-parent sequence counter for sequential children
}

// Tree is the znode namespace. The zero value is not usable; call New.
//
// One reader/writer lock, mu, guards the whole tree and the ephemeral
// index: every mutation (Create, Set, Delete, a Multi batch, a session
// expiry, a restore or import) holds it in write mode, every read in
// read mode. Mutations arrive one at a time from zab's serial apply, so
// the lock orders them only against concurrent reads, and a read never
// sees an op half done (DESIGN §14.2).
type Tree struct {
	mu   sync.RWMutex
	root *node
	// ephemerals indexes ephemeral node paths by owning session so a
	// session expiry can delete them in one sweep.
	ephemerals map[uint64]map[string]bool
	nodes      atomic.Int64 // total node count, excluding root
	dataBytes  atomic.Int64 // sum of data field lengths
}

// New returns an empty tree containing only the root "/".
func New() *Tree {
	return &Tree{
		root:       &node{name: "/", children: make(map[string]*node)},
		ephemerals: make(map[uint64]map[string]bool),
	}
}

// ValidatePath checks that p is a well-formed absolute znode path.
func ValidatePath(p string) error {
	if p == "" || p[0] != '/' {
		return fmt.Errorf("%w: %q must be absolute", ErrBadPath, p)
	}
	if p == "/" {
		return nil
	}
	if strings.HasSuffix(p, "/") {
		return fmt.Errorf("%w: %q has a trailing slash", ErrBadPath, p)
	}
	// Segment-at-a-time scan: this runs on every read op, so it must not
	// allocate the way strings.Split would.
	rest := p[1:]
	for {
		var seg string
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seg, rest = rest[:i], rest[i+1:]
		} else {
			seg, rest = rest, ""
		}
		if seg == "" {
			return fmt.Errorf("%w: %q has an empty component", ErrBadPath, p)
		}
		if seg == "." || seg == ".." {
			return fmt.Errorf("%w: %q has a relative component", ErrBadPath, p)
		}
		if rest == "" {
			return nil
		}
	}
}

// SplitPath returns the parent path and final component of p.
func SplitPath(p string) (parent, name string) {
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

// lookup walks to the node at path. Caller holds t.mu.
func (t *Tree) lookup(path string) (*node, error) {
	if path == "/" {
		return t.root, nil
	}
	// Allocation-free walk (map lookup on a substring does not copy it);
	// this is the hot path under every read lock.
	cur := t.root
	rest := path[1:]
	for {
		seg := rest
		i := strings.IndexByte(rest, '/')
		if i >= 0 {
			seg = rest[:i]
		}
		next, ok := cur.children[seg]
		if !ok {
			return nil, ErrNoNode
		}
		cur = next
		if i < 0 {
			return cur, nil
		}
		rest = rest[i+1:]
	}
}

// Create inserts a node. For sequential modes the stored name has the
// parent's 10-digit sequence counter appended; the actual created path
// is returned. zxid and nowNano come from the replication layer so all
// replicas agree. session is the creator's session ID (used only for
// ephemeral modes).
func (t *Tree) Create(path string, data []byte, mode CreateMode, session, zxid uint64, nowNano int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	created, _, err := t.createLocked(path, data, mode, session, zxid, nowNano, false)
	return created, err
}

// createLocked is Create without the lock. When wantUndo is set it
// returns an undo closure that restores the exact prior state
// (including stat counters and the sequential-name counter) for
// Multi's rollback; plain Create passes false and skips the closure —
// one less allocation on the hottest write. Caller holds t.mu in write
// mode.
func (t *Tree) createLocked(path string, data []byte, mode CreateMode, session, zxid uint64, nowNano int64, wantUndo bool) (string, func(), error) {
	if err := ValidatePath(path); err != nil {
		return "", nil, err
	}
	if path == "/" {
		return "", nil, ErrNodeExists
	}
	parentPath, name := SplitPath(path)
	parent, err := t.lookup(parentPath)
	if err != nil {
		return "", nil, ErrNoParent
	}
	if parent.stat.EphemeralOwner != 0 {
		return "", nil, fmt.Errorf("znode: parent %q is ephemeral and cannot have children", parentPath)
	}
	priorStat, priorSeq := parent.stat, parent.nextSeq
	if mode.IsSequential() {
		name = fmt.Sprintf("%s%010d", name, parent.nextSeq)
		parent.nextSeq++
	}
	if _, dup := parent.children[name]; dup {
		parent.nextSeq = priorSeq
		return "", nil, ErrNodeExists
	}
	// children stays nil until this node's first child arrives: leaf
	// nodes (the overwhelming majority) never pay for an empty map,
	// and every read-side use (lookup, range, len) is nil-safe.
	n := &node{
		name: name,
		data: append([]byte(nil), data...),
		stat: Stat{
			Czxid: zxid, Mzxid: zxid,
			Ctime: nowNano, Mtime: nowNano,
			DataLength: int32(len(data)),
		},
	}
	if mode.IsEphemeral() {
		n.stat.EphemeralOwner = session
	}
	if parent.children == nil {
		parent.children = make(map[string]*node)
	}
	parent.children[name] = n
	parent.stat.NumChildren++
	parent.stat.Cversion++
	parent.stat.Mzxid = zxid
	t.nodes.Add(1)
	t.dataBytes.Add(int64(len(data)))

	created := parentPath + "/" + name
	if parentPath == "/" {
		created = "/" + name
	}
	if mode.IsEphemeral() {
		t.addEphemeral(session, created)
	}
	if !wantUndo {
		return created, nil, nil
	}
	undo := func() {
		delete(parent.children, name)
		parent.stat = priorStat
		parent.nextSeq = priorSeq
		t.nodes.Add(-1)
		t.dataBytes.Add(-int64(len(data)))
		if mode.IsEphemeral() {
			t.dropEphemeral(session, created)
		}
	}
	return created, undo, nil
}

// addEphemeral and dropEphemeral keep the session index in step with the
// tree. Caller holds t.mu in write mode.
func (t *Tree) addEphemeral(session uint64, path string) {
	m := t.ephemerals[session]
	if m == nil {
		m = make(map[string]bool)
		t.ephemerals[session] = m
	}
	m[path] = true
}

func (t *Tree) dropEphemeral(session uint64, path string) {
	if m := t.ephemerals[session]; m != nil {
		delete(m, path)
		if len(m) == 0 {
			delete(t.ephemerals, session)
		}
	}
}

// Get returns the node's data and its stat. The data is the node's own
// slice, not a copy, as in ChildrenData: no write mutates a node's data
// in place, so it stays valid; callers must not modify it.
func (t *Tree) Get(path string) ([]byte, Stat, error) {
	if err := ValidatePath(path); err != nil {
		return nil, Stat{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.lookup(path)
	if err != nil {
		return nil, Stat{}, err
	}
	return n.data, n.stat, nil
}

// Exists returns the stat if the node exists.
func (t *Tree) Exists(path string) (Stat, bool) {
	if err := ValidatePath(path); err != nil {
		return Stat{}, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.lookup(path)
	if err != nil {
		return Stat{}, false
	}
	return n.stat, true
}

// Set replaces the node's data. version -1 skips the optimistic check,
// matching ZooKeeper semantics.
func (t *Tree) Set(path string, data []byte, version int32, zxid uint64, nowNano int64) (Stat, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	stat, _, err := t.setLocked(path, data, version, zxid, nowNano)
	return stat, err
}

// setLocked is Set without the lock, returning an undo closure for
// Multi's rollback. Caller holds t.mu in write mode.
func (t *Tree) setLocked(path string, data []byte, version int32, zxid uint64, nowNano int64) (Stat, func(), error) {
	if err := ValidatePath(path); err != nil {
		return Stat{}, nil, err
	}
	if path == "/" {
		return Stat{}, nil, ErrRootReadOnly
	}
	n, err := t.lookup(path)
	if err != nil {
		return Stat{}, nil, err
	}
	if version != -1 && version != n.stat.Version {
		return Stat{}, nil, ErrBadVersion
	}
	priorData, priorStat := n.data, n.stat
	t.dataBytes.Add(int64(len(data)) - int64(len(n.data)))
	n.data = append([]byte(nil), data...)
	n.stat.Version++
	n.stat.Mzxid = zxid
	n.stat.Mtime = nowNano
	n.stat.DataLength = int32(len(data))
	undo := func() {
		t.dataBytes.Add(int64(len(priorData)) - int64(len(n.data)))
		n.data = priorData
		n.stat = priorStat
	}
	return n.stat, undo, nil
}

// Delete removes a childless node. version -1 skips the check.
func (t *Tree) Delete(path string, version int32, zxid uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.deleteLocked(path, version, zxid)
	return err
}

// deleteLocked is Delete without the lock, returning an undo closure
// for Multi's rollback. Caller holds t.mu in write mode.
func (t *Tree) deleteLocked(path string, version int32, zxid uint64) (func(), error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	if path == "/" {
		return nil, ErrRootReadOnly
	}
	parentPath, _ := SplitPath(path)
	n, err := t.lookup(path)
	if err != nil {
		return nil, err
	}
	if version != -1 && version != n.stat.Version {
		return nil, ErrBadVersion
	}
	if len(n.children) > 0 {
		return nil, ErrNotEmpty
	}
	parent, err := t.lookup(parentPath)
	if err != nil {
		return nil, ErrNoParent // unreachable if the tree is consistent
	}
	priorStat := parent.stat
	delete(parent.children, n.name)
	parent.stat.NumChildren--
	parent.stat.Cversion++
	parent.stat.Mzxid = zxid
	t.nodes.Add(-1)
	t.dataBytes.Add(-int64(len(n.data)))
	owner := n.stat.EphemeralOwner
	if owner != 0 {
		t.dropEphemeral(owner, path)
	}
	undo := func() {
		parent.children[n.name] = n
		parent.stat = priorStat
		t.nodes.Add(1)
		t.dataBytes.Add(int64(len(n.data)))
		if owner != 0 {
			t.addEphemeral(owner, path)
		}
	}
	return undo, nil
}

// Children returns the sorted child names of the node.
func (t *Tree) Children(path string) ([]string, error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// DirEntry is one record of a ChildrenData listing: a znode's name
// (relative to the listed directory), its data, and its stat.
type DirEntry struct {
	Name string
	Data []byte
	Stat Stat
}

// ChildrenData returns the node's own data and stat plus every child's
// name, data, and stat (sorted by name) under one lock acquisition —
// the server-side half of the one-round-trip readdir. Each Data is the
// node's own slice, not a copy, as in MultiResult.Data: no write
// mutates a node's data in place, so it stays valid; callers must not
// modify it.
func (t *Tree) ChildrenData(path string) (self DirEntry, children []DirEntry, err error) {
	if err := ValidatePath(path); err != nil {
		return DirEntry{}, nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.lookup(path)
	if err != nil {
		return DirEntry{}, nil, err
	}
	self = DirEntry{Data: n.data, Stat: n.stat}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	children = make([]DirEntry, 0, len(names))
	for _, name := range names {
		c := n.children[name]
		children = append(children, DirEntry{
			Name: name,
			Data: c.data,
			Stat: c.stat,
		})
	}
	return self, children, nil
}

// MultiKind selects the operation type of one Multi batch element.
type MultiKind uint8

// Multi operation kinds, mirroring ZooKeeper's multi() op set.
const (
	MultiCheck MultiKind = iota + 1 // existence/version/data-prefix guard, no mutation
	MultiCreate
	MultiSet
	MultiDelete
	// MultiMove renames a childless node: Path becomes To (moveLocked).
	MultiMove
)

// MultiOp is one element of an atomic batch.
type MultiOp struct {
	Kind MultiKind
	Path string
	// Data is the new data of a create or set. On a check it is a guard:
	// the node's data must begin with these bytes (empty matches any); on
	// a move, the guard a node it replaces at To must pass.
	Data    []byte
	Mode    CreateMode // create
	Version int32      // check, set, delete (-1 disables the check)
	To      string     // move: the destination path
}

// MultiResult is the per-op outcome of a Multi batch.
type MultiResult struct {
	Err     error
	Created string // create: the created path (sequential modes differ)
	// Stat is, on a set, the node's stat after the write; on a check, the
	// node's stat; on a move, the stat of the node it replaced at To (zero
	// when To was free) or, when that node failed the guard, of that node.
	Stat Stat
	// Data is the node's data as a check saw it, on commit and on an
	// abort the check itself caused, and on a move the replaced (or
	// refused) node's data. It is the node's own slice, not a copy: no
	// write mutates a node's data in place (set replaces it whole), so it
	// stays valid; callers must not modify it.
	Data []byte
}

// Multi applies the batch atomically: either every operation succeeds,
// or none is applied. Operations execute in order under one lock, each
// observing its predecessors' effects (a create may depend on an
// earlier create in the same batch). On the first failure every applied
// operation is undone — restoring exact stats, version counters, and
// sequential-name counters — and committed reports false; the failing
// op's result carries its error (a failing check or move also the stat
// and data of the node that failed it, so the caller learns what it
// found), every other op gets ErrRolledBack.
func (t *Tree) Multi(ops []MultiOp, session, zxid uint64, nowNano int64) (results []MultiResult, committed bool) {
	// The undo closures run under the same lock, so no reader sees a
	// batch half applied or half rolled back.
	t.mu.Lock()
	defer t.mu.Unlock()
	results = make([]MultiResult, len(ops))
	undos := make([]func(), 0, len(ops))
	for i, op := range ops {
		var err error
		switch op.Kind {
		case MultiCheck:
			results[i].Stat, results[i].Data, err = t.checkLocked(op.Path, op.Version, op.Data)
		case MultiCreate:
			var created string
			var undo func()
			created, undo, err = t.createLocked(op.Path, op.Data, op.Mode, session, zxid, nowNano, true)
			if err == nil {
				results[i].Created = created
				undos = append(undos, undo)
			}
		case MultiSet:
			var stat Stat
			var undo func()
			stat, undo, err = t.setLocked(op.Path, op.Data, op.Version, zxid, nowNano)
			if err == nil {
				results[i].Stat = stat
				undos = append(undos, undo)
			}
		case MultiDelete:
			var undo func()
			undo, err = t.deleteLocked(op.Path, op.Version, zxid)
			if err == nil {
				undos = append(undos, undo)
			}
		case MultiMove:
			var undo func()
			results[i].Stat, results[i].Data, undo, err = t.moveLocked(op.Path, op.To, op.Data, session, zxid, nowNano)
			if err == nil {
				undos = append(undos, undo)
			}
		default:
			err = fmt.Errorf("znode: unknown multi op kind %d", op.Kind)
		}
		if err != nil {
			for j := len(undos) - 1; j >= 0; j-- {
				undos[j]()
			}
			failed := results[i]
			for j := range results {
				results[j] = MultiResult{Err: ErrRolledBack}
			}
			results[i] = MultiResult{Err: err, Stat: failed.Stat, Data: failed.Data}
			return results, false
		}
	}
	return results, true
}

// FailedCheck evaluates the checks a batch leads with, as Multi would
// meet them but under read locks and writing nothing: when one fails, it
// returns the results Multi would return for the batch — that check's
// error, stat and data, ErrRolledBack on every other op — and true. No
// op behind the leading checks is looked at. The checks are evaluated
// together, under one read acquisition of the tree lock.
func (t *Tree) FailedCheck(ops []MultiOp) ([]MultiResult, bool) {
	lead := 0
	for lead < len(ops) && ops[lead].Kind == MultiCheck {
		lead++
	}
	if lead == 0 {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, op := range ops[:lead] {
		stat, data, err := t.checkLocked(op.Path, op.Version, op.Data)
		if err == nil {
			continue
		}
		results := make([]MultiResult, len(ops))
		for j := range results {
			results[j].Err = ErrRolledBack
		}
		results[i] = MultiResult{Err: err, Stat: stat, Data: data}
		return results, true
	}
	return nil, false
}

// moveLocked renames the childless node at src to dst in one step: dst
// is created holding src's data, as a persistent node with a fresh stat,
// and src is deleted. A node already at dst is deleted first, but only
// when its data begins with guard (else ErrBadVersion) and it has no
// children (else ErrNotEmpty); its stat and data are returned, the
// replaced node's or the refused one's. An ephemeral src is refused: the
// moved node would outlive its session. The undo closure reverses the
// three steps. Caller holds t.mu in write mode.
func (t *Tree) moveLocked(src, dst string, guard []byte, session, zxid uint64, nowNano int64) (Stat, []byte, func(), error) {
	if err := ValidatePath(src); err != nil {
		return Stat{}, nil, nil, err
	}
	if err := ValidatePath(dst); err != nil {
		return Stat{}, nil, nil, err
	}
	if src == dst {
		return Stat{}, nil, nil, fmt.Errorf("%w: %q cannot be moved onto itself", ErrBadPath, src)
	}
	if src == "/" {
		return Stat{}, nil, nil, ErrRootReadOnly
	}
	n, err := t.lookup(src)
	if err != nil {
		return Stat{}, nil, nil, err
	}
	if len(n.children) > 0 {
		return Stat{}, nil, nil, ErrNotEmpty
	}
	if n.stat.EphemeralOwner != 0 {
		return Stat{}, nil, nil, fmt.Errorf("znode: %q is ephemeral and cannot be moved", src)
	}
	var undos []func()
	undo := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
	}
	var replaced Stat
	var replacedData []byte
	if old, err := t.lookup(dst); err == nil {
		if !bytes.HasPrefix(old.data, guard) {
			return old.stat, old.data, nil, ErrBadVersion
		}
		if len(old.children) > 0 {
			return old.stat, old.data, nil, ErrNotEmpty
		}
		u, err := t.deleteLocked(dst, -1, zxid)
		if err != nil {
			return Stat{}, nil, nil, err
		}
		undos = append(undos, u)
		replaced, replacedData = old.stat, old.data
	}
	_, u, err := t.createLocked(dst, n.data, ModePersistent, session, zxid, nowNano, true)
	if err != nil {
		undo()
		return Stat{}, nil, nil, err
	}
	undos = append(undos, u)
	if u, err = t.deleteLocked(src, -1, zxid); err != nil {
		undo() // src is an ancestor of dst
		return Stat{}, nil, nil, err
	}
	undos = append(undos, u)
	return replaced, replacedData, undo, nil
}

// checkLocked verifies the node exists, that its data version matches
// unless version is -1, and that its data begins with guard. A guard
// mismatch is ErrBadVersion: "not the node you expect", the same answer
// a stale version gets. The node's stat and data are returned whether
// the check held or not. Caller holds t.mu.
func (t *Tree) checkLocked(path string, version int32, guard []byte) (Stat, []byte, error) {
	if err := ValidatePath(path); err != nil {
		return Stat{}, nil, err
	}
	n, err := t.lookup(path)
	if err != nil {
		return Stat{}, nil, err
	}
	if (version != -1 && version != n.stat.Version) || !bytes.HasPrefix(n.data, guard) {
		return n.stat, n.data, ErrBadVersion
	}
	return n.stat, n.data, nil
}

// ExpireSession deletes every ephemeral node owned by the session and
// returns the deleted paths (deepest first so parents never block). The
// whole sweep holds the tree lock once, so a reader sees the session's
// ephemerals either all present or all gone.
func (t *Tree) ExpireSession(session, zxid uint64) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	paths := make([]string, 0, len(t.ephemerals[session]))
	for p := range t.ephemerals[session] {
		paths = append(paths, p)
	}
	// Deeper paths first; ephemeral nodes cannot have children, but a
	// deterministic order keeps replicas identical.
	sort.Slice(paths, func(i, j int) bool {
		if d1, d2 := strings.Count(paths[i], "/"), strings.Count(paths[j], "/"); d1 != d2 {
			return d1 > d2
		}
		return paths[i] < paths[j]
	})
	deleted := paths[:0]
	for _, p := range paths {
		if _, err := t.deleteLocked(p, -1, zxid); err == nil {
			deleted = append(deleted, p)
		}
	}
	return deleted
}

// Count returns the number of znodes, excluding the root.
func (t *Tree) Count() int64 { return t.nodes.Load() }

// WalkEntry is one node visited by Walk/Snapshot.
type WalkEntry struct {
	Path string
	Data []byte
	Stat Stat
	Seq  int64 // the node's sequential-child counter
}

// Walk visits every node (excluding the root) in depth-first,
// lexicographic order and calls fn. fn must not mutate the tree. The
// whole walk holds the tree lock in read mode, so it observes one
// consistent cut of the namespace.
func (t *Tree) Walk(fn func(e WalkEntry)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.walk(t.root, "", fn)
}

func (t *Tree) walk(n *node, prefix string, fn func(e WalkEntry)) {
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := n.children[name]
		p := prefix + "/" + name
		fn(WalkEntry{Path: p, Data: c.data, Stat: c.stat, Seq: c.nextSeq})
		t.walk(c, p, fn)
	}
}

// RestoreEntry re-inserts a node captured by Walk, used when loading a
// snapshot. Entries must arrive parents-first.
func (t *Tree) RestoreEntry(e WalkEntry) error {
	parentPath, name := SplitPath(e.Path)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, err := t.lookup(parentPath)
	if err != nil {
		return ErrNoParent
	}
	if _, dup := parent.children[name]; dup {
		return ErrNodeExists
	}
	n := &node{
		name:    name,
		data:    append([]byte(nil), e.Data...),
		stat:    e.Stat,
		nextSeq: e.Seq,
	}
	if parent.children == nil {
		parent.children = make(map[string]*node)
	}
	parent.children[name] = n
	if parent == t.root {
		// Every non-root parent's own WalkEntry already carried its exact
		// NumChildren; only the root (which has no entry) accumulates its
		// count as depth-1 children arrive.
		parent.stat.NumChildren++
	}
	t.nodes.Add(1)
	t.dataBytes.Add(int64(len(e.Data)))
	if owner := e.Stat.EphemeralOwner; owner != 0 {
		t.addEphemeral(owner, e.Path)
	}
	return nil
}

// PutEntry inserts or updates a node from a captured WalkEntry — the
// create-or-overwrite primitive migration imports are built on.
// Entries must arrive parents-first (ship ancestor stubs ahead of the
// subtree). Unlike RestoreEntry, which rebuilds a whole tree, PutEntry
// grafts entries into a live namespace, so NumChildren is derived from
// the local structure rather than trusted from the entry: a fresh
// create starts at zero children and bumps its parent, an overwrite
// keeps the local count. With overwrite false an existing node is left
// untouched (stub semantics); with overwrite true its data, stat and
// sequential counter are replaced while its children survive.
func (t *Tree) PutEntry(e WalkEntry, overwrite bool) error {
	if err := ValidatePath(e.Path); err != nil {
		return err
	}
	if e.Path == "/" {
		return ErrRootReadOnly
	}
	parentPath, name := SplitPath(e.Path)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, err := t.lookup(parentPath)
	if err != nil {
		return ErrNoParent
	}
	if n, ok := parent.children[name]; ok {
		if !overwrite {
			return nil
		}
		t.dataBytes.Add(int64(len(e.Data)) - int64(len(n.data)))
		if owner := n.stat.EphemeralOwner; owner != 0 && owner != e.Stat.EphemeralOwner {
			t.dropEphemeral(owner, e.Path)
		}
		prevOwner := n.stat.EphemeralOwner
		localChildren := n.stat.NumChildren
		n.data = append([]byte(nil), e.Data...)
		n.stat = e.Stat
		n.stat.NumChildren = localChildren
		if e.Seq > n.nextSeq {
			n.nextSeq = e.Seq
		}
		if owner := e.Stat.EphemeralOwner; owner != 0 && owner != prevOwner {
			t.addEphemeral(owner, e.Path)
		}
		return nil
	}
	n := &node{
		name:    name,
		data:    append([]byte(nil), e.Data...),
		stat:    e.Stat,
		nextSeq: e.Seq,
	}
	n.stat.NumChildren = 0
	if parent.children == nil {
		parent.children = make(map[string]*node)
	}
	parent.children[name] = n
	parent.stat.NumChildren++
	t.nodes.Add(1)
	t.dataBytes.Add(int64(len(e.Data)))
	if owner := e.Stat.EphemeralOwner; owner != 0 {
		t.addEphemeral(owner, e.Path)
	}
	return nil
}

// Fingerprint returns a cheap structural checksum (node count, data
// bytes, XOR of path hashes and mzxids) used by tests to compare
// replica states without serializing whole trees.
func (t *Tree) Fingerprint() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var fp uint64
	var visit func(n *node, depth uint64)
	visit = func(n *node, depth uint64) {
		for name, c := range n.children {
			var h uint64 = 14695981039346656037
			for i := 0; i < len(name); i++ {
				h = (h ^ uint64(name[i])) * 1099511628211
			}
			fp ^= h + depth*2654435761 + c.stat.Mzxid + uint64(c.stat.Version)<<32
			visit(c, depth+1)
		}
	}
	visit(t.root, 1)
	return fp ^ uint64(t.nodes.Load())<<48 ^ uint64(t.dataBytes.Load())
}

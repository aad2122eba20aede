// Package coord implements the client-facing layer of the
// coordination service: the ZooKeeper-equivalent DUFS depends on
// (paper §II-C, §IV-D).
//
// A Server couples a znode.Tree state machine with a zab.Node replica.
// Clients connect to any server with a Session; read operations
// (Get/Exists/Children) are served from that server's local replica —
// which is why read throughput scales with the number of servers in
// Fig 7d — while write operations (Create/Set/Delete) are proposed
// through the atomic broadcast and therefore slow down as the ensemble
// grows (Fig 7a–c).
package coord

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/coord/znode"
	"repro/internal/wire"
)

// Op codes of the client protocol and of replicated transactions.
const (
	opCreate uint8 = iota + 1
	opDelete
	opSet
	opGet
	opExists
	opChildren
	opNewSession
	opCloseSession
	opStatus
	opSync
	opGetWatch
	opExistsWatch
	opChildrenWatch
	opPollEvents
	opMulti
	opChildrenData
	// opWaitEvents is the push-shaped event wait: the server parks the
	// request until a watch fires for the session or the carried
	// timeout expires. Client-local (never replicated).
	opWaitEvents
	// opLeaseRead wraps one read op (opGet/opExists/opChildren/
	// opChildrenData follows as the payload) in the leader's read check
	// (zab.Node.ReadBarrier), which makes it linearizable with nothing
	// proposed; opSync is the same check with no read behind it. A member
	// that does not lead names the leader (codeNotLeader). Client-local
	// (never replicated).
	opLeaseRead
	// Migration control plane (DESIGN.md §15). The four write ops are
	// replicated transactions — fence/moved markers and imported entries
	// are state-machine state, so they survive leader failover and reach
	// every replica; the two read ops are served locally.
	opFenceRange   // replicated: mark [lo,hi) fenced (writes bounce retryably)
	opUnfenceRange // replicated: lift a fence (migration abort)
	opRangeMoved   // replicated: mark [lo,hi) moved + drop the local copy
	opWipeRange    // replicated: drop in-range nodes (destination abort)
	opImportRange  // replicated: graft shipped entries into the namespace
	opRangeExport  // read: stream in-range entries changed since a zxid
	opRangeState   // read: fence/moved state of a range
	// opIdleMulti wraps a multi transaction (the session's stamp, then
	// the opMulti bytes) sent while none of the session's replicated ops
	// is in flight. The leader may answer it from its state, with nothing
	// proposed, when one of the batch's leading checks fails
	// (Server.answerGuardMiss); otherwise it proposes the wrapped
	// transaction. A member that does not lead names the leader.
	// Client-local (never replicated).
	opIdleMulti
)

// idleMultiHead is the length of opIdleMulti's own fields, the op byte
// and the stamp, in front of the multi transaction it wraps.
const idleMultiHead = 9

// Status codes carried in replies. They replicate deterministically as
// part of the transaction result, so every replica agrees on the
// outcome of every write.
const (
	codeOK uint8 = iota
	codeNoNode
	codeNodeExists
	codeNotEmpty
	codeBadVersion
	codeBadPath
	codeNoParent
	codeRolledBack
	codeOther
	_ // a retired code's slot, so the codes after it keep their wire values
	// codeFenced and codeMoved are the migration redirect contract:
	// fenced is transient (retry the same shard shortly), moved is
	// permanent (refresh placement, go to the shard in the detail).
	codeFenced
	codeMoved
	// codeBehind refuses a request whose last-seen stamp this replica
	// could not reach within stampWait: nothing was served, and the
	// session takes the request to its next address.
	codeBehind
	// codeNotLeader refuses a replicated op or a lease read at a member
	// that does not lead: nothing was proposed or read, and the detail is
	// the leader's client address, where the session sends the request.
	codeNotLeader
)

// proposes reports whether a client op is a replicated transaction: the
// request bytes are the transaction, ordered by the broadcast. Every
// other op is answered by the contacted replica from its own state.
func proposes(op uint8) bool {
	switch op {
	case opCreate, opDelete, opSet, opMulti, opNewSession, opCloseSession,
		opFenceRange, opUnfenceRange, opRangeMoved, opWipeRange, opImportRange:
		return true
	}
	return false
}

// Error values surfaced to DUFS. They intentionally mirror the znode
// package errors; the mapping crosses the wire as a status code.
var (
	ErrNoNode     = znode.ErrNoNode
	ErrNodeExists = znode.ErrNodeExists
	ErrNotEmpty   = znode.ErrNotEmpty
	ErrBadVersion = znode.ErrBadVersion
	ErrBadPath    = znode.ErrBadPath
	ErrNoParent   = znode.ErrNoParent
	// ErrRolledBack marks a Multi op that was undone (or never ran)
	// because a sibling op in the same atomic batch failed.
	ErrRolledBack = znode.ErrRolledBack
	// ErrFenced is returned for a write landing in a hash range that is
	// fenced for migration. The write did NOT apply; the fence lifts
	// within the delta-ship window (or on abort), so the caller retries
	// the same shard after a short backoff.
	ErrFenced = errors.New("coord: range fenced for migration, retry")
	// errBehind is codeBehind on the client: the session handles it by
	// moving on, so callers only meet it wrapped in a deadline error.
	errBehind = errors.New("coord: replica has not applied the session's last-seen zxid")
)

// notLeader is codeNotLeader: the leader's client address, which the
// session dials and resends to. Its text is the reply's detail, as
// MovedError's is.
type notLeader string

const notLeaderPrefix = "coord: not the leader; the leader is at "

func (a notLeader) Error() string { return notLeaderPrefix + string(a) }

// MovedError is the moved-partition redirect: the addressed range was
// migrated away at the carried placement epoch and this shard no
// longer serves it. The operation did NOT run; the caller must refresh
// its placement table to at least Epoch and retry on Shard.
type MovedError struct {
	Epoch uint64
	Shard int
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("coord: partition moved to shard %d at epoch %d", e.Shard, e.Epoch)
}

// parseMovedDetail recovers a MovedError from its replicated detail
// string (the exact Error() text, so old and new replicas agree on the
// bytes in the dedup window).
func parseMovedDetail(detail string) *MovedError {
	var e MovedError
	if _, err := fmt.Sscanf(detail, "coord: partition moved to shard %d at epoch %d", &e.Shard, &e.Epoch); err != nil {
		return &MovedError{}
	}
	return &e
}

// PlacementPrefix is the top-level subtree holding the placement table
// and migration intents. It is pinned to shard 0 by every router (not
// hash-routed) and exempt from fences, moves and range exports, which
// breaks the circularity of storing "where things live" inside the
// sharded namespace itself.
const PlacementPrefix = "/__placement"

// PlacementTablePath is the znode holding the wire-encoded
// placement.Table; migrations bump it with a compare-and-set Set.
const PlacementTablePath = PlacementPrefix + "/table"

// PlacementMigrationsPath is the directory of in-flight migration
// intents, one child per migration, used for crash recovery.
const PlacementMigrationsPath = PlacementPrefix + "/migrations"

func codeForError(err error) uint8 {
	switch {
	case err == nil:
		return codeOK
	case errors.Is(err, znode.ErrNoNode):
		return codeNoNode
	case errors.Is(err, znode.ErrNodeExists):
		return codeNodeExists
	case errors.Is(err, znode.ErrNotEmpty):
		return codeNotEmpty
	case errors.Is(err, znode.ErrBadVersion):
		return codeBadVersion
	case errors.Is(err, znode.ErrBadPath):
		return codeBadPath
	case errors.Is(err, znode.ErrNoParent):
		return codeNoParent
	case errors.Is(err, znode.ErrRolledBack):
		return codeRolledBack
	case errors.Is(err, ErrFenced):
		return codeFenced
	case errors.Is(err, errBehind):
		return codeBehind
	case errors.As(err, new(notLeader)):
		return codeNotLeader
	default:
		var mv *MovedError
		if errors.As(err, &mv) {
			return codeMoved
		}
		return codeOther
	}
}

func errorForCode(code uint8, detail string) error {
	switch code {
	case codeOK:
		return nil
	case codeNoNode:
		return ErrNoNode
	case codeNodeExists:
		return ErrNodeExists
	case codeNotEmpty:
		return ErrNotEmpty
	case codeBadVersion:
		return ErrBadVersion
	case codeBadPath:
		return ErrBadPath
	case codeNoParent:
		return ErrNoParent
	case codeRolledBack:
		return ErrRolledBack
	case codeFenced:
		return ErrFenced
	case codeMoved:
		return parseMovedDetail(detail)
	case codeBehind:
		return errBehind
	case codeNotLeader:
		return notLeader(strings.TrimPrefix(detail, notLeaderPrefix))
	default:
		if detail == "" {
			detail = "unknown coordination error"
		}
		return fmt.Errorf("coord: %s", detail)
	}
}

// encodeStat and decodeStat are generic over the wire vocabulary so
// the one field order serves both the framed RPC path (Writer/Reader)
// and the streaming snapshot path (Encoder/Decoder) — monomorphised,
// so the RPC hot path pays no interface dispatch.
func encodeStat[W wire.Sink](w W, s znode.Stat) {
	w.Uint64(s.Czxid)
	w.Uint64(s.Mzxid)
	w.Int64(s.Ctime)
	w.Int64(s.Mtime)
	w.Int32(s.Version)
	w.Int32(s.Cversion)
	w.Int32(s.NumChildren)
	w.Int32(s.DataLength)
	w.Uint64(s.EphemeralOwner)
}

func decodeStat[R wire.Source](r R) znode.Stat {
	return znode.Stat{
		Czxid:          r.Uint64(),
		Mzxid:          r.Uint64(),
		Ctime:          r.Int64(),
		Mtime:          r.Int64(),
		Version:        r.Int32(),
		Cversion:       r.Int32(),
		NumChildren:    r.Int32(),
		DataLength:     r.Int32(),
		EphemeralOwner: r.Uint64(),
	}
}

// OpKind selects what an Op does.
type OpKind uint8

// The batchable kinds mirror znode.MultiKind one-to-one (the duplication
// keeps the client API free of state-machine imports for callers that
// only build batches); they are the only kinds a Multi batch may carry.
const (
	OpCheck OpKind = OpKind(znode.MultiCheck)
	// OpCreate creates a znode (like Client.Create).
	OpCreate OpKind = OpKind(znode.MultiCreate)
	// OpSet replaces a znode's data (like Client.Set).
	OpSet OpKind = OpKind(znode.MultiSet)
	// OpDelete removes a childless znode (like Client.Delete).
	OpDelete OpKind = OpKind(znode.MultiDelete)
	// OpMove renames a childless znode (MoveOp); it has no single-op form.
	OpMove OpKind = OpKind(znode.MultiMove)
)

// The remaining kinds are meaningful to Do (and so to Begin) only, which
// is why their values sit far outside the znode.MultiKind range.
const (
	// OpGet reads a znode's data and stat.
	OpGet OpKind = 128 + iota
	// OpExists reads a znode's stat and whether it exists.
	OpExists
	// OpChildren lists a znode's child names.
	OpChildren
	// OpChildrenData lists a znode and its children with data and stats.
	OpChildrenData
	// OpMulti applies Op.Ops as one batch.
	OpMulti
	// OpSync is the visibility barrier (Client.Sync), a leader read.
	OpSync OpKind = 255
)

// Op is one coordination operation: what Doer.Do executes, and one
// element of a Multi batch when its kind is batchable.
type Op struct {
	Kind OpKind
	Path string
	// Data is the new data of a create or set; on a check it is a guard
	// the node's data must begin with (CheckDataOp).
	Data    []byte
	Mode    znode.CreateMode // create
	Version int32            // check, set, delete (-1 disables the check)
	To      string           // move: the destination path
	Ops     []Op             // multi: the batch

	// Watch and Lease modify the read kinds; the write kinds ignore
	// them. Watch (get, exists, children) leaves a one-shot watch behind
	// a successful read, delivered through WaitEvents. Lease asks for a
	// linearizable answer on any Session: the leader answers it with
	// nothing proposed, at once under its read lease, else after one
	// heartbeat round. A shard.Router refuses the flag; set it on the
	// sessions beneath one.
	Watch bool
	Lease bool

	// Zxid is a last-seen stamp the caller brings from elsewhere (another
	// session's Result.Zxid): the replica that serves a read has applied
	// at least this much history first. A Session raises it to the highest
	// zxid its own replies carried, so most callers leave it zero; the
	// write kinds ignore it — the broadcast orders them.
	Zxid uint64
}

// Result is the by-value outcome of one Op; each kind fills the fields
// named for it and leaves the rest zero.
type Result struct {
	Created  string       // create: the created path
	Stat     znode.Stat   // get, set, exists
	Data     []byte       // get
	Exists   bool         // exists
	Children []string     // children
	Entries  []ChildEntry // childrenData
	Results  []OpResult   // multi, check: per-op outcomes, also on abort

	// Zxid is the reply's stamp: the zxid a write was ordered at, or the
	// history the serving replica had applied when it answered a read.
	Zxid uint64
}

// CheckBatch refuses a Multi batch the state machine would only abort
// after replicating it: an empty one, or one carrying a kind that is
// not batchable (a Session's and a shard.Router's one check).
func CheckBatch(ops []Op) error {
	if len(ops) == 0 {
		return errors.New("coord: empty multi")
	}
	for _, op := range ops {
		switch op.Kind {
		case OpCheck, OpCreate, OpSet, OpDelete, OpMove:
		default:
			return fmt.Errorf("coord: a multi batch cannot carry op kind %d", op.Kind)
		}
	}
	return nil
}

// CheckDataOp guards the batch: it fails (aborting the whole
// transaction) unless path exists, its data version matches when
// version != -1, and its data begins with prefix; a mismatch fails
// with ErrBadVersion, "not the node you expect". Its OpResult carries
// the node's stat and data whether the guard held or not, so one round
// trip both asserts what a node is and reports what it was.
func CheckDataOp(path string, version int32, prefix []byte) Op {
	return Op{Kind: OpCheck, Path: path, Data: prefix, Version: version}
}

// CreateOp creates a znode as part of a Multi batch.
func CreateOp(path string, data []byte, mode znode.CreateMode) Op {
	return Op{Kind: OpCreate, Path: path, Data: data, Mode: mode}
}

// SetOp replaces a znode's data as part of a Multi batch.
func SetOp(path string, data []byte, version int32) Op {
	return Op{Kind: OpSet, Path: path, Data: data, Version: version}
}

// DeleteOp removes a childless znode as part of a Multi batch.
func DeleteOp(path string, version int32) Op {
	return Op{Kind: OpDelete, Path: path, Version: version}
}

// MoveOp renames the childless znode at src to dst as part of a Multi
// batch: dst is created holding src's data, as a persistent node with a
// fresh stat, and src is deleted; the watch events are those of a create
// of dst and a delete of src. A node already at dst is replaced — its
// delete's events fire first — when it has no children and its data
// begins with guard; otherwise the move fails with ErrNotEmpty or
// ErrBadVersion. Either way the op's OpResult carries that node's stat
// and data, and a zero Stat when dst was free. An ephemeral src is
// refused. On a shard.Router both names must route to one shard.
func MoveOp(src, dst string, guard []byte) Op {
	return Op{Kind: OpMove, Path: src, To: dst, Data: guard, Version: -1}
}

// OpResult is the per-op outcome of a Multi batch. On a committed
// batch every Err is nil; on an aborted batch the failing op carries
// its error and every other op carries ErrRolledBack. A failing check
// keeps its Stat and Data, so the caller sees what it found.
type OpResult struct {
	Err     error
	Created string     // create: the created path
	Stat    znode.Stat // set: the stat after the write; check: the node's stat; move: the replaced node's
	Data    []byte     // check: the node's data; move: the replaced node's
}

// ChildEntry is one entry of a ChildrenData listing: a znode's name
// (relative to the listed directory), its data, and its stat. The
// listed node itself appears as the first entry under the name ".",
// so one round trip carries both the directory's own metadata and its
// children's.
type ChildEntry struct {
	Name string
	Data []byte
	Stat znode.Stat
}

// encodeOps appends a Multi batch to w (count-prefixed, the same fields
// for every op; a move adds its destination behind them).
func encodeOps(w *wire.Writer, ops []Op) {
	w.Uint32(uint32(len(ops)))
	for _, op := range ops {
		w.Uint8(uint8(op.Kind))
		w.String(op.Path)
		w.Bytes32(op.Data)
		w.Uint8(uint8(op.Mode))
		w.Int32(op.Version)
		if op.Kind == OpMove {
			w.String(op.To)
		}
	}
}

// decodeOps reads a Multi batch into the state machine's op type,
// appended to ops (nil, or a scratch slice the caller reuses). A frame
// whose op count disagrees with its payload is an error, never a
// silently-empty batch: the state machine replicates whatever a client
// sends, so a truncated or hostile frame must be refused, not committed
// as a vacuous success.
func decodeOps(r *wire.Reader, ops []znode.MultiOp) ([]znode.MultiOp, error) {
	n := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errors.New("coord: empty multi transaction")
	}
	if int(n) > r.Remaining() {
		return nil, fmt.Errorf("coord: multi op count %d exceeds payload", n)
	}
	for i := uint32(0); i < n; i++ {
		op := znode.MultiOp{
			Kind: znode.MultiKind(r.Uint8()),
			Path: r.String(),
			// Borrowed from the transaction buffer: the tree copies data
			// into any node it creates or sets, and no op is read after
			// the call that decoded it returns.
			Data:    r.BorrowBytes(),
			Mode:    znode.CreateMode(r.Uint8()),
			Version: r.Int32(),
		}
		if op.Kind == znode.MultiMove {
			op.To = r.String()
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// encodeMultiResults appends the replicated outcome of a Multi batch:
// the committed flag followed by one (code, detail, created, stat,
// data) record per op. Every replica encodes the identical bytes, which
// is what makes the dedup window's cached replies deterministic. The
// check results' data is the tree's own slice (znode.MultiResult.Data);
// it is copied here, inside the apply, before any later write.
func encodeMultiResults(w *wire.Writer, results []znode.MultiResult, committed bool) {
	w.Bool(committed)
	w.Uint32(uint32(len(results)))
	for _, res := range results {
		w.Uint8(codeForError(res.Err))
		detail := ""
		if res.Err != nil {
			detail = res.Err.Error()
		}
		w.String(detail)
		w.String(res.Created)
		encodeStat(w, res.Stat)
		w.Bytes32(res.Data)
	}
}

// decodeMultiResults reads a Multi outcome back into client-facing
// OpResults. Malformed replies are errors — a caller must never
// mistake a truncated reply for a committed empty batch.
func decodeMultiResults(r *wire.Reader) (results []OpResult, committed bool, err error) {
	committed = r.Bool()
	n := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, false, err
	}
	if int(n) > r.Remaining() {
		return nil, false, fmt.Errorf("coord: multi result count %d exceeds payload", n)
	}
	results = make([]OpResult, 0, n)
	for i := uint32(0); i < n; i++ {
		code := r.Uint8()
		detail := r.String()
		created := r.String()
		stat := decodeStat(r)
		data := r.BytesCopy32()
		if err := r.Err(); err != nil {
			return nil, false, err
		}
		results = append(results, OpResult{
			Err:     errorForCode(code, detail),
			Created: created,
			Stat:    stat,
			Data:    data,
		})
	}
	return results, committed, nil
}

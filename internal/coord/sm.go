package coord

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/coord/znode"
	"repro/internal/placement"
	"repro/internal/wire"
)

// stateMachine is the replicated application state: the znode tree
// plus session bookkeeping. It implements zab.StateMachine. All write
// outcomes — including application-level failures like "node exists" —
// are encoded into the returned result bytes so replicas stay
// identical no matter which outcome occurred.
//
// Write transactions carry a per-session sequence number. The state
// machine remembers each session's last applied sequence and result,
// so a client retry of a write that already committed (leader change,
// dropped reply) returns the original result instead of re-executing —
// exact-once semantics per session, the same guarantee a ZooKeeper
// server gives reconnecting clients.
type stateMachine struct {
	// mu guards tree pointer swaps, the session table, the retry
	// windows and the migration markers. The apply goroutine is their
	// only writer besides a snapshot restore; the read handlers
	// (bounceRead, treeRef) take it shared.
	mu          sync.RWMutex
	tree        *znode.Tree
	sessions    map[uint64]bool
	nextSession uint64
	dedup       map[uint64]*dedupWindow

	// ranges holds the migration fence/moved markers for this shard,
	// sorted by range start. Replicated state: the markers are planted
	// and cleared by fence/unfence/moved transactions, so every replica
	// bounces the same writes with the same results and the markers
	// survive leader failover. Scans are linear — a shard has at most a
	// handful of live markers.
	ranges []rangeState

	// batchScratch is ApplyBatch's reusable result container, and
	// opsScratch the decoded ops of the multi transaction being applied.
	// Frames apply sequentially from the replication layer's single apply
	// goroutine, so one scratch each per state machine suffices.
	batchScratch [][]byte
	opsScratch   []znode.MultiOp

	// notify, when set, observes every applied mutation on this
	// replica (op code, affected path, acting session, success) in
	// commit order. The server uses it to fire watches and clean up
	// session queues; it is server-local, not replicated state.
	notify func(op uint8, path string, session uint64, ok bool)
}

// dedupWindow remembers a session's most recent write results, keyed
// by exact sequence number. Concurrent requests on one session may
// commit out of order, so only an exact seq match is a retry; the
// window is bounded (oldest entries evicted FIFO) because a client
// only ever retries its in-flight requests.
type dedupWindow struct {
	results map[uint64][]byte
	order   []uint64
}

// dedupWindowSize bounds remembered results per session. It must
// exceed the client's maximum concurrent in-flight writes.
const dedupWindowSize = 256

func (w *dedupWindow) lookup(seq uint64) ([]byte, bool) {
	r, ok := w.results[seq]
	return r, ok
}

func (w *dedupWindow) store(seq uint64, result []byte) {
	if _, dup := w.results[seq]; dup {
		return
	}
	w.results[seq] = result
	w.order = append(w.order, seq)
	for len(w.order) > dedupWindowSize {
		delete(w.results, w.order[0])
		w.order = w.order[1:]
	}
}

// dedupLookup returns the cached result of a retried (session, seq)
// write, if the window remembers it.
func (s *stateMachine) dedupLookup(session, seq uint64) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if w, ok := s.dedup[session]; ok {
		return w.lookup(seq)
	}
	return nil, false
}

func (s *stateMachine) dedupStore(session, seq uint64, result []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.dedup[session]
	if !ok {
		w = &dedupWindow{results: make(map[uint64][]byte)}
		s.dedup[session] = w
	}
	w.store(seq, result)
}

func newStateMachine() *stateMachine {
	return &stateMachine{
		tree:     znode.New(),
		sessions: make(map[uint64]bool),
		dedup:    make(map[uint64]*dedupWindow),
	}
}

// Transaction layouts (after the op byte):
//
//	create:       session u64, seq u64, path, data, mode u8, nowNano i64
//	delete:       session u64, seq u64, path, version i32
//	set:          session u64, seq u64, path, data, version i32, nowNano i64
//	multi:        session u64, seq u64, nowNano i64, count u32,
//	              then per op: kind u8, path, data, mode u8, version i32,
//	              and on a move, to
//	newSession:   (nothing)
//	closeSession: session u64, seq u64
//
// Session 0 / seq 0 marks an undeduplicated transaction (session
// establishment happens before the client has an identity).
// The transaction appenders below write into a caller-supplied Writer:
// the client encodes requests into pooled scratch writers, and the
// server copies before any retention (see Propose).
func appendCreateTxn(w *wire.Writer, path string, data []byte, mode znode.CreateMode, session, seq uint64, nowNano int64) {
	w.Grow(48 + len(path) + len(data))
	w.Uint8(opCreate)
	w.Uint64(session)
	w.Uint64(seq)
	w.String(path)
	w.Bytes32(data)
	w.Uint8(uint8(mode))
	w.Int64(nowNano)
}

func appendDeleteTxn(w *wire.Writer, path string, version int32, session, seq uint64) {
	w.Grow(32 + len(path))
	w.Uint8(opDelete)
	w.Uint64(session)
	w.Uint64(seq)
	w.String(path)
	w.Int32(version)
}

func appendSetTxn(w *wire.Writer, path string, data []byte, version int32, session, seq uint64, nowNano int64) {
	w.Grow(48 + len(path) + len(data))
	w.Uint8(opSet)
	w.Uint64(session)
	w.Uint64(seq)
	w.String(path)
	w.Bytes32(data)
	w.Int32(version)
	w.Int64(nowNano)
}

func appendMultiTxn(w *wire.Writer, ops []Op, session, seq uint64, nowNano int64) {
	size := 32
	for _, op := range ops {
		size += 20 + len(op.Path) + len(op.Data) + len(op.To)
	}
	w.Grow(size)
	w.Uint8(opMulti)
	w.Uint64(session)
	w.Uint64(seq)
	w.Int64(nowNano)
	encodeOps(w, ops)
}

func appendCloseSessionTxn(w *wire.Writer, session, seq uint64) {
	w.Grow(24)
	w.Uint8(opCloseSession)
	w.Uint64(session)
	w.Uint64(seq)
}

// okResult builds a successful result with an optional payload writer.
// Results are retained in the dedup window, so the buffer is owned by
// the result — never pooled.
func okResult(fill func(w *wire.Writer)) []byte {
	var w wire.Writer
	w.Grow(72) // a stat reply (62 bytes) and the zxid the server stamps behind it
	w.Uint8(codeOK)
	w.String("") // detail
	if fill != nil {
		fill(&w)
	}
	return w.Bytes()
}

// okResultString and okResultStat are closure-free okResult forms for
// the create/set replies on the write hot path — the generic fill-func
// shape costs a captured-variable closure allocation per transaction.
func okResultString(v string) []byte {
	var w wire.Writer
	w.Grow(64)
	w.Uint8(codeOK)
	w.String("") // detail
	w.String(v)
	return w.Bytes()
}

func okResultStat(stat znode.Stat) []byte {
	var w wire.Writer
	w.Grow(64)
	w.Uint8(codeOK)
	w.String("") // detail
	encodeStat(&w, stat)
	return w.Bytes()
}

func errResult(err error) []byte {
	var w wire.Writer
	w.Grow(64)
	w.Uint8(codeForError(err))
	w.String(err.Error())
	return w.Bytes()
}

// ApplyBatch implements zab.BatchStateMachine: a group-commit frame is
// N ordered transactions — transaction i carries zxid firstZxid+i —
// each producing its own result exactly as N sequential Apply calls
// would (including per-session retry dedup, which keys on session/seq
// and so is insensitive to how transactions were framed).
// The returned slice is only valid until the next ApplyBatch call: the
// replication layer consumes the results before applying the next
// frame (frames apply strictly in order from one goroutine), so the
// container is a reusable scratch — only the per-txn result buffers
// are retained (by the dedup window and the waiters).
func (s *stateMachine) ApplyBatch(txns [][]byte, firstZxid uint64) [][]byte {
	if cap(s.batchScratch) < len(txns) {
		s.batchScratch = make([][]byte, len(txns))
	}
	results := s.batchScratch[:len(txns)]
	for i, txn := range txns {
		results[i] = s.Apply(txn, firstZxid+uint64(i))
	}
	return results
}

// Apply implements zab.StateMachine.
func (s *stateMachine) Apply(txn []byte, zxid uint64) []byte {
	var r wire.Reader
	r.Reset(txn)
	op := r.Uint8()
	if r.Err() != nil {
		return errResult(fmt.Errorf("malformed transaction: %w", r.Err()))
	}
	if op == opNewSession {
		s.mu.Lock()
		s.nextSession++
		id := s.nextSession
		s.sessions[id] = true
		s.mu.Unlock()
		return okResult(func(w *wire.Writer) { w.Uint64(id) })
	}

	session := r.Uint64()
	seq := r.Uint64()
	if err := r.Err(); err != nil {
		return errResult(err)
	}
	if session != 0 && seq != 0 {
		if cached, hit := s.dedupLookup(session, seq); hit {
			return cached // retry of an already-applied write
		}
	}
	result := s.applyWrite(op, session, &r, zxid)
	if session != 0 && seq != 0 {
		s.dedupStore(session, seq, result)
	}
	return result
}

func (s *stateMachine) applyWrite(op uint8, session uint64, r *wire.Reader, zxid uint64) []byte {
	switch op {
	case opCreate:
		path := r.String()
		// Borrowed, not copied: the tree duplicates data into the node
		// it creates, so the slice never outlives this call.
		data := r.BorrowBytes()
		mode := znode.CreateMode(r.Uint8())
		now := r.Int64()
		if err := r.Err(); err != nil {
			return errResult(err)
		}
		if err := s.bounceWrite(path); err != nil {
			return errResult(err)
		}
		created, err := s.tree.Create(path, data, mode, session, zxid, now)
		if s.notify != nil {
			s.notify(opCreate, created, session, err == nil)
		}
		if err != nil {
			return errResult(err)
		}
		return okResultString(created)
	case opDelete:
		path := r.String()
		version := r.Int32()
		if err := r.Err(); err != nil {
			return errResult(err)
		}
		if err := s.bounceWrite(path); err != nil {
			return errResult(err)
		}
		derr := s.tree.Delete(path, version, zxid)
		if s.notify != nil {
			s.notify(opDelete, path, session, derr == nil)
		}
		if derr != nil {
			return errResult(derr)
		}
		return okResult(nil)
	case opSet:
		path := r.String()
		data := r.BorrowBytes() // the tree copies on Set, as on Create
		version := r.Int32()
		now := r.Int64()
		if err := r.Err(); err != nil {
			return errResult(err)
		}
		if err := s.bounceWrite(path); err != nil {
			return errResult(err)
		}
		stat, err := s.tree.Set(path, data, version, zxid, now)
		if s.notify != nil {
			s.notify(opSet, path, session, err == nil)
		}
		if err != nil {
			return errResult(err)
		}
		return okResultStat(stat)
	case opMulti:
		now := r.Int64()
		if err := r.Err(); err != nil {
			return errResult(err)
		}
		ops, derr := decodeOps(r, s.opsScratch[:0])
		if derr != nil {
			return errResult(derr)
		}
		s.opsScratch = ops[:0]
		// The whole batch bounces before any op applies, so a caller can
		// re-split and retry the sub-transaction without partial effects.
		if err := s.bounceBatch(ops); err != nil {
			return errResult(err)
		}
		results, committed := s.tree.Multi(ops, session, zxid, now)
		if committed && s.notify != nil {
			for i, op := range ops {
				switch op.Kind {
				case znode.MultiCreate:
					s.notify(opCreate, results[i].Created, session, true)
				case znode.MultiSet:
					s.notify(opSet, op.Path, session, true)
				case znode.MultiDelete:
					s.notify(opDelete, op.Path, session, true)
				case znode.MultiMove:
					// A replaced node has a stat: every zxid the log
					// orders, and so every node's Czxid, is nonzero.
					if results[i].Stat.Czxid != 0 {
						s.notify(opDelete, op.To, session, true)
					}
					s.notify(opCreate, op.To, session, true)
					s.notify(opDelete, op.Path, session, true)
				}
			}
		}
		// The outer status is OK either way: an aborted batch is an
		// application-level outcome the client needs the per-op results
		// for, not a protocol failure.
		return okResult(func(w *wire.Writer) { encodeMultiResults(w, results, committed) })
	case opCloseSession:
		s.mu.Lock()
		delete(s.sessions, session)
		delete(s.dedup, session)
		s.mu.Unlock()
		deleted := s.tree.ExpireSession(session, zxid)
		if s.notify != nil {
			for _, p := range deleted {
				s.notify(opDelete, p, session, true)
			}
			s.notify(opCloseSession, "", session, true)
		}
		return okResult(func(w *wire.Writer) { w.Uint32(uint32(len(deleted))) })
	case opFenceRange, opUnfenceRange, opRangeMoved, opWipeRange, opImportRange:
		return s.applyMigration(op, session, r, zxid)
	default:
		return errResult(fmt.Errorf("unknown transaction op %d", op))
	}
}

// Snapshot implements zab.StateMachine by buffering the streaming
// serialization — one codepath, so the blob and stream forms are
// byte-identical by construction.
func (s *stateMachine) Snapshot() []byte {
	var buf bytes.Buffer
	// A bytes.Buffer write cannot fail short of OOM.
	_ = s.SnapshotTo(&buf)
	return buf.Bytes()
}

// SnapshotTo implements zab.StreamingStateMachine: session state
// followed by the full tree walk (parents before children), pushed
// through a chunked encoder so serializing a tree of any size needs
// O(chunk) memory beyond the tree itself.
func (s *stateMachine) SnapshotTo(out io.Writer) error {
	enc := wire.NewEncoder(out, 0)
	s.mu.Lock()
	enc.Uint64(s.nextSession)
	// Emit map sections in sorted-key order so serializing the same
	// state twice yields the same bytes — two replicas at one zxid can
	// then compare snapshot checksums directly.
	sessionIDs := make([]uint64, 0, len(s.sessions))
	for id := range s.sessions {
		sessionIDs = append(sessionIDs, id)
	}
	slices.Sort(sessionIDs)
	enc.Uint32(uint32(len(sessionIDs)))
	for _, id := range sessionIDs {
		enc.Uint64(id)
	}
	dedupIDs := make([]uint64, 0, len(s.dedup))
	for id := range s.dedup {
		dedupIDs = append(dedupIDs, id)
	}
	slices.Sort(dedupIDs)
	enc.Uint32(uint32(len(dedupIDs)))
	for _, id := range dedupIDs {
		win := s.dedup[id]
		enc.Uint64(id)
		enc.Uint32(uint32(len(win.order)))
		for _, seq := range win.order {
			enc.Uint64(seq)
			enc.Bytes32(win.results[seq])
		}
	}
	enc.Uint32(uint32(len(s.ranges)))
	for _, rs := range s.ranges {
		enc.Uint64(rs.rng.Lo)
		enc.Uint64(rs.rng.Hi)
		enc.Uint32(uint32(rs.dest))
		enc.Uint64(rs.epoch)
		enc.Bool(rs.moved)
	}
	tree := s.tree
	s.mu.Unlock()

	tree.Walk(func(e znode.WalkEntry) {
		enc.Bool(true)
		enc.String(e.Path)
		enc.Bytes32(e.Data)
		encodeStat(enc, e.Stat)
		enc.Int64(e.Seq)
	})
	enc.Bool(false)
	return enc.Flush()
}

// Restore implements zab.StateMachine over the streaming path.
func (s *stateMachine) Restore(snap []byte, snapZxid uint64) error {
	return s.RestoreFrom(bytes.NewReader(snap), snapZxid)
}

// RestoreFrom implements zab.StreamingStateMachine. The replacement
// state is built on the side and swapped in only once the whole stream
// has decoded cleanly — a corrupt snapshot never leaves the machine
// half-restored. The stream is consumed to EOF, which is what lets a
// validating source (checksum verified at end-of-data) veto the swap.
func (s *stateMachine) RestoreFrom(rd io.Reader, _ uint64) error {
	r := wire.NewDecoder(rd)
	next := r.Uint64()
	nSessions := r.Uint32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("coord: corrupt snapshot header: %w", err)
	}
	sessions := make(map[uint64]bool, nSessions)
	for i := uint32(0); i < nSessions; i++ {
		sessions[r.Uint64()] = true
	}
	nDedup := r.Uint32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("coord: corrupt snapshot dedup header: %w", err)
	}
	dedup := make(map[uint64]*dedupWindow, nDedup)
	for i := uint32(0); i < nDedup; i++ {
		id := r.Uint64()
		nEntries := r.Uint32()
		if err := r.Err(); err != nil {
			return fmt.Errorf("coord: corrupt snapshot dedup entry: %w", err)
		}
		win := &dedupWindow{results: make(map[uint64][]byte, nEntries)}
		for j := uint32(0); j < nEntries; j++ {
			seq := r.Uint64()
			result := r.Bytes32()
			if err := r.Err(); err != nil {
				return fmt.Errorf("coord: corrupt snapshot dedup result: %w", err)
			}
			win.store(seq, result)
		}
		dedup[id] = win
	}
	nRanges := r.Uint32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("coord: corrupt snapshot range header: %w", err)
	}
	ranges := make([]rangeState, 0, nRanges)
	for i := uint32(0); i < nRanges; i++ {
		rs := rangeState{
			rng:  placement.Range{Lo: r.Uint64(), Hi: r.Uint64()},
			dest: int(r.Uint32()),
		}
		rs.epoch = r.Uint64()
		rs.moved = r.Bool()
		if err := r.Err(); err != nil {
			return fmt.Errorf("coord: corrupt snapshot range marker: %w", err)
		}
		ranges = append(ranges, rs)
	}
	tree := znode.New()
	for r.Bool() {
		e := znode.WalkEntry{
			Path: r.String(),
			Data: r.Bytes32(),
			Stat: decodeStat(r),
			Seq:  r.Int64(),
		}
		if err := r.Err(); err != nil {
			return fmt.Errorf("coord: corrupt snapshot entry: %w", err)
		}
		if err := tree.RestoreEntry(e); err != nil {
			return fmt.Errorf("coord: restoring %q: %w", e.Path, err)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("coord: corrupt snapshot: %w", err)
	}
	// Exactly at end-of-stream: a trailing byte is a framing bug, and
	// this final read is where a checksum-validating reader reports a
	// mismatch instead of EOF.
	var tail [1]byte
	switch _, err := io.ReadFull(rd, tail[:]); err {
	case io.EOF:
	case nil:
		return errors.New("coord: snapshot has bytes past the encoded state")
	default:
		return fmt.Errorf("coord: corrupt snapshot: %w", err)
	}
	s.mu.Lock()
	s.nextSession = next
	s.sessions = sessions
	s.dedup = dedup
	s.ranges = ranges
	s.tree = tree
	s.mu.Unlock()
	return nil
}

package coord

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/coord/storage"
	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/transport"
	"repro/internal/wire"
)

// maxEventWait caps how long one opWaitEvents request may stay parked
// server-side; clients that want to wait longer simply re-park.
const maxEventWait = 60 * time.Second

// ServerConfig describes one coordination server.
type ServerConfig struct {
	// ID is this server's ensemble identity (key of PeerAddrs).
	ID uint64
	// PeerAddrs maps every voting member to its peer-traffic address;
	// an observer lists the voters plus itself.
	PeerAddrs map[uint64]string
	// Observer makes this server a non-voting replica (zab.Config.Observer):
	// it serves the whole client protocol from its own copy of the tree
	// and redirects writes to the leader, but is counted in no quorum.
	Observer bool
	// ClientAddr is where this server accepts client sessions.
	ClientAddr string
	// Net is the transport for both peer and client traffic.
	Net transport.Network

	// Tunables forwarded to the replication layer (zero = defaults).
	HeartbeatInterval time.Duration
	ElectionTimeout   time.Duration
	MaxLogEntries     int

	// DataDir, when non-empty, attaches the durable storage engine
	// (internal/coord/storage): a segmented write-ahead log plus fuzzy
	// snapshots under this directory make every acknowledged write
	// survive even a whole-ensemble crash — the server recovers from
	// the newest snapshot plus the log tail on start. Empty keeps the
	// member's log, votes and snapshots in a zab.MemStorage: a fresh one
	// for a server NewServer builds (an observer, which votes for
	// nothing), the one it stopped with for an ensemble member restarted
	// by StartServer.
	DataDir string
	// WrapStorage, when non-nil, wraps the member's store (the storage
	// engine or the MemStorage) before it is handed to the replication
	// layer — the fault-injection seam the chaos scenarios use to slow
	// one voter's disk (internal/cluster). The wrapper must keep the
	// zab.StreamStorage contract; NewServer refuses one that drops it.
	WrapStorage func(zab.Storage) zab.Storage
}

// Server is one member of the coordination ensemble: a replicated
// znode tree plus the client-facing request pipeline.
type Server struct {
	cfg      ServerConfig
	sm       *stateMachine
	node     *zab.Node
	eng      *storage.Engine // nil without a DataDir
	clientLn io.Closer
	reg      *metrics.Registry
	watches  *watchTable
}

// ablateZab, when non-nil, edits the replication config of every server
// NewServer builds. Only this package's tests set it: it is how the
// group-commit ablation (BenchmarkGroupCommit) reaches zab's batch and
// window bounds, which are not ServerConfig's business.
var ablateZab func(*zab.Config)

// NewServer builds and starts a coordination server.
func NewServer(cfg ServerConfig) (*Server, error) { return newServer(cfg, new(zab.MemStorage)) }

// newServer is NewServer keeping the member's state in mem when cfg
// names no DataDir: the ensemble hands each member the store it stopped
// with.
func newServer(cfg ServerConfig, mem *zab.MemStorage) (*Server, error) {
	sm := newStateMachine()
	watches := newWatchTable()
	sm.notify = watches.deliver
	reg := metrics.NewRegistry()
	var eng *storage.Engine
	var st zab.Storage = mem
	if cfg.DataDir != "" {
		var err error
		eng, err = storage.Open(storage.Options{Dir: cfg.DataDir, Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("coord: storage engine: %w", err)
		}
		st = eng
	}
	if cfg.WrapStorage != nil {
		st = cfg.WrapStorage(st)
	}
	stream, ok := st.(zab.StreamStorage)
	if !ok {
		if eng != nil {
			eng.Close()
		}
		return nil, fmt.Errorf("coord: WrapStorage returned a %T, which does not stream snapshots (zab.StreamStorage)", st)
	}
	zcfg := zab.Config{
		ID:                cfg.ID,
		Peers:             cfg.PeerAddrs,
		Observer:          cfg.Observer,
		Net:               cfg.Net,
		Contact:           cfg.ClientAddr,
		HeartbeatInterval: cfg.HeartbeatInterval,
		ElectionTimeout:   cfg.ElectionTimeout,
		MaxLogEntries:     cfg.MaxLogEntries,
		Metrics:           reg,
		Storage:           stream,
	}
	if ablateZab != nil {
		ablateZab(&zcfg)
	}
	node, err := zab.NewNode(zcfg, sm)
	if err != nil {
		if eng != nil {
			eng.Close()
		}
		return nil, err
	}
	// An armed watch waits for the commit horizon like a parked read: its
	// event fires once this replica applies the write it watches for.
	node.SetWaiting(func() bool { return watches.armed.Load() > 0 })
	s := &Server{cfg: cfg, sm: sm, node: node, eng: eng, reg: reg, watches: watches}
	if err := node.Start(); err != nil {
		if eng != nil {
			eng.Close()
		}
		return nil, err
	}
	ln, err := cfg.Net.Listen(cfg.ClientAddr, transport.HandlerFunc(s.handleClient))
	if err != nil {
		s.Stop()
		return nil, fmt.Errorf("coord: client listener: %w", err)
	}
	s.clientLn = ln
	return s, nil
}

// Stop shuts the server down, releasing any parked event waits first
// so no long-poll handler outlives the listener, then closing the
// storage engine after the replication node has quiesced.
func (s *Server) Stop() {
	s.watches.close()
	if s.clientLn != nil {
		s.clientLn.Close()
	}
	s.node.Stop()
	if s.eng != nil {
		s.eng.Close()
	}
}

// ID returns the server's ensemble identity.
func (s *Server) ID() uint64 { return s.cfg.ID }

// IsLeader reports whether this server currently leads the ensemble.
func (s *Server) IsLeader() bool { return s.node.IsLeader() }

// LeaderID returns the current leader's ID, or 0 if unknown.
func (s *Server) LeaderID() uint64 { return s.node.LeaderID() }

// Tree exposes the server's local replica for read-side inspection
// (memory accounting, tests). Mutations must go through sessions.
func (s *Server) Tree() *znode.Tree { return s.sm.treeRef() }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// DebugString reports the underlying replication state (diagnostics).
func (s *Server) DebugString() string { return s.node.DebugString() }

// CommitZxid reports the server's replicated commit horizon — the
// highest transaction known quorum-durable. Operators compare it
// across members to spot laggards.
func (s *Server) CommitZxid() uint64 { return s.node.CommitZxid() }

// LastApplied reports the zxid of the last transaction this replica's
// state machine has applied; reads served here reflect exactly the
// history up to it.
func (s *Server) LastApplied() uint64 { return s.node.LastApplied() }

// stampWait bounds how long a request parks for this replica to apply
// the last-seen zxid it carries. A healthy follower trails the leader's
// acknowledgement by one window of the stream; a replica that cannot
// close the gap in this long is partitioned or drowning, and the session
// is better served by its next address.
const stampWait = 200 * time.Millisecond

// handleClient implements the client protocol. A replicated op is
// proposed through the atomic broadcast (by the leader; any other member
// names it); everything else is answered from the local replica (the
// source of Fig 7d's read scaling), once it has applied the history the
// request's stamp names (a lease read and a sync by the leader only).
// Every reply ends with a zxid: the one the write was ordered at, or the
// history this replica had applied before it read anything for the
// answer.
func (s *Server) handleClient(req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	op := r.Uint8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if op == opIdleMulti {
		stamp := r.Uint64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if req = req[idleMultiHead:]; len(req) == 0 || req[0] != opMulti {
			return nil, fmt.Errorf("coord: an idle multi wraps no multi transaction")
		}
		if reply, ok := s.answerGuardMiss(stamp, req); ok {
			return reply, nil
		}
		op = opMulti
	}
	if proposes(op) {
		// The request is already in transaction layout; propose it whole.
		// Propose retains the transaction bytes (replication log, WAL),
		// but req is a transport-owned buffer the handler must not keep
		// — so the write path pays exactly one defensive copy here.
		txn := make([]byte, len(req))
		copy(txn, req)
		result, zxid, err := s.node.ProposeZxid(txn)
		if err != zab.ErrNoLeader {
			s.reg.Counter("writes").Inc() // proposed here, as the leader
		}
		if err != nil {
			// A leader stepping down fails its enqueued txns with ErrNoLeader
			// too, and one may still commit under the next leader: the retry
			// under the same (session, seq) meets the dedup window either way.
			return s.refuse(err)
		}
		// The dedup window holds result too: the trailer goes on a copy,
		// the only one the reply makes of it.
		return stamped(append(make([]byte, 0, len(result)+8), result...), zxid), nil
	}
	if s.cfg.Observer && (op == opRangeExport || op == opRangeState) {
		// Migration control traffic belongs on voter sessions: an export
		// must pair with the voter-side applied zxid it was cut at.
		return stamped(errResult(fmt.Errorf("observer replica cannot serve migration op %d", op)), s.node.LastApplied()), nil
	}

	q, err := parseLocal(op, r)
	if err != nil {
		return nil, err
	}
	applied, err := s.admit(r)
	if err == errBehind {
		return stamped(errResult(err), applied), nil
	}
	if err != nil {
		return nil, err
	}
	if op == opLeaseRead || op == opSync {
		if applied, err = s.node.ReadBarrier(stampWait); err != nil {
			return s.refuse(err)
		}
	}
	reply, err := s.serveLocal(q)
	if err != nil {
		return nil, err
	}
	return stamped(reply, applied), nil
}

// answerGuardMiss answers a multi transaction whose leading checks
// already fail without proposing it: the reply is the one applying it
// would give, the abort that names the first failing check. That answer
// is a lease read of the checked nodes, so it is given only where a
// lease read may be — this member leads and ReadBarrier vouches for its
// state — and only when that state covers the session's stamp and no
// path of the batch bounces for a migration. ok is false when any of it
// fails or every leading check holds: then the transaction is proposed.
// The checks are evaluated once before the barrier, so a batch whose
// checks hold goes to the log without waiting on it.
//
// The session sends the batch this way only while none of its
// replicated ops is in flight or unsettled, and only on its first
// attempt (a retry may follow an attempt that was proposed, and only the
// dedup window answers that one rightly), so no write the session issued
// before it can still be ordered ahead of it.
func (s *Server) answerGuardMiss(stamp uint64, txn []byte) (reply []byte, ok bool) {
	var r wire.Reader
	r.Reset(txn[1:])
	r.Uint64() // session
	r.Uint64() // seq
	r.Int64()  // nowNano
	var buf [4]znode.MultiOp
	ops, err := decodeOps(&r, buf[:0])
	if err != nil {
		return nil, false // the apply refuses it
	}
	if _, miss := s.sm.treeRef().FailedCheck(ops); !miss {
		return nil, false
	}
	applied, err := s.node.ReadBarrier(stampWait)
	if err != nil || applied < stamp || s.sm.bounceBatch(ops) != nil {
		return nil, false
	}
	results, miss := s.sm.treeRef().FailedCheck(ops)
	if !miss {
		return nil, false
	}
	s.reg.Counter("guard_misses").Inc()
	reply = okResult(func(w *wire.Writer) { encodeMultiResults(w, results, false) })
	return stamped(reply, applied), true
}

// localReq is a non-replicated request's own fields; each op uses the
// ones its layout names.
type localReq struct {
	op, inner    uint8 // inner: the plain read a lease read wraps
	session      uint64
	path         string
	millis       uint32
	rng          placement.Range
	since        uint64
	withManifest bool
}

// parseLocal reads a non-replicated request's fields, leaving r at the
// stamp that may follow them; a short field surfaces from admit.
func parseLocal(op uint8, r *wire.Reader) (localReq, error) {
	q := localReq{op: op}
	switch op {
	case opGet, opExists, opChildren, opChildrenData:
		q.path = r.String()
	case opLeaseRead:
		q.inner, q.path = r.Uint8(), r.String()
		if r.Err() == nil && !isTreeReadOp(q.inner) {
			return q, fmt.Errorf("coord: lease read cannot wrap op %d", q.inner)
		}
	case opGetWatch, opExistsWatch, opChildrenWatch:
		q.session, q.path = r.Uint64(), r.String()
	case opPollEvents:
		q.session = r.Uint64()
	case opWaitEvents:
		q.session, q.millis = r.Uint64(), r.Uint32()
	case opRangeExport:
		q.rng = placement.Range{Lo: r.Uint64(), Hi: r.Uint64()}
		q.since, q.withManifest = r.Uint64(), r.Bool()
	case opRangeState:
		q.rng = placement.Range{Lo: r.Uint64(), Hi: r.Uint64()}
	case opStatus, opSync:
	default:
		return q, fmt.Errorf("coord: unknown client op %d", op)
	}
	return q, nil
}

// admit reads the stamp that may trail a request's own fields — the
// highest zxid any reply has shown the session; absent (the request
// bytes from before stamps existed) it is zero — and holds the request
// until this replica has applied that much, so a session reads its own
// writes and never reads backwards on whichever replica it asks. The
// zxid returned is the applied point loaded BEFORE the caller reads any
// state for its answer: what the reply may vouch for.
func (s *Server) admit(r *wire.Reader) (applied uint64, err error) {
	var stamp uint64
	if r.Remaining() > 0 {
		stamp = r.Uint64()
		if r.Err() == nil && r.Remaining() > 0 {
			r.Fail(fmt.Errorf("coord: %d bytes behind the request's stamp", r.Remaining()))
		}
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	if applied = s.node.LastApplied(); applied >= stamp {
		return applied, nil
	}
	if s.node.WaitApplied(stamp, stampWait) != nil {
		s.reg.Counter("stamp_refusals").Inc()
		return applied, errBehind
	}
	return s.node.LastApplied(), nil
}

// stamped appends the reply trailer to a reply nobody else holds.
func stamped(reply []byte, zxid uint64) []byte {
	return binary.BigEndian.AppendUint64(reply, zxid)
}

// refuse answers a request only the leader serves: a member that knows
// who leads names it; any other failure is retried like a failed proposal.
func (s *Server) refuse(err error) ([]byte, error) {
	if err == zab.ErrNoLeader {
		if contact := s.leaderElsewhere(); contact != "" {
			return stamped(errResult(notLeader(contact)), s.node.LastApplied()), nil
		}
	}
	return nil, fmt.Errorf("coord: not served as the leader: %w", err)
}

// leaderElsewhere returns the leader's client address when another
// member leads and this one has heard where; "" when this member leads
// or knows no leader.
func (s *Server) leaderElsewhere() string {
	if contact := s.node.LeaderContact(); contact != s.cfg.ClientAddr {
		return contact
	}
	return ""
}

// serveLocal answers one non-replicated op from this replica's state.
func (s *Server) serveLocal(q localReq) ([]byte, error) {
	op, path, session := q.op, q.path, q.session
	switch op {
	case opSync:
		return okResult(nil), nil // the answer is ReadBarrier's stamp
	case opLeaseRead:
		// handleClient's ReadBarrier made this a linearizable read.
		s.reg.Counter("lease_reads").Inc()
		op = q.inner
		fallthrough
	case opGet, opExists, opChildren, opChildrenData:
		if bounce := s.sm.bounceRead(path, op == opChildren || op == opChildrenData); bounce != nil {
			return errResult(bounce), nil
		}
		s.reg.Counter("reads").Inc()
		return serveTreeRead(op, path, s.sm.treeRef())
	case opStatus:
		return okResult(func(w *wire.Writer) {
			w.Uint64(s.cfg.ID)
			w.Uint64(s.node.LeaderID())
			w.Uint64(s.node.Epoch())
			w.Bool(s.node.IsLeader())
			w.Uint64(uint64(s.sm.treeRef().Count()))
			// Storage durability horizon (zeros without a data dir), so
			// operators can see how far behind the commit horizon the
			// durable one trails and how well fsyncs batch.
			var durable, segs, batch uint64
			if s.eng != nil {
				durable = s.eng.LastDurableZxid()
				segs = uint64(s.eng.Segments())
				if mean, n := s.eng.FsyncBatchTxns(); n > 0 {
					batch = uint64(mean + 0.5)
				}
			}
			w.Uint64(durable)
			w.Uint64(segs)
			w.Uint64(batch)
			// Observer-tier fields (appended so old clients that stop
			// reading here stay compatible): whether this member is one,
			// its applied tip, how far that trails the leader's commit
			// horizon (an observer's own figure; a voter reports 0), and,
			// on the leader, the lag of each observer it streams to.
			var lag uint64
			if s.cfg.Observer {
				lag = uint64(s.reg.Gauge("zab.observer.lag_txns").Value())
			}
			w.Bool(s.cfg.Observer)
			w.Uint64(s.node.LastApplied())
			w.Uint64(lag)
			lags := s.node.ObserverLags()
			w.Uint32(uint32(len(lags)))
			for _, l := range lags {
				w.Uint64(l.ID)
				w.Uint64(l.AppliedZxid)
				w.Uint64(l.LagTxns)
				w.Uint64(l.LagMS)
			}
			// Migration markers (appended last for the same forward
			// compatibility): the fenced/moved ranges this shard carries.
			ranges := s.sm.rangeStates()
			w.Uint32(uint32(len(ranges)))
			for _, rs := range ranges {
				w.Uint64(rs.rng.Lo)
				w.Uint64(rs.rng.Hi)
				w.Uint32(uint32(rs.dest))
				w.Uint64(rs.epoch)
				w.Bool(rs.moved)
			}
			// Apply-pipeline health (appended last, same forward
			// compatibility): commit-to-apply lag in txns and in frames
			// committed but not yet applied.
			w.Uint64(uint64(s.reg.Gauge("zab.apply.lag").Value()))
			w.Uint64(uint64(s.reg.Gauge("zab.apply.queue_depth").Value()))
		}), nil
	case opGetWatch, opExistsWatch, opChildrenWatch:
		plain, kind := opGet, watchData
		switch op {
		case opExistsWatch:
			plain = opExists
		case opChildrenWatch:
			plain, kind = opChildren, watchChildren
		}
		if bounce := s.sm.bounceRead(path, kind == watchChildren); bounce != nil {
			return errResult(bounce), nil
		}
		s.reg.Counter("reads").Inc()
		// Register before reading so no mutation can slip between the
		// read and the watch (a mutation in the window fires a
		// conservative extra event instead of being missed). A write
		// the session has seen fired its events before admit let this
		// request in, so it cannot fire the new watch. The first watch
		// armed here makes the node wait for the frames it has verified
		// (zab.Node.WaiterArrived).
		if s.watches.register(kind, path, session) {
			s.node.WaiterArrived()
		}
		reply, err := serveTreeRead(plain, path, s.sm.treeRef())
		if err == nil && reply[0] != codeOK {
			// Like ZooKeeper, a failed get or children read leaves no
			// watch; exists() does not fail, its watch fires on creation.
			s.watches.unregister(kind, path, session)
		}
		return reply, err
	case opPollEvents:
		// A session that wrote and then polls sees the events its own
		// write fired: they were queued before admit let this request in.
		evs := s.watches.drain(session)
		return okResult(func(w *wire.Writer) { encodeEvents(w, evs) }), nil
	case opWaitEvents:
		// The request parks here — in its own handler goroutine over
		// TCP, in the (dedicated) caller goroutine over the in-process
		// transport — until a watch fires for the session, the wait
		// expires, or the server stops. Capped so an absurd client
		// timeout cannot pin handler state for hours.
		wait := time.Duration(q.millis) * time.Millisecond
		if wait > maxEventWait {
			wait = maxEventWait
		}
		evs := s.watches.await(session, wait)
		return okResult(func(w *wire.Writer) { encodeEvents(w, evs) }), nil
	case opRangeExport:
		// A fuzzy range capture from the local replica: the caller
		// (migration coordinator) records the returned applied zxid S —
		// taken BEFORE the walk, so an entry racing the cut is re-shipped
		// rather than missed — and later requests the delta since S.
		applied := s.node.LastApplied()
		entries, manifest := s.sm.exportRange(q.rng, q.since, q.withManifest)
		return okResult(func(w *wire.Writer) {
			w.Uint64(applied)
			encodeRangeEntries(w, entries)
			w.Bool(q.withManifest)
			if q.withManifest {
				encodeManifest(w, manifest)
			}
		}), nil
	case opRangeState:
		var state uint8
		var dest uint32
		var epoch uint64
		for _, rs := range s.sm.rangeStates() {
			if rs.rng == q.rng {
				state = rangeStateFenced
				if rs.moved {
					state = rangeStateMoved
				}
				dest = uint32(rs.dest)
				epoch = rs.epoch
				break
			}
		}
		return okResult(func(w *wire.Writer) {
			w.Uint8(state)
			w.Uint32(dest)
			w.Uint64(epoch)
		}), nil
	default:
		return nil, fmt.Errorf("coord: unknown client op %d", op)
	}
}

// Range-state values reported by opRangeState.
const (
	rangeStateNone uint8 = iota
	rangeStateFenced
	rangeStateMoved
)

// treeRef returns the current tree pointer under the state-machine
// lock, so a concurrent snapshot Restore cannot race the read side.
func (s *stateMachine) treeRef() *znode.Tree {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree
}

// serveTreeRead answers one plain read op (opGet/opExists/opChildren/
// opChildrenData) from the local tree replica.
func serveTreeRead(op uint8, path string, t *znode.Tree) ([]byte, error) {
	switch op {
	case opGet:
		data, stat, err := t.Get(path)
		if err != nil {
			return errResult(err), nil
		}
		return okResult(func(w *wire.Writer) {
			w.Bytes32(data)
			encodeStat(w, stat)
		}), nil
	case opExists:
		stat, ok := t.Exists(path)
		return okResult(func(w *wire.Writer) {
			w.Bool(ok)
			encodeStat(w, stat)
		}), nil
	case opChildren:
		kids, err := t.Children(path)
		if err != nil {
			return errResult(err), nil
		}
		return okResult(func(w *wire.Writer) { w.StringSlice(kids) }), nil
	case opChildrenData:
		self, children, err := t.ChildrenData(path)
		if err != nil {
			return errResult(err), nil
		}
		return okResult(func(w *wire.Writer) {
			w.Uint32(uint32(len(children) + 1))
			w.String(".")
			w.Bytes32(self.Data)
			encodeStat(w, self.Stat)
			for _, c := range children {
				w.String(c.Name)
				w.Bytes32(c.Data)
				encodeStat(w, c.Stat)
			}
		}), nil
	default:
		return nil, fmt.Errorf("coord: op %d is not a tree read", op)
	}
}

// isTreeReadOp reports whether op is one of the plain read operations
// serveTreeRead can answer (the only ops a lease read may wrap).
func isTreeReadOp(op uint8) bool {
	switch op {
	case opGet, opExists, opChildren, opChildrenData:
		return true
	}
	return false
}

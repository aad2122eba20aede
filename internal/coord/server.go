package coord

import (
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
	// and forwards writes, but is counted in no quorum.
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
	// member's log and snapshots in memory (zab.MemStorage): a stopped
	// member then restarts empty and catches up from the leader.
	DataDir string
	// WrapStorage, when non-nil, wraps the durable storage engine
	// before it is handed to the replication layer — the fault-injection
	// seam the chaos scenarios use to slow one voter's disk
	// (internal/cluster). Only consulted with a DataDir; the wrapper
	// must preserve the zab.Storage contract.
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
	dispatch *watchDispatcher
}

// ablateZab, when non-nil, edits the replication config of every server
// NewServer builds. Only this package's tests set it: it is how the
// group-commit ablation (BenchmarkGroupCommit) reaches zab's batch and
// window bounds, which are not ServerConfig's business.
var ablateZab func(*zab.Config)

// NewServer builds and starts a coordination server.
func NewServer(cfg ServerConfig) (*Server, error) {
	sm := newStateMachine()
	watches := newWatchTable()
	// Watch firing is off the apply critical path: apply enqueues, the
	// dispatcher's goroutine delivers (in commit order — see
	// watch_dispatch.go).
	dispatch := newWatchDispatcher(watches)
	sm.notify = dispatch.dispatch
	reg := metrics.NewRegistry()
	var eng *storage.Engine
	var st zab.Storage // nil: the node keeps a zab.MemStorage
	if cfg.DataDir != "" {
		var err error
		eng, err = storage.Open(storage.Options{Dir: cfg.DataDir, Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("coord: storage engine: %w", err)
		}
		st = eng
		if cfg.WrapStorage != nil {
			st = cfg.WrapStorage(st)
		}
	}
	zcfg := zab.Config{
		ID:                cfg.ID,
		Peers:             cfg.PeerAddrs,
		Observer:          cfg.Observer,
		Net:               cfg.Net,
		HeartbeatInterval: cfg.HeartbeatInterval,
		ElectionTimeout:   cfg.ElectionTimeout,
		MaxLogEntries:     cfg.MaxLogEntries,
		Metrics:           reg,
		Storage:           st,
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
	s := &Server{cfg: cfg, sm: sm, node: node, eng: eng, reg: reg, watches: watches, dispatch: dispatch}
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
	s.dispatch.close()
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

// handleClient implements the client protocol. Reads are served from
// the local replica (the source of Fig 7d's read scaling); writes are
// proposed through the atomic broadcast.
func (s *Server) handleClient(req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	op := r.Uint8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if s.cfg.Observer && (op == opRangeExport || op == opRangeState) {
		// Migration control traffic belongs on voter sessions: an export
		// must pair with the voter-side applied zxid it was cut at.
		return errResult(fmt.Errorf("observer replica cannot serve migration op %d", op)), nil
	}
	switch op {
	case opGet, opExists, opChildren, opChildrenData:
		if bounce := s.readBounce(op, *r); bounce != nil {
			return errResult(bounce), nil
		}
		s.reg.Counter("reads").Inc()
		return serveTreeRead(op, r, s.sm.treeRef())
	case opLeaseRead:
		// A lease read wraps one plain read op; it is served from the
		// local replica ONLY while this node's leader lease — funded by
		// quorum heartbeat acks, bounded by the clock-skew margin — is
		// live. That makes the answer linearizable without a quorum
		// round trip; a node that cannot vouch refuses definitively so
		// the client can re-locate the leader or fall back to a sync
		// barrier.
		inner := r.Uint8()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if !isTreeReadOp(inner) {
			return nil, fmt.Errorf("coord: lease read cannot wrap op %d", inner)
		}
		if !s.node.HoldsReadLease() {
			return errResult(ErrNoLease), nil
		}
		if bounce := s.readBounce(inner, *r); bounce != nil {
			return errResult(bounce), nil
		}
		s.reg.Counter("reads").Inc()
		s.reg.Counter("lease_reads").Inc()
		return serveTreeRead(inner, r, s.sm.treeRef())
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
			// compatibility): commit-to-apply lag in txns and frames queued
			// between the commit and apply sides.
			w.Uint64(uint64(s.reg.Gauge("zab.apply.lag").Value()))
			w.Uint64(uint64(s.reg.Gauge("zab.apply.queue_depth").Value()))
		}), nil
	case opGetWatch:
		session := r.Uint64()
		path := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if bounce := s.sm.bounceRead(path, false); bounce != nil {
			return errResult(bounce), nil
		}
		s.reg.Counter("reads").Inc()
		// Flush queued notifications first so an already-acknowledged
		// write's events cannot fire this new watch, then register
		// before reading so no mutation can slip between the read and
		// the watch (a mutation in the window fires a conservative
		// extra event instead of being missed).
		s.dispatch.barrier()
		s.watches.register(watchData, path, session)
		data, stat, err := s.sm.treeRef().Get(path)
		if err != nil {
			// Like ZooKeeper, a failed get leaves no watch.
			s.watches.unregister(watchData, path, session)
			return errResult(err), nil
		}
		return okResult(func(w *wire.Writer) {
			w.Bytes32(data)
			encodeStat(w, stat)
		}), nil
	case opExistsWatch:
		session := r.Uint64()
		path := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if bounce := s.sm.bounceRead(path, false); bounce != nil {
			return errResult(bounce), nil
		}
		s.reg.Counter("reads").Inc()
		s.dispatch.barrier()
		stat, ok := s.sm.treeRef().Exists(path)
		// exists() watches fire on creation too, so register either way.
		s.watches.register(watchData, path, session)
		return okResult(func(w *wire.Writer) {
			w.Bool(ok)
			encodeStat(w, stat)
		}), nil
	case opChildrenWatch:
		session := r.Uint64()
		path := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if bounce := s.sm.bounceRead(path, true); bounce != nil {
			return errResult(bounce), nil
		}
		s.reg.Counter("reads").Inc()
		s.dispatch.barrier()
		s.watches.register(watchChildren, path, session)
		kids, err := s.sm.treeRef().Children(path)
		if err != nil {
			s.watches.unregister(watchChildren, path, session)
			return errResult(err), nil
		}
		return okResult(func(w *wire.Writer) { w.StringSlice(kids) }), nil
	case opPollEvents:
		session := r.Uint64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// Flush the async dispatch queue first so a session that wrote
		// and then polls sees the events its own write fired.
		s.dispatch.barrier()
		evs := s.watches.drain(session)
		return okResult(func(w *wire.Writer) { encodeEvents(w, evs) }), nil
	case opWaitEvents:
		session := r.Uint64()
		millis := r.Uint32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// The request parks here — in its own handler goroutine over
		// TCP, in the (dedicated) caller goroutine over the in-process
		// transport — until a watch fires for the session, the wait
		// expires, or the server stops. Capped so an absurd client
		// timeout cannot pin handler state for hours.
		wait := time.Duration(millis) * time.Millisecond
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
		lo, hi := r.Uint64(), r.Uint64()
		since := r.Uint64()
		withManifest := r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		applied := s.node.LastApplied()
		entries, manifest := s.sm.exportRange(placement.Range{Lo: lo, Hi: hi}, since, withManifest)
		return okResult(func(w *wire.Writer) {
			w.Uint64(applied)
			encodeRangeEntries(w, entries)
			w.Bool(withManifest)
			if withManifest {
				encodeManifest(w, manifest)
			}
		}), nil
	case opRangeState:
		lo, hi := r.Uint64(), r.Uint64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		rng := placement.Range{Lo: lo, Hi: hi}
		var state uint8
		var dest uint32
		var epoch uint64
		for _, rs := range s.sm.rangeStates() {
			if rs.rng == rng {
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
	case opCreate, opDelete, opSet, opMulti, opNewSession, opCloseSession, opSync,
		opFenceRange, opUnfenceRange, opRangeMoved, opWipeRange, opImportRange:
		// The remaining request payload after the op byte is already in
		// transaction layout; re-prefix the op and propose it whole.
		// Propose retains the transaction bytes (replication log, WAL),
		// but req is a transport-owned buffer the handler must not keep
		// — so the write path pays exactly one defensive copy here.
		s.reg.Counter("writes").Inc()
		txn := make([]byte, len(req))
		copy(txn, req)
		result, err := s.node.Propose(txn)
		if err != nil {
			return nil, fmt.Errorf("coord: proposal failed: %w", err)
		}
		return result, nil
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

// readBounce peeks the path of a plain tree read (the op's first
// field) without consuming the caller's reader and returns the moved
// bounce, if any. A malformed frame is left for the real handler to
// report.
func (s *Server) readBounce(op uint8, peek wire.Reader) error {
	path := peek.String()
	if peek.Err() != nil {
		return nil
	}
	return s.sm.bounceRead(path, op == opChildren || op == opChildrenData)
}

// treeRef returns the current tree pointer under the state-machine
// lock, so a concurrent snapshot Restore cannot race the read side.
func (s *stateMachine) treeRef() *znode.Tree {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree
}

// serveTreeRead answers one plain read op (opGet/opExists/opChildren/
// opChildrenData) from the local tree replica.
func serveTreeRead(op uint8, r *wire.Reader, t *znode.Tree) ([]byte, error) {
	path := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
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

package coord

import (
	"fmt"

	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/wire"
)

// Observer replica support: the pieces of the client protocol an
// observer server (internal/coord/observer) shares with a voting
// Server. Observers hold a full copy of the znode tree — applied from
// the leader's committed log — and answer the read half of the client
// protocol from it; everything that must be replicated (or that only a
// voter can answer, like a lease read) is left to the caller to
// forward or refuse. Keeping this here, exported, lets the observer
// package reuse the exact wire encoding without a coord → observer
// import cycle.

// serveTreeRead answers one plain read op (opGet/opExists/opChildren/
// opChildrenData) from a local tree replica. The reply bytes are
// identical whether a voter or an observer serves them — that
// indistinguishability is what lets the read router spread the stat/
// readdir load across tiers.
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

// ReplicaInfo is the identity an observer replica reports in its
// opStatus reply; the serving package supplies it per request so lag
// and leadership are sampled at answer time.
type ReplicaInfo struct {
	// ID is the observer's identity (disjoint from voter IDs).
	ID uint64
	// LeaderID is the voter the observer is tailing (0 if unknown).
	LeaderID uint64
	// Epoch is the leadership epoch the observer last saw.
	Epoch uint64
	// AppliedZxid is the observer's replication tip.
	AppliedZxid uint64
	// LagTxns is the observer's own estimate of how far it trails the
	// leader's commit horizon (a conservative zxid delta).
	LagTxns uint64
}

// ObserverState is the replicated-state half of an observer replica:
// the same znode state machine a voting server runs, minus the watch
// table and the replication node. The observer package feeds it to a
// zab.Observer (whose snapshot install path calls Restore) and serves
// client reads from it via ServeRead.
type ObserverState struct {
	sm *stateMachine
}

// NewObserverState builds an empty observer-side state machine. It
// applies strictly serially: the observer tails the leader's log on a
// single goroutine, so a worker pool would only add handoff cost.
func NewObserverState() *ObserverState {
	return &ObserverState{sm: newStateMachine()}
}

// Machine exposes the state machine for the log tailer to apply
// committed transactions (and install catch-up snapshots) into.
func (o *ObserverState) Machine() zab.BatchStateMachine { return o.sm }

// Tree exposes the local replica for read-side inspection (tests,
// memory accounting).
func (o *ObserverState) Tree() *znode.Tree { return o.sm.treeRef() }

// ServeRead answers the read half of the client protocol from the
// observer's local replica. handled=false means the request is a write
// (or a session op): the caller must forward it to the leader — it
// replicates, and the observer will observe its own write come back
// through the log. Requests an observer can never serve (watches,
// lease reads) are answered with an error reply rather than left to
// time out.
func (o *ObserverState) ServeRead(req []byte, info func() ReplicaInfo) (resp []byte, handled bool, err error) {
	r := wire.NewReader(req)
	op := r.Uint8()
	if r.Err() != nil {
		return nil, true, r.Err()
	}
	switch {
	case isTreeReadOp(op):
		resp, err = serveTreeRead(op, r, o.sm.treeRef())
		return resp, true, err
	case op == opStatus:
		ri := info()
		return okResult(func(w *wire.Writer) {
			w.Uint64(ri.ID)
			w.Uint64(ri.LeaderID)
			w.Uint64(ri.Epoch)
			w.Bool(false) // never the leader
			w.Uint64(uint64(o.sm.treeRef().Count()))
			w.Uint64(0)  // durable zxid: observers are diskless
			w.Uint64(0)  // wal segments
			w.Uint64(0)  // fsync batch
			w.Bool(true) // observer tier
			w.Uint64(ri.AppliedZxid)
			w.Uint64(ri.LagTxns)
			w.Uint32(0) // observers track no feed of their own
			w.Uint32(0) // migration markers live on voters
			// Apply-pipeline health: observers apply inline off the log
			// tailer, so lag and queue depth are structurally zero.
			w.Uint64(0)
			w.Uint64(0)
		}), true, nil
	case op == opLeaseRead:
		// Only a quorum-funded leader may answer a lease read; an
		// observer refusing (rather than silently serving stale data)
		// is what keeps the fast path linearizable.
		return errResult(ErrNoLease), true, nil
	case op == opGetWatch, op == opExistsWatch, op == opChildrenWatch,
		op == opPollEvents, op == opWaitEvents:
		// Watches need the voter-side watch table (events are minted at
		// apply time on the serving member); an observer answers with a
		// definite refusal so the client can re-home to a voter.
		return errResult(fmt.Errorf("observer replica cannot serve watch op %d", op)), true, nil
	case op == opRangeExport, op == opRangeState:
		// Migration control traffic belongs on voter sessions: an export
		// must pair with the voter-side applied zxid it was cut at.
		return errResult(fmt.Errorf("observer replica cannot serve migration op %d", op)), true, nil
	case op == opCreate, op == opDelete, op == opSet, op == opMulti,
		op == opNewSession, op == opCloseSession, op == opSync,
		op == opFenceRange, op == opUnfenceRange, op == opRangeMoved,
		op == opWipeRange, op == opImportRange:
		return nil, false, nil
	default:
		return nil, true, fmt.Errorf("coord: unknown client op %d", op)
	}
}

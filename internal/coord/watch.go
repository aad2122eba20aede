package coord

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/wire"
)

// Watches are one-shot notifications, modelled on ZooKeeper's: a read
// operation (get/exists/children) may leave a watch on the path; the
// next committed mutation touching it produces an event. Watches are
// server-local state — they live on the server the session is
// connected to, not in the replicated state machine — exactly like
// ZooKeeper, which is why a failover loses them and clients must
// re-register.
//
// Delivery is push-shaped (Session.WaitEvents): the transport is pure
// request/response, so the client keeps one long-poll request PARKED
// on its server and the server releases it the moment a watch fires —
// event latency is one transit, not a poll interval, and an idle
// session costs nothing. The pull (Session.PollEvents) remains only
// because the benchmark's trace test calls it. The paper's DUFS uses
// only the synchronous API; watches are provided as the natural
// extension for client-side metadata caching (the FUSE entry-cache
// invalidation the paper leaves to future work), and Fletch's
// measurements argue delivery latency is the limiting factor for such
// caches — hence the parked delivery, and hence a watch fires on the
// goroutine that applies the write (watchTable.deliver), as
// ZooKeeper's DataTree fires on its commit thread: no queue or second
// goroutine sits between the apply and the parked request.

// EventType classifies a fired watch: what happened to the watched
// znode (or, for child watches, to its child list).
type EventType uint8

// Watch event types.
const (
	EventCreated EventType = iota + 1
	EventDeleted
	EventDataChanged
	EventChildrenChanged
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "created"
	case EventDeleted:
		return "deleted"
	case EventDataChanged:
		return "data-changed"
	case EventChildrenChanged:
		return "children-changed"
	default:
		return "unknown"
	}
}

// Event is one fired watch.
type Event struct {
	Type EventType
	Path string
}

// watchKind distinguishes what a watch observes.
type watchKind uint8

const (
	watchData watchKind = iota + 1 // get/exists watches: node create/delete/set
	watchChildren
)

// watchTable is one server's watch state.
type watchTable struct {
	// armed counts the watches in data and children. It changes only
	// under mu, and is read without it by the apply side, which skips
	// watch delivery altogether while it is zero (deliver), and
	// by the node, which asks the leader for the commit of every frame it
	// verifies while it is not (zab.Node.SetWaiting, and WaiterArrived
	// when it leaves zero).
	armed atomic.Int64

	mu sync.Mutex
	// data[path] and children[path] hold the waiting session IDs.
	data     map[string]map[uint64]bool
	children map[string]map[uint64]bool
	// queues holds undelivered events per session.
	queues map[uint64][]Event
	// waiters holds the parked long-poll requests per session: each
	// channel is closed (exactly once, under mu) when an event lands
	// for that session, releasing the parked handler.
	waiters map[uint64]map[chan struct{}]bool
	// closed releases every parked waiter when the server stops.
	closed chan struct{}
	down   bool
}

func newWatchTable() *watchTable {
	return &watchTable{
		data:     make(map[string]map[uint64]bool),
		children: make(map[string]map[uint64]bool),
		queues:   make(map[uint64][]Event),
		waiters:  make(map[uint64]map[chan struct{}]bool),
		closed:   make(chan struct{}),
	}
}

// close releases every parked waiter; used on server shutdown so
// long-poll handlers never outlive the server.
func (w *watchTable) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.down {
		w.down = true
		close(w.closed)
	}
}

// wake releases a session's parked waiters (with mu held).
func (w *watchTable) wake(session uint64) {
	if set := w.waiters[session]; set != nil {
		for ch := range set {
			close(ch)
		}
		delete(w.waiters, session)
	}
}

// await parks until the session has pending events, the timeout
// expires, or the server shuts down, and returns whatever is queued —
// possibly nothing, which the client reads as "park again". This is
// what turns watch delivery from pull to push: the event's commit
// releases the request in the same instant it queues the event.
func (w *watchTable) await(session uint64, maxWait time.Duration) []Event {
	w.mu.Lock()
	if w.down || maxWait <= 0 || len(w.queues[session]) > 0 {
		evs := w.queues[session]
		delete(w.queues, session)
		w.mu.Unlock()
		return evs
	}
	ch := make(chan struct{})
	set := w.waiters[session]
	if set == nil {
		set = make(map[chan struct{}]bool)
		w.waiters[session] = set
	}
	set[ch] = true
	w.mu.Unlock()

	t := time.NewTimer(maxWait)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	case <-w.closed:
	}

	w.mu.Lock()
	if set, ok := w.waiters[session]; ok {
		delete(set, ch)
		if len(set) == 0 {
			delete(w.waiters, session)
		}
	}
	evs := w.queues[session]
	delete(w.queues, session)
	w.mu.Unlock()
	return evs
}

// register arms a watch, and reports whether it is the only one armed
// here (armed went from zero to one).
func (w *watchTable) register(kind watchKind, path string, session uint64) (first bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.data
	if kind == watchChildren {
		m = w.children
	}
	set := m[path]
	if set == nil {
		set = make(map[uint64]bool)
		m[path] = set
	}
	if set[session] {
		return false
	}
	set[session] = true
	return w.armed.Add(1) == 1
}

// unregister removes a pending watch (used when the guarded read
// fails, so a failed get leaves no watch).
func (w *watchTable) unregister(kind watchKind, path string, session uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.data
	if kind == watchChildren {
		m = w.children
	}
	if set := m[path]; set[session] {
		delete(set, session)
		w.armed.Add(-1)
		if len(set) == 0 {
			delete(m, path)
		}
	}
}

// fire dispatches one event to every watcher of the path and removes
// the watches (one-shot semantics).
func (w *watchTable) fire(kind watchKind, path string, ev Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.data
	if kind == watchChildren {
		m = w.children
	}
	set := m[path]
	if len(set) == 0 {
		return
	}
	delete(m, path)
	w.armed.Add(-int64(len(set)))
	for session := range set {
		w.queues[session] = append(w.queues[session], ev)
		w.wake(session)
	}
}

// drain returns and clears a session's pending events.
func (w *watchTable) drain(session uint64) []Event {
	w.mu.Lock()
	defer w.mu.Unlock()
	evs := w.queues[session]
	delete(w.queues, session)
	return evs
}

// dropSession discards a closed session's watches and queue.
func (w *watchTable) dropSession(session uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range []map[string]map[uint64]bool{w.data, w.children} {
		for path, set := range m {
			if !set[session] {
				continue
			}
			delete(set, session)
			w.armed.Add(-1)
			if len(set) == 0 {
				delete(m, path)
			}
		}
	}
	delete(w.queues, session)
	w.wake(session)
}

// deliver is the state machine's notify callback: it runs on whichever
// goroutine applies the frame, so a write's events are queued before
// zab advances LastApplied past it. A closed session is always
// delivered: dropping it releases its parked WaitEvents, watched or
// not. Any other mutation returns at once while no watch is armed
// here. That misses no event: the state machine notifies after its
// mutation released the znode tree lock, and a watched read
// registers its watch before it takes that tree lock to read (GetW,
// ExistsW, ChildrenW). If the read's lock came first, the registration
// happens-before the mutation and so before this load, which sees the
// watch; if this load sees zero, the read's lock came after the
// mutation, so the read returned the mutated state and no event is
// owed for it.
func (w *watchTable) deliver(op uint8, path string, session uint64, ok bool) {
	if op == opCloseSession {
		w.dropSession(session)
		return
	}
	if w.armed.Load() == 0 || !ok || path == "" {
		return
	}
	parent, _ := znode.SplitPath(path)
	switch op {
	case opCreate:
		w.fire(watchData, path, Event{Type: EventCreated, Path: path})
		w.fire(watchChildren, parent, Event{Type: EventChildrenChanged, Path: parent})
	case opDelete:
		w.fire(watchData, path, Event{Type: EventDeleted, Path: path})
		w.fire(watchChildren, path, Event{Type: EventDeleted, Path: path})
		w.fire(watchChildren, parent, Event{Type: EventChildrenChanged, Path: parent})
	case opSet:
		w.fire(watchData, path, Event{Type: EventDataChanged, Path: path})
	}
}

func encodeEvents(w *wire.Writer, evs []Event) {
	w.Uint32(uint32(len(evs)))
	for _, e := range evs {
		w.Uint8(uint8(e.Type))
		w.String(e.Path)
	}
}

// decodeEvents reads an event list, failing r on a count the payload
// cannot hold or a record cut short; it returns only whole records.
func decodeEvents(r *wire.Reader) []Event {
	n := r.Uint32()
	if r.Err() == nil && int(n) > r.Remaining() {
		r.Fail(fmt.Errorf("coord: event count %d exceeds payload", n))
	}
	if r.Err() != nil {
		return nil
	}
	out := make([]Event, 0, n)
	for i := uint32(0); i < n; i++ {
		e := Event{Type: EventType(r.Uint8()), Path: r.String()}
		if r.Err() != nil {
			return nil
		}
		out = append(out, e)
	}
	return out
}

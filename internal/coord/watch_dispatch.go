package coord

import "sync"

// watchDispatcher takes watch firing off the apply critical path: the
// state machine's notify callback only appends to a FIFO here, and a
// dedicated goroutine delivers the events to the watch table. Arrival
// order is preserved end to end — the apply side notifies in commit
// order, the queue is drained in order by one consumer — so
// sessions still observe their events in commit order; the apply loop
// just no longer waits for watch-table locks or parked-poll wakeups.
type watchDispatcher struct {
	watches *watchTable

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []notifyRec
	scratch   []notifyRec // drained batch, reused
	enqueued  uint64
	processed uint64
	closed    bool
	wg        sync.WaitGroup
}

// notifyRec is one queued state-machine notification.
type notifyRec struct {
	op      uint8
	path    string
	session uint64
	ok      bool
}

func newWatchDispatcher(watches *watchTable) *watchDispatcher {
	d := &watchDispatcher{watches: watches}
	d.cond = sync.NewCond(&d.mu)
	d.wg.Add(1)
	go d.loop()
	return d
}

// dispatch is the state machine's notify callback. While no watch is
// armed on this server it returns at once, and a replica nobody watches
// never wakes the dispatcher. That misses no event: the state machine
// notifies after its mutation released the znode stripe lock, and a
// watched read registers its watch before it takes that stripe lock to
// read (GetW, ExistsW, ChildrenW). If the read's lock came first, the
// registration happens-before the mutation and so before this load,
// which sees the watch; if this load sees zero, the read's lock came
// after the mutation, so the read returned the mutated state and no
// event is owed for it. A closed session is always queued: dropping it
// releases its parked WaitEvents, watched or not.
func (d *watchDispatcher) dispatch(op uint8, path string, session uint64, ok bool) {
	if op != opCloseSession && d.watches.armed.Load() == 0 {
		return
	}
	d.mu.Lock()
	d.queue = append(d.queue, notifyRec{op: op, path: path, session: session, ok: ok})
	d.enqueued++
	d.cond.Signal()
	d.mu.Unlock()
}

func (d *watchDispatcher) loop() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for !d.closed && len(d.queue) == 0 {
			d.cond.Wait()
		}
		if d.closed && len(d.queue) == 0 {
			d.mu.Unlock()
			return
		}
		batch := append(d.scratch[:0], d.queue...)
		d.queue = d.queue[:0]
		d.mu.Unlock()
		for _, n := range batch {
			if n.op == opCloseSession {
				d.watches.dropSession(n.session)
			} else {
				d.watches.observeApply(n.op, n.path, n.ok)
			}
		}
		d.mu.Lock()
		d.scratch = batch
		d.processed += uint64(len(batch))
		d.cond.Broadcast() // wake barrier waiters
		d.mu.Unlock()
	}
}

// barrier returns once every notification enqueued before the call has
// been delivered to the watch table. Event polls run it first, so a
// client that wrote (the write's notifications enqueue before its
// proposal completes) and then polls still sees the events its write
// fired — the async queue never weakens read-your-own-events.
func (d *watchDispatcher) barrier() {
	d.mu.Lock()
	target := d.enqueued
	for !d.closed && d.processed < target {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// close drains the queue and joins the delivery goroutine.
func (d *watchDispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

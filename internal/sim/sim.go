// Package sim is a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, FCFS multi-server resources and a
// group-commit (batching) resource.
//
// The performance experiments of the paper (§V) are closed-loop
// throughput measurements of 8–256 client processes against server
// stations — MDS CPUs, ZooKeeper leaders, journaling disks — on a 2011
// cluster we do not have. internal/model expresses those stations with
// calibrated service times on top of this engine, which reproduces the
// published throughput *shapes* in milliseconds of real time instead
// of hours of testbed time.
//
// Everything runs on the caller's goroutine: Schedule/callback style,
// no channels, fully deterministic for a given seed.
package sim

import (
	"container/heap"
	"time"
)

// Engine is the event loop. The zero value is ready to use.
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap
}

type event struct {
	at  time.Duration
	seq uint64 // tie-break so equal-time events run FIFO
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay of virtual time (>= 0).
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.events, event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Run processes events until the queue is empty and returns the final
// virtual time.
func (e *Engine) Run() time.Duration {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// Resource is an FCFS station with k identical servers. Acquire
// schedules the caller's completion; requests are served in arrival
// order. It models a CPU pool, a metadata server, a NIC — any place
// where requests queue for service.
type Resource struct {
	eng    *Engine
	freeAt []time.Duration // per-server next-free time

	// Busy accumulates total busy time across servers, for utilization
	// reporting.
	Busy time.Duration
	// Served counts completed acquisitions.
	Served int64
}

// NewResource returns a station with k servers (k >= 1).
func NewResource(eng *Engine, k int) *Resource {
	if k < 1 {
		k = 1
	}
	return &Resource{eng: eng, freeAt: make([]time.Duration, k)}
}

// Acquire queues a request needing the given service time and calls
// done when it completes.
func (r *Resource) Acquire(service time.Duration, done func()) {
	// Pick the earliest-free server.
	best := 0
	for i := 1; i < len(r.freeAt); i++ {
		if r.freeAt[i] < r.freeAt[best] {
			best = i
		}
	}
	start := r.freeAt[best]
	if start < r.eng.now {
		start = r.eng.now
	}
	complete := start + service
	r.freeAt[best] = complete
	r.Busy += service
	r.Served++
	r.eng.Schedule(complete-r.eng.now, done)
}

// GroupCommit models a journaling device with group commit: requests
// that arrive while a flush is in progress are absorbed into the next
// flush, so per-request cost shrinks as load grows — the behaviour of
// ZooKeeper's txn log and a journaling MDS under load, and the reason
// their write throughput is latency-bound at low client counts but
// CPU-bound at high ones.
type GroupCommit struct {
	eng      *Engine
	latency  time.Duration // one flush
	maxBatch int
	queue    []func()
	flushing bool

	// Flushes counts completed flushes; Committed counts requests.
	Flushes   int64
	Committed int64
}

// NewGroupCommit returns a device with the given flush latency and
// maximum batch size (<=0 means unbounded).
func NewGroupCommit(eng *Engine, latency time.Duration, maxBatch int) *GroupCommit {
	return &GroupCommit{eng: eng, latency: latency, maxBatch: maxBatch}
}

// Commit enqueues a request; done runs when its flush completes.
func (g *GroupCommit) Commit(done func()) {
	g.queue = append(g.queue, done)
	if !g.flushing {
		g.startFlush()
	}
}

func (g *GroupCommit) startFlush() {
	n := len(g.queue)
	if n == 0 {
		g.flushing = false
		return
	}
	if g.maxBatch > 0 && n > g.maxBatch {
		n = g.maxBatch
	}
	batch := g.queue[:n]
	g.queue = append([]func(){}, g.queue[n:]...)
	g.flushing = true
	g.Flushes++
	g.Committed += int64(n)
	g.eng.Schedule(g.latency, func() {
		for _, done := range batch {
			done()
		}
		g.startFlush()
	})
}

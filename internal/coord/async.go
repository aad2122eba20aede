package coord

import (
	"context"

	"repro/internal/coord/znode"
)

// The asynchronous submission layer (DESIGN.md §10).
//
// Begin decouples operation SUBMISSION from COMPLETION: it returns a
// Future immediately and keeps the request in flight alongside every
// other outstanding submission on the same session, multiplexed over
// the one transport connection (the TCP transport tags each request
// frame with a call ID; responses complete the matching caller). One
// goroutine can therefore keep dozens of writes in the leader's
// group-commit pipeline — the client-side half of the server-side
// batching PR 3 built, and the design λFS argues is what lets a
// metadata service exploit server parallelism. The blocking Do is the
// primitive and Begin is `go Do` (Forms.Begin, the one place a Future
// is made).
//
// Ordering: futures are INDEPENDENT. Two Begin calls race exactly like
// two synchronous calls from two goroutines — the service serializes
// them in an arbitrary order. Callers that need ordering chain on a
// future's completion or put the dependent ops in one Multi. The
// synchronous API keeps its stronger property trivially: a goroutine
// issuing sync calls observes each result before the next submission.

// asyncWindow bounds a session's concurrently in-flight replicated
// writes. It must stay well below the server's per-session retry-dedup
// window (dedupWindowSize) so a post-failover replay of any in-flight
// write is always recognised as a duplicate. Session.Do takes the slot,
// so the bound holds for every form and through every wrapper.
const asyncWindow = 64

// Future is the pending result of an asynchronous submission. All
// accessors block until the operation completes; Done exposes the
// completion signal for select loops.
type Future struct {
	done chan struct{}
	res  Result
	err  error
}

// Done is closed when the future resolves.
func (f *Future) Done() <-chan struct{} { return f.done }

// Err blocks until completion and returns the operation's error.
func (f *Future) Err() error {
	<-f.done
	return f.err
}

// Result blocks until completion and returns the single-op outcome
// (create path, set stat) — for futures minted by Begin.
func (f *Future) Result() (OpResult, error) {
	<-f.done
	return OpResult{Err: f.err, Created: f.res.Created, Stat: f.res.Stat}, f.err
}

// Results blocks until completion and returns the per-op outcomes of
// a BeginMulti future, with Multi's abort semantics.
func (f *Future) Results() ([]OpResult, error) {
	<-f.done
	return f.res.Results, f.err
}

// Entries blocks until completion and returns a BeginChildrenData
// future's listing.
func (f *Future) Entries() ([]ChildEntry, error) {
	<-f.done
	return f.res.Entries, f.err
}

// Pipeline batches asynchronous submissions behind one tiny API: queue
// operations without blocking, then Wait for the whole flight. It is
// how single-goroutine callers (core's subtree walks, the benchmarks)
// keep the coordination pipeline full without managing futures by
// hand. A Pipeline is not safe for concurrent use; make one per
// goroutine.
type Pipeline struct {
	ctx  context.Context
	c    Client
	futs []*Future
}

// NewPipeline starts an empty pipeline over c. Every queued operation
// inherits ctx.
func NewPipeline(ctx context.Context, c Client) *Pipeline {
	return &Pipeline{ctx: ctx, c: c}
}

// Begin queues an arbitrary operation.
func (p *Pipeline) Begin(op Op) *Future {
	f := p.c.Begin(p.ctx, op)
	p.futs = append(p.futs, f)
	return f
}

// Create queues a znode create.
func (p *Pipeline) Create(path string, data []byte, mode znode.CreateMode) *Future {
	return p.Begin(CreateOp(path, data, mode))
}

// Set queues a data write.
func (p *Pipeline) Set(path string, data []byte, version int32) *Future {
	return p.Begin(SetOp(path, data, version))
}

// Delete queues a znode delete.
func (p *Pipeline) Delete(path string, version int32) *Future {
	return p.Begin(DeleteOp(path, version))
}

// Multi queues a whole atomic batch.
func (p *Pipeline) Multi(ops []Op) *Future {
	f := p.c.BeginMulti(p.ctx, ops)
	p.futs = append(p.futs, f)
	return f
}

// ChildrenData queues a whole-directory listing.
func (p *Pipeline) ChildrenData(path string) *Future {
	f := p.c.BeginChildrenData(p.ctx, path)
	p.futs = append(p.futs, f)
	return f
}

// Outstanding reports how many queued futures Wait will join.
func (p *Pipeline) Outstanding() int { return len(p.futs) }

// WaitOne joins only the OLDEST queued future and returns its error —
// the sliding-window primitive: callers that cap their flight at K
// submissions wait one out and submit the next, keeping the wire
// continuously occupied instead of draining to empty every K ops.
func (p *Pipeline) WaitOne() error {
	if len(p.futs) == 0 {
		return nil
	}
	f := p.futs[0]
	p.futs = p.futs[1:]
	return f.Err()
}

// Wait joins every queued future, clears the queue, and returns the
// first error encountered in submission order. All futures are waited
// even after an error, so the flight is fully drained.
func (p *Pipeline) Wait() error {
	var first error
	for _, f := range p.futs {
		if err := f.Err(); err != nil && first == nil {
			first = err
		}
	}
	p.futs = p.futs[:0]
	return first
}

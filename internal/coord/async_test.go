package coord

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// startLatencyEnsemble boots a single-server ensemble behind an
// injected per-call delay, so round trips dominate and pipelining is
// observable in wall-clock time.
func startLatencyEnsemble(t *testing.T, rtt time.Duration) *Ensemble {
	t.Helper()
	ensembleSeq++
	e, err := StartEnsemble(EnsembleConfig{
		Servers: 1,
		Net: &transport.Latency{
			Inner: transport.NewInProc(),
			Delay: func() time.Duration { return rtt },
		},
		AddrPrefix:        fmt.Sprintf("async%d", ensembleSeq),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// TestBeginPipelinesWrites issues a flight of creates from ONE
// goroutine through Begin and verifies (a) every future resolves with
// its own created path and (b) the flight overlaps its round trips —
// the synchronous cost would be K round trips, the pipelined flight
// must come in well under half that.
func TestBeginPipelinesWrites(t *testing.T) {
	const (
		rtt = 5 * time.Millisecond
		k   = 20
	)
	e := startLatencyEnsemble(t, rtt)
	s := connect(t, e, -1)
	ctx := context.Background()

	if _, err := s.Create("/p", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	futs := make([]*Future, k)
	for i := 0; i < k; i++ {
		futs[i] = s.Begin(ctx, CreateOp(fmt.Sprintf("/p/f%d", i), nil, znode.ModePersistent))
	}
	for i, f := range futs {
		res, err := f.Result()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if want := fmt.Sprintf("/p/f%d", i); res.Created != want {
			t.Fatalf("future %d created %q, want %q", i, res.Created, want)
		}
	}
	if elapsed := time.Since(start); elapsed > k*rtt/2 {
		t.Fatalf("pipelined flight took %v; serial cost is %v — no overlap", elapsed, k*rtt)
	}
	kids, err := s.Children("/p")
	if err != nil || len(kids) != k {
		t.Fatalf("children after flight = %d, %v; want %d", len(kids), err, k)
	}
}

// TestPipelineBatcher drives the same flight through the Pipeline
// convenience layer, mixing op kinds, and checks Wait's first-error
// contract.
func TestPipelineBatcher(t *testing.T) {
	e := startTestEnsemble(t, 1)
	s := connect(t, e, -1)
	pl := NewPipeline(context.Background(), s)
	pl.Create("/pl", []byte("d"), znode.ModePersistent)
	if err := pl.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		pl.Create(fmt.Sprintf("/pl/f%d", i), nil, znode.ModePersistent)
	}
	pl.Set("/pl", []byte("d2"), -1)
	if pl.Outstanding() != 9 {
		t.Fatalf("outstanding = %d, want 9", pl.Outstanding())
	}
	if err := pl.Wait(); err != nil {
		t.Fatal(err)
	}
	if pl.Outstanding() != 0 {
		t.Fatalf("outstanding after Wait = %d", pl.Outstanding())
	}
	// A failing op surfaces from Wait; the rest of the flight still
	// applies.
	pl.Create("/pl/f0", nil, znode.ModePersistent) // exists
	pl.Delete("/pl/f1", -1)
	if err := pl.Wait(); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("Wait = %v, want ErrNodeExists", err)
	}
	if _, ok, _ := s.Exists("/pl/f1"); ok {
		t.Fatal("delete queued alongside the failing create did not apply")
	}
}

// TestBeginContextCancelReleasesFuture cancels a context while its
// operation is mid-flight (held up by transport latency) and verifies
// the future resolves promptly with ctx.Err() — and that the session
// keeps working afterwards: the abandoned response is dropped, the
// next write proceeds normally.
func TestBeginContextCancelReleasesFuture(t *testing.T) {
	e := startLatencyEnsemble(t, 50*time.Millisecond)
	s := connect(t, e, -1)

	ctx, cancel := context.WithCancel(context.Background())
	fut := s.Begin(ctx, CreateOp("/cancelled", nil, znode.ModePersistent))
	time.Sleep(5 * time.Millisecond) // let the request reach the wire
	cancel()
	done := time.Now()
	if _, err := fut.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled future = %v, want context.Canceled", err)
	}
	if waited := time.Since(done); waited > 25*time.Millisecond {
		t.Fatalf("future released %v after cancel; want immediate", waited)
	}
	// The session is not poisoned: subsequent synchronous and
	// asynchronous ops both succeed.
	if _, err := s.Create("/after", nil, znode.ModePersistent); err != nil {
		t.Fatalf("session unusable after cancel: %v", err)
	}
	if _, err := s.Begin(context.Background(), CreateOp("/after2", nil, znode.ModePersistent)).Result(); err != nil {
		t.Fatalf("async unusable after cancel: %v", err)
	}
}

// TestBeginPreCancelledContext never dispatches: the future resolves
// with ctx.Err() immediately.
func TestBeginPreCancelledContext(t *testing.T) {
	e := startTestEnsemble(t, 1)
	s := connect(t, e, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Begin(ctx, CreateOp("/x", nil, znode.ModePersistent)).Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRequestCtxDeadline bounds a synchronous call with a context
// deadline shorter than the retry budget: with every server stopped
// the call must return promptly with a deadline error instead of
// grinding through DialTimeout.
func TestRequestCtxDeadline(t *testing.T) {
	e := startTestEnsemble(t, 1)
	// No connect() helper: its cleanup would Close against the stopped
	// ensemble and grind through the full retry budget.
	s, err := e.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/alive", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.CreateCtx(ctx, "/dead", nil, znode.ModePersistent)
	if err == nil {
		t.Fatal("create against stopped ensemble succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		t.Fatalf("err = %v, want deadline-bounded failure", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline-bounded call took %v", elapsed)
	}
}

// heldCtx is a context whose deadline has passed while its Done channel
// stays open: the moment between a deadline and its timer firing, held.
type heldCtx struct {
	context.Context
	deadline time.Time
}

func (c heldCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// TestRequestReportsTheCallersDeadline: when the deadline that ends a
// request's retries is the caller's, the error wraps
// context.DeadlineExceeded even though the context has not reported it
// yet, not just the last transport failure.
func TestRequestReportsTheCallersDeadline(t *testing.T) {
	e := startTestEnsemble(t, 1)
	s, err := e.Connect(-1) // no connect(): its cleanup would Close against the stopped ensemble
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/alive", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	open, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := heldCtx{open, time.Now().Add(20 * time.Millisecond)}
	_, err = s.CreateCtx(ctx, "/dead", nil, znode.ModePersistent)
	if ctx.Err() != nil {
		t.Fatal("the held context reported its end")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after the caller's deadline passed, want context.DeadlineExceeded", err)
	}
}

// TestInFlightFuturesResolveAcrossFailover kills the server a session
// is connected to while a flight of async creates is outstanding.
// Every future must RESOLVE (success via retry on the next server, or
// a clean error) — never hang — and the session must stay usable.
func TestInFlightFuturesResolveAcrossFailover(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, 0) // pinned to server 0 first
	if _, err := s.Create("/fo", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	const k = 8
	futs := make([]*Future, k)
	for i := 0; i < k; i++ {
		futs[i] = s.Begin(context.Background(), CreateOp(fmt.Sprintf("/fo/f%d", i), nil, znode.ModePersistent))
	}
	e.Servers[0].Stop()

	deadline := time.After(2 * DialTimeout)
	for i, f := range futs {
		select {
		case <-f.Done():
		case <-deadline:
			t.Fatalf("future %d still unresolved after failover", i)
		}
		// Either outcome is legal; hanging is not. A success must be
		// real: the node visible through the surviving servers.
		if res, err := f.Result(); err == nil {
			if _, ok, gerr := s.Exists(res.Created); gerr != nil || !ok {
				t.Fatalf("future %d reported created %q but node is missing (%v)", i, res.Created, gerr)
			}
		}
	}
	if _, err := s.Create("/fo/after-failover", nil, znode.ModePersistent); err != nil {
		t.Fatalf("session unusable after failover: %v", err)
	}
}

// TestWaitEventsParksUntilEvent verifies the push path end to end: a
// parked WaitEvents is released by the event's commit, well before its
// maxWait, and carries the event.
func TestWaitEventsParksUntilEvent(t *testing.T) {
	_, a, b := watchEnv(t)
	if _, err := a.Create("/we", []byte("v0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.GetW("/we"); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		b.Set("/we", []byte("v1"), -1) //nolint:errcheck
	}()
	start := time.Now()
	evs, err := a.WaitEvents(context.Background(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != EventDataChanged || evs[0].Path != "/we" {
		t.Fatalf("events = %+v", evs)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("parked wait released after %v; want release at event time", elapsed)
	}
}

// TestWaitEventsTimesOutEmpty: no watches, short wait → (nil, nil)
// after roughly maxWait.
func TestWaitEventsTimesOutEmpty(t *testing.T) {
	e := startTestEnsemble(t, 1)
	s := connect(t, e, -1)
	start := time.Now()
	evs, err := s.WaitEvents(context.Background(), 80*time.Millisecond)
	if err != nil || len(evs) != 0 {
		t.Fatalf("WaitEvents = %v, %v; want empty timeout", evs, err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("timed-out wait lasted %v, want ≈80ms", elapsed)
	}
}

// TestWaitEventsCtxCancelReleasesPark: cancelling the context releases
// the client immediately even though the server-side park lives on.
func TestWaitEventsCtxCancelReleasesPark(t *testing.T) {
	e := startTestEnsemble(t, 1)
	s := connect(t, e, -1)
	ctx, cancel := context.WithCancel(context.Background())
	released := make(chan error, 1)
	go func() {
		_, err := s.WaitEvents(ctx, 30*time.Second)
		released <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-released:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled WaitEvents never returned")
	}
}

// TestAsyncOrderIndependence documents the ordering contract: two
// futures are unordered, but chaining on completion restores order.
func TestAsyncOrderIndependence(t *testing.T) {
	e := startTestEnsemble(t, 1)
	s := connect(t, e, -1)
	ctx := context.Background()
	if _, err := s.Begin(ctx, CreateOp("/chain", nil, znode.ModePersistent)).Result(); err != nil {
		t.Fatal(err)
	}
	// Chained: parent resolved before child submitted.
	if _, err := s.Begin(ctx, CreateOp("/chain/kid", nil, znode.ModePersistent)).Result(); err != nil {
		t.Fatal(err)
	}
	// Check-op through the async layer.
	if _, err := s.Begin(ctx, CheckDataOp("/chain/kid", 0, nil)).Result(); err != nil {
		t.Fatalf("async check: %v", err)
	}
	// Sync barrier through the async layer.
	if err := s.Begin(ctx, Op{Kind: OpSync}).Err(); err != nil {
		t.Fatalf("async sync: %v", err)
	}
	// Unknown kind resolves, with an error.
	if err := s.Begin(ctx, Op{Kind: OpKind(99)}).Err(); err == nil {
		t.Fatal("unknown op kind resolved nil")
	}
}

// TestWaitEventsSurfacesWatchLoss pins the failover contract: when the
// server holding a session's watches dies, a parked WaitEvents must
// return an ERROR promptly — not silently re-park on the failover
// server (which holds none of the caller's watches) until maxWait.
func TestWaitEventsSurfacesWatchLoss(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, 0)
	if _, err := s.Create("/wl", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetW("/wl"); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := s.WaitEvents(context.Background(), 30*time.Second)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the long-poll park
	e.Servers[0].Stop()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("WaitEvents returned nil after its server died; watch loss was masked")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitEvents still parked 5s after its server died")
	}
	// The session itself fails over for regular operations.
	if _, err := s.Create("/wl2", nil, znode.ModePersistent); err != nil {
		t.Fatalf("session did not fail over: %v", err)
	}
}

// TestWaitEventsDetectsFailoverBetweenParks covers the generation
// check: the failover happens BETWEEN two WaitEvents calls (a
// concurrent write notices the dead server and redials), so the next
// park starts on a healthy connection — and must still report
// ErrWatchesLost rather than parking on a server that holds none of
// the session's watches.
func TestWaitEventsDetectsFailoverBetweenParks(t *testing.T) {
	e := startTestEnsemble(t, 3)
	home := leaderIndex(t, e) // its loss fails the write over
	s := connect(t, e, home)
	if _, err := s.Create("/bg", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetW("/bg"); err != nil {
		t.Fatal(err)
	}
	// Establish the event stream's connection generation.
	if _, err := s.WaitEvents(context.Background(), 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	e.Servers[home].Stop()
	// A regular write fails over the session to a surviving server.
	if _, err := s.Create("/bg2", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitEvents(context.Background(), time.Second); !errors.Is(err, ErrWatchesLost) {
		t.Fatalf("WaitEvents after silent failover = %v, want ErrWatchesLost", err)
	}
	// Reported once; the stream then resumes on the new server.
	if _, err := s.WaitEvents(context.Background(), 30*time.Millisecond); err != nil {
		t.Fatalf("WaitEvents after loss report = %v, want clean re-park", err)
	}
}

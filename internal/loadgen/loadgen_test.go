package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/transport"
)

// schedule is the arrival offsets Run uses for (arrival, rate,
// duration, seed).
func schedule(arrival Arrival, rate float64, duration time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	var at time.Duration
	for {
		at += arrival.gap(rng, rate)
		if at > duration {
			return out
		}
		out = append(out, at)
	}
}

// fakeClock drives the dispatch loop in virtual time: After advances
// the clock immediately, so a multi-second run executes in
// microseconds while every Op.Arrival stamp carries the exact virtual
// schedule.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	f.t = f.t.Add(d)
	now := f.t
	f.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- now
	return ch
}

// recTarget records every op it receives.
type recTarget struct {
	mu  sync.Mutex
	ops []Op
}

func (r *recTarget) Do(_ context.Context, op Op) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
	return nil
}

func (r *recTarget) snapshot() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.ops...)
}

func TestParseMix(t *testing.T) {
	cases := []struct {
		in      string
		wantErr bool
		want    string
	}{
		{"create=40,stat=40,readdir=10,set=8,multi=2", false, "create=40,stat=40,readdir=10,set=8,multi=2"},
		{"create:1,stat:1", false, "create=1,stat=1"},
		{" create = 3 , readdir = 1 ", false, "create=3,readdir=1"},
		{"create=100", false, "create=100"},
		{"", true, ""},
		{"create=0,stat=0", true, ""},
		{"fsync=10", true, ""},
		{"create=-1", true, ""},
		{"create=x", true, ""},
	}
	for _, c := range cases {
		m, err := ParseMix(c.in)
		if c.wantErr {
			if err == nil {
				t.Fatalf("ParseMix(%q) should fail", c.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseMix(%q): %v", c.in, err)
		}
		if got := m.String(); got != c.want {
			t.Fatalf("ParseMix(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestArrivalRateAccuracy drives the real dispatch loop on a fake
// clock and asserts the generated arrival rate lands within ±5% of the
// offered rate over every 2-second window — the contract that makes
// "offered rate" in a result trustworthy.
func TestArrivalRateAccuracy(t *testing.T) {
	cases := []struct {
		arrival Arrival
		rate    float64
	}{
		{Uniform, 500},
		{Uniform, 2000},
		{Poisson, 500},
		{Poisson, 2000},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%g", c.arrival, c.rate), func(t *testing.T) {
			clk := newFakeClock()
			start := clk.Now()
			tgt := &recTarget{}
			res, err := Run(context.Background(), Config{
				Rate:     c.rate,
				Arrival:  c.arrival,
				Duration: 4 * time.Second,
				Seed:     1,
				Clock:    clk,
			}, []Target{tgt})
			if err != nil {
				t.Fatal(err)
			}
			const window = 2 * time.Second
			counts := make([]int, 2)
			for _, op := range tgt.snapshot() {
				w := int(op.Arrival.Sub(start) / window)
				if w >= 0 && w < len(counts) {
					counts[w]++
				}
			}
			want := c.rate * window.Seconds()
			for w, got := range counts {
				if lo, hi := want*0.95, want*1.05; float64(got) < lo || float64(got) > hi {
					t.Fatalf("window %d: %d arrivals, want %.0f ±5%%", w, got, want)
				}
			}
			if res.Shed != 0 {
				t.Fatalf("unexpected shedding: %d", res.Shed)
			}
			if res.Submitted != res.Completed {
				t.Fatalf("submitted %d != completed %d with an instant target", res.Submitted, res.Completed)
			}
		})
	}
}

// TestMixRatioAdherence checks the generated operation classes track
// the configured weights.
func TestMixRatioAdherence(t *testing.T) {
	mix, err := ParseMix("create=50,stat=30,readdir=10,set=7,multi=3")
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	tgt := &recTarget{}
	_, err = Run(context.Background(), Config{
		Rate:     2000,
		Arrival:  Uniform,
		Duration: 2 * time.Second,
		Mix:      mix,
		Seed:     7,
		Clock:    clk,
	}, []Target{tgt})
	if err != nil {
		t.Fatal(err)
	}
	ops := tgt.snapshot()
	if len(ops) < 3500 {
		t.Fatalf("only %d ops generated", len(ops))
	}
	counts := make(map[OpKind]int)
	for _, op := range ops {
		counts[op.Kind]++
	}
	want := map[OpKind]float64{OpCreate: 0.50, OpStat: 0.30, OpReaddir: 0.10, OpSet: 0.07, OpMulti: 0.03}
	for kind, frac := range want {
		got := float64(counts[kind]) / float64(len(ops))
		if got < frac-0.03 || got > frac+0.03 {
			t.Fatalf("%s fraction = %.3f, want %.2f ±0.03", kind, got, frac)
		}
	}
}

// TestPathLocalityHotFraction checks the locality knob: with
// HotFrac=0.9, ~90% of ops must target directory 0.
func TestPathLocalityHotFraction(t *testing.T) {
	clk := newFakeClock()
	tgt := &recTarget{}
	_, err := Run(context.Background(), Config{
		Rate:     2000,
		Arrival:  Uniform,
		Duration: 2 * time.Second,
		Dirs:     8,
		HotFrac:  0.9,
		Seed:     3,
		Clock:    clk,
	}, []Target{tgt})
	if err != nil {
		t.Fatal(err)
	}
	ops := tgt.snapshot()
	hot := 0
	for _, op := range ops {
		if len(op.Path) >= 6 && op.Path[:6] == "/lg/d0" {
			hot++
		}
	}
	frac := float64(hot) / float64(len(ops))
	// 0.9 hot + 1/8 of the uniform remainder ≈ 0.9125.
	if frac < 0.85 || frac > 0.97 {
		t.Fatalf("hot-dir fraction = %.3f, want ~0.91", frac)
	}
}

// blockTarget parks every op until its context ends.
type blockTarget struct{}

func (blockTarget) Do(ctx context.Context, _ Op) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestGracefulDrainOnCancel cancels a run whose target never
// completes: Run must stop generating, resolve every in-flight op and
// return promptly with a consistent partial result.
func TestGracefulDrainOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, Config{
		Rate:     1000,
		Arrival:  Uniform,
		Duration: 30 * time.Second, // would run half a minute uncancelled
		Seed:     1,
	}, []Target{blockTarget{}})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled run took %v to drain", d)
	}
	if res.Submitted == 0 {
		t.Fatal("nothing was submitted before the cancel")
	}
	if got := res.Completed + res.Errors + res.Timeouts + res.Shed; got != res.Submitted {
		t.Fatalf("accounting leak: %d submitted but %d resolved", res.Submitted, got)
	}
	if res.Completed != 0 {
		t.Fatalf("blocked target completed %d ops", res.Completed)
	}
}

// queueTarget is a single-server queue: ops serialize on one mutex,
// each holding it for service time; op number stallAt holds it for an
// extra stall — the injected hiccup.
type queueTarget struct {
	mu      sync.Mutex
	n       atomic.Int64
	service time.Duration
	stallAt int64
	stall   time.Duration
}

func (q *queueTarget) Do(_ context.Context, _ Op) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	d := q.service
	if q.n.Add(1) == q.stallAt {
		d += q.stall
	}
	time.Sleep(d)
	return nil
}

// TestOpenVsClosedLoopDivergeUnderStall is the regression test that
// documents WHY this harness exists — and guards against the generator
// silently becoming closed-loop. Both loops offer the same rate to an
// identical single-server target with one injected 120ms stall:
//
//   - the OPEN loop keeps arriving during the stall, so every queued
//     arrival observes the stall plus its queueing delay — the p99
//     crosses the stall;
//   - the CLOSED loop stops offering while its one op is stuck, skips
//     the missed arrivals, and measures from issue time — only the
//     stalled op itself looks slow, the p99 stays low, and part of the
//     offered load silently evaporates.
//
// If the open-loop generator ever starts waiting for completions, its
// p99 collapses to the closed-loop value and this test fails.
func TestOpenVsClosedLoopDivergeUnderStall(t *testing.T) {
	const (
		rate     = 150.0
		duration = 1200 * time.Millisecond
		service  = 3 * time.Millisecond
		stall    = 120 * time.Millisecond
	)
	mix, err := ParseMix("stat=1") // kind is irrelevant to the queue
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rate:     rate,
		Arrival:  Uniform,
		Duration: duration,
		Mix:      mix,
		Seed:     1,
	}
	mkTarget := func() *queueTarget {
		return &queueTarget{service: service, stallAt: 30, stall: stall}
	}
	open, err := Run(context.Background(), cfg, []Target{mkTarget()})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := RunClosed(context.Background(), cfg, []Target{mkTarget()})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("open:   %s", open)
	t.Logf("closed: %s", closed)

	half := stall / 2
	if got := open.Latency.P99(); got < half {
		t.Fatalf("open-loop p99 = %v, want > %v: the generator is no longer observing queueing delay — did it become closed-loop?", got, half)
	}
	if got := closed.Latency.P99(); got > half {
		t.Fatalf("closed-loop p99 = %v, want < %v (only one op should see the stall)", got, half)
	}
	// The closed loop silently sheds offered arrivals during the stall.
	if closed.Submitted >= open.Submitted-5 {
		t.Fatalf("closed loop submitted %d vs open %d: expected it to shed offered load during the stall", closed.Submitted, open.Submitted)
	}
	// The open loop must offer (submit) everything in the schedule.
	scheduled := int64(len(schedule(cfg.Arrival, cfg.Rate, cfg.Duration, cfg.Seed)))
	if open.Submitted != scheduled {
		t.Fatalf("open loop submitted %d of %d scheduled arrivals", open.Submitted, scheduled)
	}
}

// TestClientTargetAgainstEnsemble runs the whole harness — Prepare,
// open-loop run over the async client, VerifyAcked — against a real
// 3-server in-process ensemble.
func TestClientTargetAgainstEnsemble(t *testing.T) {
	net := transport.NewInProc()
	ens, err := coord.StartEnsemble(coord.EnsembleConfig{
		Servers:           3,
		Net:               net,
		AddrPrefix:        "loadgen-it",
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ens.Stop()

	cfg := Config{
		Rate:       400,
		Arrival:    Poisson,
		Duration:   700 * time.Millisecond,
		Dirs:       4,
		Keys:       8,
		OpTimeout:  5 * time.Second,
		Seed:       42,
		TrackAcked: true,
	}
	prep, err := ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	defer prep.Close()
	if err := Prepare(context.Background(), prep, cfg); err != nil {
		t.Fatal(err)
	}

	var targets []Target
	for i := 0; i < 2; i++ {
		sess, err := ens.Connect(i)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		targets = append(targets, NewClientTarget(sess))
	}
	res, err := Run(context.Background(), cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
	if res.Completed == 0 {
		t.Fatal("no operations completed")
	}
	if res.Errors > 0 || res.Timeouts > 0 {
		t.Fatalf("healthy ensemble produced %d errors, %d timeouts", res.Errors, res.Timeouts)
	}
	if res.AckedWrites != int64(len(res.AckedPaths)) {
		t.Fatalf("acked counter %d != tracked paths %d", res.AckedWrites, len(res.AckedPaths))
	}
	missing, err := VerifyAcked(context.Background(), prep, res.AckedPaths)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Fatalf("%d acknowledged writes missing: %v", len(missing), missing[:1])
	}
}

package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(30*time.Microsecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Microsecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30*time.Microsecond {
		t.Fatalf("end = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	hits := 0
	e.Schedule(time.Millisecond, func() {
		hits++
		e.Schedule(time.Millisecond, func() {
			hits++
		})
	})
	end := e.Run()
	if hits != 2 || end != 2*time.Millisecond {
		t.Fatalf("hits=%d end=%v", hits, end)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	if e.Run() != 0 || !ran {
		t.Fatal("negative delay mishandled")
	}
}

func TestSingleServerResourceSerializes(t *testing.T) {
	var e Engine
	r := NewResource(&e, 1)
	var completions []time.Duration
	for i := 0; i < 3; i++ {
		r.Acquire(10*time.Millisecond, func() {
			completions = append(completions, e.Now())
		})
	}
	e.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions = %v", completions)
		}
	}
	if r.Served != 3 {
		t.Fatalf("served = %d", r.Served)
	}
}

func TestMultiServerResourceParallelizes(t *testing.T) {
	var e Engine
	r := NewResource(&e, 3)
	done := 0
	for i := 0; i < 3; i++ {
		r.Acquire(10*time.Millisecond, func() { done++ })
	}
	end := e.Run()
	if end != 10*time.Millisecond || done != 3 {
		t.Fatalf("end=%v done=%d", end, done)
	}
}

func TestResourceThroughputMatchesTheory(t *testing.T) {
	// Closed loop: 8 clients on a 1-server station with 100µs service
	// must sustain ~10k ops/sec of virtual time.
	var e Engine
	r := NewResource(&e, 1)
	const perClient = 500
	total := 0
	var loop func(left int)
	loop = func(left int) {
		if left == 0 {
			return
		}
		r.Acquire(100*time.Microsecond, func() {
			total++
			loop(left - 1)
		})
	}
	for c := 0; c < 8; c++ {
		loop(perClient)
	}
	end := e.Run()
	if total != 8*perClient {
		t.Fatalf("total = %d", total)
	}
	thr := float64(total) / end.Seconds()
	if thr < 9900 || thr > 10100 {
		t.Fatalf("throughput = %.0f ops/s, want ~10000", thr)
	}
	if u := float64(r.Busy) / float64(end); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %f", u)
	}
}

func TestGroupCommitBatchesUnderLoad(t *testing.T) {
	var e Engine
	g := NewGroupCommit(&e, 5*time.Millisecond, 0)
	done := 0
	// 10 requests arrive while the first flush is busy: flush 1 has 1
	// request, flush 2 has the other 9.
	g.Commit(func() { done++ })
	for i := 0; i < 9; i++ {
		e.Schedule(time.Millisecond, func() {
			g.Commit(func() { done++ })
		})
	}
	end := e.Run()
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
	if g.Flushes != 2 {
		t.Fatalf("flushes = %d, want 2", g.Flushes)
	}
	if end != 10*time.Millisecond {
		t.Fatalf("end = %v", end)
	}
	if ab := float64(g.Committed) / float64(g.Flushes); ab != 5 {
		t.Fatalf("avg batch = %f", ab)
	}
}

func TestGroupCommitMaxBatch(t *testing.T) {
	var e Engine
	g := NewGroupCommit(&e, time.Millisecond, 2)
	done := 0
	for i := 0; i < 5; i++ {
		g.Commit(func() { done++ })
	}
	e.Run()
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	// 5 requests, batch cap 2: ceil(5/2)=3 flushes... the first flush
	// starts immediately with only what is queued (all 5 arrived at
	// t=0, so batches are 2,2,1).
	if g.Flushes != 3 {
		t.Fatalf("flushes = %d, want 3", g.Flushes)
	}
}

func TestGroupCommitLatencyBoundAtLowLoad(t *testing.T) {
	// One client issuing serially: every request pays the full flush
	// latency — the "Lustre is fine at small scale, ZooKeeper is not"
	// effect in miniature.
	var e Engine
	g := NewGroupCommit(&e, 3*time.Millisecond, 0)
	count := 0
	var loop func(left int)
	loop = func(left int) {
		if left == 0 {
			return
		}
		g.Commit(func() {
			count++
			loop(left - 1)
		})
	}
	loop(10)
	end := e.Run()
	if count != 10 || end != 30*time.Millisecond {
		t.Fatalf("count=%d end=%v", count, end)
	}
}

// arrivalsAt returns the arrival offsets of an open-loop source at rate
// per second over horizon: evenly spaced, or Poisson from seed.
func arrivalsAt(rate float64, horizon time.Duration, poisson bool, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	var at time.Duration
	for {
		gap := 1.0
		if poisson {
			gap = rng.ExpFloat64()
		}
		at += time.Duration(gap / rate * float64(time.Second))
		if at > horizon {
			return out
		}
		out = append(out, at)
	}
}

// openLoop offers one request per arrival to station, each needing
// service, runs eng to completion and returns every request's sojourn
// (wait + service) in arrival order, and the time the last completed.
func openLoop(eng *Engine, station *Resource, arrivals []time.Duration, service time.Duration) ([]time.Duration, time.Duration) {
	sojourns := make([]time.Duration, len(arrivals))
	for i, at := range arrivals {
		i, at := i, at
		eng.Schedule(at, func() {
			station.Acquire(service, func() { sojourns[i] = eng.Now() - at })
		})
	}
	return sojourns, eng.Run()
}

// TestOpenLoopMD1Calibration checks the FCFS station against closed-
// form queueing theory: an M/D/1 queue at utilization rho has mean
// wait rho*S/(2*(1-rho)), so mean sojourn at rho=0.5 is exactly 1.5*S.
// If this drifts, every model-layer prediction built on Resource is
// suspect.
func TestOpenLoopMD1Calibration(t *testing.T) {
	const (
		rate    = 1000.0 // arrivals/s
		service = 500 * time.Microsecond
		rho     = 0.5
		horizon = 120 * time.Second
	)
	if got := rate * service.Seconds(); math.Abs(got-rho) > 1e-9 {
		t.Fatalf("test misconfigured: rho = %v, want %v", got, rho)
	}
	arrivals := arrivalsAt(rate, horizon, true, 42)
	if len(arrivals) < 100000 {
		t.Fatalf("only %d arrivals over %v", len(arrivals), horizon)
	}
	eng := &Engine{}
	station := NewResource(eng, 1)
	sojourns, end := openLoop(eng, station, arrivals, service)
	if station.Served != int64(len(arrivals)) {
		t.Fatalf("served %d of %d", station.Served, len(arrivals))
	}
	var sum time.Duration
	for _, d := range sojourns {
		sum += d
	}
	want := service + time.Duration(rho*float64(service)/(2*(1-rho))) // 1.5*S
	got := sum / time.Duration(len(sojourns))
	if ratio := float64(got) / float64(want); ratio < 0.95 || ratio > 1.05 {
		t.Errorf("M/D/1 mean sojourn %v, theory %v (ratio %.3f)", got, want, ratio)
	}
	if util := float64(station.Busy) / float64(end); util < rho*0.95 || util > rho*1.05 {
		t.Errorf("utilization %.3f, want ~%.2f", util, rho)
	}
}

// A deterministic drumbeat slower than the server never queues: every
// sojourn is exactly the service time.
func TestOpenLoopUniformNoQueueing(t *testing.T) {
	const (
		rate    = 100.0
		service = 2 * time.Millisecond // gap is 10ms, so no overlap
	)
	eng := &Engine{}
	sojourns, _ := openLoop(eng, NewResource(eng, 1), arrivalsAt(rate, 5*time.Second, false, 0), service)
	for i, d := range sojourns {
		if d != service {
			t.Fatalf("request %d sojourn %v, want exactly %v", i, d, service)
		}
	}
}

// Above saturation the open-loop queue grows without bound, so late
// arrivals wait far longer than early ones — the signature a closed
// loop can never show.
func TestOpenLoopOverloadQueueGrows(t *testing.T) {
	const (
		rate    = 1000.0
		service = 1200 * time.Microsecond // rho = 1.2
	)
	eng := &Engine{}
	sojourns, _ := openLoop(eng, NewResource(eng, 1), arrivalsAt(rate, 10*time.Second, false, 0), service)
	first, last := sojourns[0], sojourns[len(sojourns)-1]
	if last < 100*first || last < 500*time.Millisecond {
		t.Errorf("overload did not build a queue: first sojourn %v, final %v", first, last)
	}
	// The final backlog is predictable for deterministic arrivals:
	// excess work accumulates at (rho-1) seconds per second.
	wantLast := time.Duration(0.2 * 10 * float64(time.Second))
	if ratio := float64(last) / float64(wantLast); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("final sojourn %v, want ~%v (ratio %.3f)", last, wantLast, ratio)
	}
}

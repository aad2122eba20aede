package coord

import (
	"fmt"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// writeAllocBudget is the end-to-end allocation ceiling for one write
// on a single-node ensemble: client encode (pooled writer), propose,
// group-commit apply, reply decode. The mechanical-sympathy pass
// landed at 10 allocations per write (seed: 22); the reply's zxid
// trailer costs one more (12 today) — the one copy of the state-machine
// result the dedup window also holds. The budget leaves headroom for
// toolchain drift while still catching a regression that reintroduces a
// per-write allocation source (an unpooled buffer, a hot-path closure, a
// queue that bleeds capacity).
const writeAllocBudget = 14

// TestWriteAllocBudget pins the write path's allocation count. It
// measures the full client→server→apply→reply loop, so a regression
// anywhere on the hot path shows up here with an exact number.
func TestWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// The default MaxLogEntries, not startTestEnsemble's 256: at 256 a
	// fuzzy snapshot of the whole tree fires every ~200 writes, and its
	// walk would be billed to the write path this test pins.
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           1,
		Net:               transport.NewInProc(),
		AddrPrefix:        "allocprobe",
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	s := connect(t, e, 0)
	if _, err := s.Create("/ap", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 200000)
	for i := range paths {
		paths[i] = fmt.Sprintf("/ap/n%d", i)
	}
	i := 0
	n := testing.AllocsPerRun(5000, func() {
		if _, err := s.Create(paths[i], nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("allocs per write: %v (budget %d)", n, writeAllocBudget)
	if n > writeAllocBudget {
		t.Fatalf("write path allocates %v per op, budget is %d", n, writeAllocBudget)
	}
}

// writeWakeupBudget is the ceiling on sampled scheduler wake-ups per
// replicated write over TCP loopback (TestWriteWakeupBudget). Waking
// only the goroutine whose condition changed, applying on the
// goroutine that commits and serving each request on the goroutine
// that read it took the figure from 12.5 to 8.7 on a 2-vCPU box.
const writeWakeupBudget = 10.0

// TestWriteWakeupBudget pins how many goroutine wake-ups a write costs
// end to end on a three-voter ensemble over TCP loopback, with durable
// members as cmd/coordd runs them: one leader-homed and one
// follower-homed session each send sequential creates, and the count
// is the growth of the runtime's /sched/latencies:seconds histogram per
// write. The runtime does not record every wake-up: it marks one in
// eight of a goroutine's transitions out of running (a block, or a
// syscall) and records the latency when that goroutine next runs, so
// the figure is a sample — about an eighth of the transitions — steady
// enough at this write count to catch a hand-off, a spurious broadcast
// or an extra syscall coming back.
func TestWriteWakeupBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation reschedules goroutines")
	}
	ports := map[string]string{}
	e, err := StartEnsemble(EnsembleConfig{
		Servers: 3,
		Net:     transport.TCP{},
		AddrFor: func(id uint64, kind string) string {
			key := fmt.Sprint(kind, id)
			if ports[key] == "" {
				ports[key] = pickFreePort(t)
			}
			return ports[key]
		},
		HeartbeatInterval: 50 * time.Millisecond,
		ElectionTimeout:   time.Second,
		MaxLogEntries:     1 << 20,
		DataDir:           t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	leader := -1
	for i, s := range e.Servers {
		if s.IsLeader() {
			leader = i
		}
	}
	const writes = 3000
	for _, home := range []struct {
		name  string
		index int
	}{{"leader-homed", leader}, {"follower-homed", (leader + 1) % 3}} {
		s := connect(t, e, home.index)
		dir := "/" + home.name
		if _, err := s.Create(dir, nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		paths := make([]string, 2*writes)
		for i := range paths {
			paths[i] = fmt.Sprintf("%s/n%d", dir, i)
		}
		// The first half warms up: worker goroutines exist, stacks have
		// grown and the follower-homed session has found the leader.
		for _, p := range paths[:writes] {
			if _, err := s.Create(p, nil, znode.ModePersistent); err != nil {
				t.Fatal(err)
			}
		}
		before := schedSamples()
		for _, p := range paths[writes:] {
			if _, err := s.Create(p, nil, znode.ModePersistent); err != nil {
				t.Fatal(err)
			}
		}
		per := float64(schedSamples()-before) / writes
		t.Logf("%s: %.2f sampled wake-ups per write (budget %.1f)", home.name, per, writeWakeupBudget)
		if per > writeWakeupBudget {
			t.Errorf("%s: a write costs %.2f sampled wake-ups, budget is %.1f", home.name, per, writeWakeupBudget)
		}
	}
}

// schedSamples is the sample count of the runtime's scheduling-latency
// histogram.
func schedSamples() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

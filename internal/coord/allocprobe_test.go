//go:build !race

// The race detector's instrumentation allocates and reschedules
// goroutines, so the budgets in this file are not built with -race.

package coord

import (
	"context"
	"fmt"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// allocRuns is how many ops an allocation budget averages over. At
// 5 000 back-to-back in-process ops the count is the same integer run
// after run: what a background heartbeat allocates meanwhile is lost
// in the average's rounding.
const allocRuns = 5000

// TestWriteAllocBudget pins the allocation count of one op of each
// shape a session sends, end to end on a single-node ensemble: client
// encode (pooled writer), dispatch, propose and group-commit apply for
// a write, the tree read for a read, reply decode. The mechanical-
// sympathy pass took a create from 22 allocations to 10; the zxid on
// every reply and the stamp on every request brought it to 12. Each
// budget sits two above its count: headroom for toolchain drift that
// still catches a regression which reintroduces a per-op allocation
// source (an unpooled buffer, a hot-path closure, a queue that bleeds
// capacity).
func TestWriteAllocBudget(t *testing.T) {
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
	if _, err := s.Create("/ap", []byte("payload"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	// Every create gets a fresh path, formatted before the count starts.
	paths := make([]string, 4*allocRuns)
	for i := range paths {
		paths[i] = fmt.Sprintf("/ap/n%d", i)
	}
	next := 0
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"create", 14, func() error {
			next++
			_, err := s.Create(paths[next], nil, znode.ModePersistent)
			return err
		}},
		{"get", 7, func() error {
			_, _, err := s.Get("/ap")
			return err
		}},
		{"exists", 6, func() error {
			_, _, err := s.Exists("/ap")
			return err
		}},
		{"begin-create", 20, func() error {
			next++
			_, err := s.Begin(ctx, CreateOp(paths[next], nil, znode.ModePersistent)).Result()
			return err
		}},
	} {
		n := testing.AllocsPerRun(allocRuns, func() {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs per op (budget %v)", c.name, n, c.budget)
		if n > c.budget {
			t.Errorf("%s allocates %v per op, budget is %v", c.name, n, c.budget)
		}
	}
}

// writeWakeupBudget is the ceiling on sampled scheduler wake-ups per
// replicated write over TCP loopback (TestWriteWakeupBudget). Waking
// only the goroutine whose condition changed, applying on the
// goroutine that commits and serving each request on the goroutine
// that read it took the figure from 12.5 to 8.7 on a 2-vCPU box;
// sending the empty commit window only to a follower that waits for it
// took it to 6.2 for both sessions.
const writeWakeupBudget = 7.5

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

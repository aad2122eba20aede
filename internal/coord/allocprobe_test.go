package coord

import (
	"fmt"
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

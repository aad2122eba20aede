//go:build !race

// Allocation counts are meaningless under the race detector's
// instrumentation, so this file is not built with -race.

package shard

import (
	"fmt"
	"testing"

	"repro/internal/coord/znode"
)

// TestRouterAllocBudget pins what the router adds to a session's
// allocations (internal/coord's TestWriteAllocBudget): the routed
// create and get of one op each, through Do and the owner's typed form,
// on single-node ensembles. AllocsPerRun's uncounted warm-up call
// writes the ancestor stub, so every counted create takes the one-call
// path. Each budget sits two above its count, as the session's do.
func TestRouterAllocBudget(t *testing.T) {
	const runs = 5000
	r, _, _ := startSharded(t, 2, 1)
	if _, err := r.Create("/ap", []byte("payload"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, runs+1) // the warm-up call plus the counted runs
	for i := range paths {
		paths[i] = fmt.Sprintf("/ap/n%d", i)
	}
	next := 0
	for _, c := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"create", 15, func() error {
			_, err := r.Create(paths[next], nil, znode.ModePersistent)
			next++
			return err
		}},
		{"get", 8, func() error {
			_, _, err := r.Get("/ap")
			return err
		}},
	} {
		n := testing.AllocsPerRun(runs, func() {
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

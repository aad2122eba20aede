//go:build !race

package core

import (
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// allocRuns is how many ops an allocation budget averages over, as in
// internal/coord's TestWriteAllocBudget: at this count a background
// heartbeat's allocations vanish in the average's rounding.
const allocRuns = 5000

// TestDUFSAllocBudget pins the allocation count of each vfs op shape
// the benchmark's metadata workloads send, end to end through DUFS on a
// single-node in-process ensemble over memfs: path cleaning, the
// coordination round trip (internal/coord's budgets are inside these),
// node decode, FID path and the back-end call. Each budget sits two
// above its count. The race detector's instrumentation allocates, so
// the test is built without it.
func TestDUFSAllocBudget(t *testing.T) {
	env := newEnv(t, 1, 1)
	d := env.newDUFS(t, "/alloc")
	if err := d.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := vfs.WriteFile(d, fmt.Sprintf("/dir/f%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun calls each op once more than it counts.
	paths := make([]string, allocRuns+1)
	for i := range paths {
		paths[i] = fmt.Sprintf("/dir/n%d", i)
	}
	var created, unlinked, renamed int
	for _, c := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"stat-file", 9, func() error {
			_, err := d.Stat("/dir/f07")
			return err
		}},
		{"stat-dir", 8, func() error {
			_, err := d.Stat("/dir")
			return err
		}},
		{"open-close", 10, func() error {
			h, err := d.Open("/dir/f07", vfs.OpenRead)
			if err != nil {
				return err
			}
			return h.Close()
		}},
		{"readdir-64", 85, func() error {
			_, err := d.Readdir("/dir")
			return err
		}},
		{"create-close", 26, func() error {
			h, err := d.Create(paths[created], 0o644)
			created++
			if err != nil {
				return err
			}
			return h.Close()
		}},
		{"unlink", 27, func() error {
			err := d.Unlink(paths[unlinked])
			unlinked++
			return err
		}},
		{"rename", 40, func() error {
			renamed++
			return d.Rename(fmt.Sprintf("/dir/f%02d", 7+renamed%2), fmt.Sprintf("/dir/f%02d", 8-renamed%2))
		}},
		{"chmod-dir", 28, func() error { return d.Chmod("/dir", 0o700) }},
		{"chmod-file", 20, func() error { return d.Chmod("/dir/f09", 0o600) }},
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

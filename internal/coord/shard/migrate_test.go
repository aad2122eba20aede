package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/znode"
	"repro/internal/placement"
)

// migrateByHand drives the fence/ship/replay/flip protocol directly
// against per-shard sessions and publishes the bumped placement table,
// returning the new epoch. It is the router-side test double for the
// migrate coordinator: the router under test must discover the move
// purely through the redirect protocol.
func migrateByHand(t *testing.T, r *Router, direct []*coord.Session, rng placement.Range, src, dest int) uint64 {
	t.Helper()
	ctx := context.Background()

	next, err := r.PlacementTable().WithMove(rng, dest)
	if err != nil {
		t.Fatal(err)
	}
	epoch := next.Epoch()

	pre, err := direct[src].RangeExport(ctx, rng, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := direct[dest].ImportRange(ctx, rng, pre.Entries, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := direct[src].FenceRange(ctx, rng, dest, epoch); err != nil {
		t.Fatal(err)
	}
	delta, err := direct[src].RangeExport(ctx, rng, pre.Zxid, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := direct[dest].ImportRange(ctx, rng, delta.Entries, true, delta.Manifest); err != nil {
		t.Fatal(err)
	}
	if _, err := direct[src].RangeMoved(ctx, rng, dest, epoch); err != nil {
		t.Fatal(err)
	}
	// Publish the bumped table on shard 0 (where the router reads it).
	if _, err := direct[0].Create(coord.PlacementPrefix, nil, znode.ModePersistent); err != nil && !isExists(err) {
		t.Fatal(err)
	}
	if _, err := direct[0].Create(coord.PlacementTablePath, next.Encode(), znode.ModePersistent); err != nil {
		if !isExists(err) {
			t.Fatal(err)
		}
		if _, err := direct[0].Set(coord.PlacementTablePath, next.Encode(), -1); err != nil {
			t.Fatal(err)
		}
	}
	return epoch
}

func isExists(err error) bool {
	return errors.Is(err, coord.ErrNodeExists)
}

// TestRouterChasesMovedPartition pins the redirect contract end to
// end: a router still holding the epoch-0 table writes into a range
// that has migrated, gets the moved redirect, refreshes its table once
// and lands the write on the new owner — the caller sees only success.
func TestRouterChasesMovedPartition(t *testing.T) {
	r, _, direct := startSharded(t, 2, 3)

	if _, err := r.Create("/mig", []byte("dir"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("/mig/a", []byte("v0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	src := r.ShardFor("/mig/a")
	dest := 1 - src
	rng := placement.RangeForKey("/mig")

	epoch := migrateByHand(t, r, direct, rng, src, dest)

	// The router has not been told anything: its first write into the
	// moved range must chase the redirect and succeed.
	if r.PlacementTable().Epoch() != 0 {
		t.Fatalf("router epoch = %d before any op", r.PlacementTable().Epoch())
	}
	if _, err := r.Create("/mig/b", []byte("new"), znode.ModePersistent); err != nil {
		t.Fatalf("create into moved range: %v", err)
	}
	if r.PlacementTable().Epoch() != epoch {
		t.Fatalf("router epoch = %d after chase, want %d", r.PlacementTable().Epoch(), epoch)
	}
	// One hop: the refreshed table routes the range to dest directly.
	if got := r.ShardFor("/mig/b"); got != dest {
		t.Fatalf("post-chase ShardFor = %d, want %d", got, dest)
	}
	// Pre-migration data reads back through the new owner.
	if data, _, err := r.Get("/mig/a"); err != nil || string(data) != "v0" {
		t.Fatalf("read after migration = %q, %v", data, err)
	}
	if kids, err := r.Children("/mig"); err != nil || len(kids) != 2 {
		t.Fatalf("children after migration = %v, %v", kids, err)
	}
	// The moved copy actually left the source.
	if _, _, err := direct[src].Get("/mig/a"); err == nil {
		t.Fatal("source still serves the moved node")
	}
}

// TestRouterWaitsOutFence pins the transient half of the redirect
// contract: a write bouncing off a fenced range retries in place and
// succeeds once the fence lifts, without surfacing ErrFenced.
func TestRouterWaitsOutFence(t *testing.T) {
	r, _, direct := startSharded(t, 2, 3)

	if _, err := r.Create("/mig", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("/mig/a", []byte("v0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	src := r.ShardFor("/mig/a")
	rng := placement.RangeForKey("/mig")
	ctx := context.Background()

	if _, err := direct[src].FenceRange(ctx, rng, 1-src, 1); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		_ = direct[src].UnfenceRange(ctx, rng)
	}()
	start := time.Now()
	if _, err := r.Set("/mig/a", []byte("v1"), -1); err != nil {
		t.Fatalf("set across fence window: %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("set returned before the fence could have lifted")
	}
	if data, _, err := r.Get("/mig/a"); err != nil || string(data) != "v1" {
		t.Fatalf("read back = %q, %v", data, err)
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend/backendtest"
	"repro/internal/coord"
	"repro/internal/metrics"
	"repro/internal/vfs"
)

func newCached(t *testing.T, env *testEnv, zroot string) *Cached {
	t.Helper()
	d := env.newDUFS(t, zroot)
	c := NewCached(d, metrics.NewRegistry())
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCachedConformance(t *testing.T) {
	// The cached wrapper must be indistinguishable from plain DUFS for
	// single-client semantics.
	i := 0
	backendtest.Run(t, func(t *testing.T) vfs.FileSystem {
		env := newEnv(t, 3, 2)
		i++
		return newCached(t, env, fmt.Sprintf("/cconf%d", i))
	}, backendtest.Options{})
}

func TestCachedStatHitsAfterWarmup(t *testing.T) {
	env := newEnv(t, 1, 1)
	c := newCached(t, env, "/chit")
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/d"); err != nil { // cold: miss + watch
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Stat("/d"); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := c.CacheStats()
	if hits < 10 {
		t.Fatalf("hits = %d, want >= 10 (misses=%d)", hits, misses)
	}
}

func TestCachedInvalidatedByOtherClient(t *testing.T) {
	// The coherence property: another client's chmod must invalidate
	// this client's cached directory stat via the watch, without any
	// TTL.
	env := newEnv(t, 3, 2)
	a := newCached(t, env, "/coh")
	b := env.newDUFS(t, "/coh")

	if err := a.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	fi, err := a.Stat("/d")
	if err != nil || fi.Mode&vfs.PermMask != 0o755 {
		t.Fatalf("initial stat = %+v, %v", fi, err)
	}
	if err := b.Chmod("/d", 0o700); err != nil {
		t.Fatal(err)
	}
	// The watch fires on a's server when the commit applies; the
	// poller then drops the entry. Poll until the new mode shows.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fi, err := a.Stat("/d")
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode&vfs.PermMask == 0o700 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cached stat never invalidated; still %o", fi.Mode&vfs.PermMask)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCachedListingInvalidatedByRemoteCreate(t *testing.T) {
	env := newEnv(t, 3, 2)
	a := newCached(t, env, "/clist")
	b := env.newDUFS(t, "/clist")

	if err := a.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	es, err := a.Readdir("/dir")
	if err != nil || len(es) != 0 {
		t.Fatalf("initial readdir = %v, %v", es, err)
	}
	if err := b.Mkdir("/dir/new", 0o755); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		es, err := a.Readdir("/dir")
		if err != nil {
			t.Fatal(err)
		}
		if len(es) == 1 && es[0].Name == "new" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cached listing never invalidated: %v", es)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCachedCoherentAcrossOneTransactionRename: a file rename is one
// move now, and the cached listing of its directory still follows it —
// another client's rename to a new name and over a file through the
// watch on the directory, the mount's own at once.
func TestCachedCoherentAcrossOneTransactionRename(t *testing.T) {
	env := newEnv(t, 3, 2)
	a := newCached(t, env, "/cmv")
	b := env.newDUFS(t, "/cmv")
	if err := a.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"/d/f", "/d/g"} {
		if err := vfs.WriteFile(a, f, []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	names := func() string {
		es, err := a.Readdir("/d")
		if err != nil {
			t.Fatal(err)
		}
		var s string
		for _, e := range es {
			s += e.Name + " "
		}
		return s
	}
	for _, step := range []struct {
		by       vfs.FileSystem
		from, to string
		want     string
	}{
		{b, "/d/f", "/d/h", "g h "},
		{b, "/d/h", "/d/g", "g "},
		{a, "/d/g", "/d/k", "k "},
	} {
		names() // warm the listing
		if err := step.by.Rename(step.from, step.to); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for got := names(); got != step.want; got = names() {
			if step.by == vfs.FileSystem(a) || time.Now().After(deadline) {
				t.Fatalf("after renaming %s to %s the cached listing reads %q, want %q", step.from, step.to, got, step.want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if data, err := vfs.ReadFile(a, "/d/k"); err != nil || string(data) != "/d/f" {
		t.Fatalf("/d/k = %q, %v; want the body first written as /d/f", data, err)
	}
}

func TestCachedOwnWritesVisibleImmediately(t *testing.T) {
	// Local invalidation must not wait for the poller.
	env := newEnv(t, 1, 1)
	c := newCached(t, env, "/own")
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Readdir("/"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d2", 0o755); err != nil {
		t.Fatal(err)
	}
	es, err := c.Readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("own mkdir not visible through cache: %v", es)
	}
	if err := c.Rmdir("/d2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/d2"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("own rmdir not visible: %v", err)
	}
}

func TestCachedFileStatsNeverCached(t *testing.T) {
	// File sizes live on the back-end (§IV-D); the cache must not
	// serve a stale size.
	env := newEnv(t, 1, 1)
	c := newCached(t, env, "/fsize")
	if err := vfs.WriteFile(c, "/f", []byte("1234")); err != nil {
		t.Fatal(err)
	}
	fi, err := c.Stat("/f")
	if err != nil || fi.Size != 4 {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
	if err := c.Truncate("/f", 2); err != nil {
		t.Fatal(err)
	}
	fi, err = c.Stat("/f")
	if err != nil || fi.Size != 2 {
		t.Fatalf("stat after truncate = %+v, %v (file sizes must not be cached)", fi, err)
	}
}

// eventCountingClient is a Do decorator that tells the two kinds of
// traffic a mount can issue apart: operations (Do) and parked event
// waits (WaitEvents — the long-poll stream, which the timed WaitEvent
// form is too).
type eventCountingClient struct {
	coord.Doer
	ops   atomic.Int64
	waits atomic.Int64
}

func (c *eventCountingClient) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	c.ops.Add(1)
	return c.Doer.Do(ctx, op)
}

func (c *eventCountingClient) WaitEvents(ctx context.Context, maxWait time.Duration) ([]coord.Event, error) {
	c.waits.Add(1)
	return c.Doer.WaitEvents(ctx, maxWait)
}

// TestCachedIdleMountIssuesNoPollingRPCs is the push-delivery
// acceptance check: an idle Cached mount keeps exactly one long-poll
// PARKED on the server and issues ZERO other RPCs — where the ticker
// loop this replaced polled ~500 times a second.
func TestCachedIdleMountIssuesNoPollingRPCs(t *testing.T) {
	env := newEnv(t, 1, 1)
	sess, err := env.ens.Connect(-1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	ec := &eventCountingClient{Doer: sess}
	d, err := New(Config{Session: coord.Wrap(ec), Backends: env.backends, ZRoot: "/idle"})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(d, metrics.NewRegistry())
	t.Cleanup(func() { c.Close() })

	// Warm the cache so the mount has live watches, then go idle.
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/d"); err != nil {
		t.Fatal(err)
	}
	ec.ops.Store(0)
	ec.waits.Store(0)
	time.Sleep(400 * time.Millisecond)

	if got := ec.ops.Load(); got != 0 {
		t.Fatalf("idle mount issued %d coordination RPCs, want 0", got)
	}
	// One parked long-poll (the stream) is the entire idle cost; a
	// second may appear if the loop happened to re-park.
	if got := ec.waits.Load(); got > 2 {
		t.Fatalf("idle mount issued %d parked waits in 400ms, want ≤2 (30s park window)", got)
	}

	// The parked stream still delivers: a remote mutation invalidates
	// the cached stat promptly.
	b := env.newDUFS(t, "/idle")
	if err := b.Chmod("/d", 0o700); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		fi, err := c.Stat("/d")
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode&vfs.PermMask == 0o700 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("push stream never invalidated the cached stat; still %o", fi.Mode&vfs.PermMask)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

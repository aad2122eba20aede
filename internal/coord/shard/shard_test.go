package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/znode"
	"repro/internal/transport"
)

var harnessSeq int

// startSharded boots `shards` independent ensembles of `servers` each
// on one in-process network and returns a connected router plus one
// direct per-shard session for white-box inspection.
func startSharded(t *testing.T, shards, servers int) (*Router, []*coord.Ensemble, []*coord.Session) {
	t.Helper()
	harnessSeq++
	net := transport.NewInProc()
	var ensembles []*coord.Ensemble
	var routed []coord.Client
	var direct []*coord.Session
	for s := 0; s < shards; s++ {
		e, err := coord.StartEnsemble(coord.EnsembleConfig{
			Servers:           servers,
			Net:               net,
			AddrPrefix:        fmt.Sprintf("shardtest%d-%d", harnessSeq, s),
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Stop)
		sess, err := e.Connect(-1)
		if err != nil {
			t.Fatal(err)
		}
		routed = append(routed, sess)
		insp, err := e.Connect(-1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { insp.Close() })
		direct = append(direct, insp)
		ensembles = append(ensembles, e)
	}
	r, err := New(routed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, ensembles, direct
}

// TestRoutingDeterministic verifies the placement function is a pure
// function of (path, shard count): two independent routers agree on
// every decision, and all children of one directory map to one shard.
func TestRoutingDeterministic(t *testing.T) {
	mk := func() *Router {
		sessions := make([]coord.Client, 4)
		for i := range sessions {
			sessions[i] = (*coord.Session)(nil) // routing never dereferences
		}
		r, err := New(sessions)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	dirs := []string{"/", "/dufs", "/dufs/a", "/dufs/a/b", "/dufs/deep/er/still"}
	spread := map[int]bool{}
	for _, dir := range dirs {
		want := -1
		for i := 0; i < 32; i++ {
			p := fmt.Sprintf("%s/child%d", dir, i)
			if dir == "/" {
				p = fmt.Sprintf("/child%d", i)
			}
			got := a.ShardFor(p)
			if got != b.ShardFor(p) {
				t.Fatalf("routers disagree on %s: %d vs %d", p, got, b.ShardFor(p))
			}
			if want == -1 {
				want = got
			} else if got != want {
				t.Fatalf("children of %s split across shards %d and %d", dir, want, got)
			}
		}
		spread[a.ShardFor(dir+"/x")] = true
	}
	if len(spread) < 2 {
		t.Fatalf("all %d test directories hashed to one shard; ring is not spreading", len(dirs))
	}
}

// TestChildrenColocation creates a directory tree through a 4-shard
// router and verifies (a) the API behaves like a single ensemble and
// (b) every child znode physically lives on exactly the one shard the
// ring picked — the property that keeps Children a single-shard call.
func TestChildrenColocation(t *testing.T) {
	r, _, direct := startSharded(t, 4, 1)

	if _, err := r.Create("/app", []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	dirs := []string{"/app/logs", "/app/data", "/app/tmp"}
	for _, dir := range dirs {
		if _, err := r.Create(dir, []byte("d"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := r.Create(fmt.Sprintf("%s/f%d", dir, i), []byte("x"), znode.ModePersistent); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, dir := range dirs {
		kids, err := r.Children(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(kids) != 5 {
			t.Fatalf("Children(%s) = %v, want 5 entries", dir, kids)
		}
		home := r.ShardFor(dir + "/f0")
		for i := 0; i < 5; i++ {
			p := fmt.Sprintf("%s/f%d", dir, i)
			if got := r.ShardFor(p); got != home {
				t.Fatalf("%s routed to shard %d, sibling to %d", p, got, home)
			}
			for s, sess := range direct {
				_, ok, err := sess.Exists(p)
				if err != nil {
					t.Fatal(err)
				}
				if ok != (s == home) {
					t.Fatalf("%s on shard %d: exists=%v, want %v", p, s, ok, s == home)
				}
			}
		}
	}

	// An empty directory with no stub on its children shard reads as
	// empty, not absent.
	if _, err := r.Create("/app/empty", []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	kids, err := r.Children("/app/empty")
	if err != nil || len(kids) != 0 {
		t.Fatalf("Children(empty) = %v, %v; want empty, nil", kids, err)
	}
}

// TestCrossShardDelete verifies the router's two-shard delete: a
// directory with children on another shard refuses to die, then
// deletes cleanly (authoritative copy AND stub) once emptied.
func TestCrossShardDelete(t *testing.T) {
	r, _, direct := startSharded(t, 4, 1)
	// Find a directory whose children live on a different shard than
	// the directory entry itself, so both code paths run.
	var dir string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("/d%d", i)
		if r.ShardFor(cand) != r.shardForChildren(cand) {
			dir = cand
			break
		}
	}
	if _, err := r.Create(dir, []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	file := dir + "/f"
	if _, err := r.Create(file, []byte("x"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(dir, -1); err != coord.ErrNotEmpty {
		t.Fatalf("delete of non-empty dir: got %v, want ErrNotEmpty", err)
	}
	if err := r.Delete(file, -1); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(dir, -1); err != nil {
		t.Fatal(err)
	}
	for s, sess := range direct {
		if _, ok, _ := sess.Exists(dir); ok {
			t.Fatalf("shard %d still holds %s after delete", s, dir)
		}
	}
	if _, ok, err := r.Exists(dir); err != nil || ok {
		t.Fatalf("Exists(%s) after delete = %v, %v", dir, ok, err)
	}
}

// TestRouterWatches verifies a data watch set through the router fires
// on the shard that owns the path and surfaces through the merged
// PollEvents stream.
func TestRouterWatches(t *testing.T) {
	r, _, _ := startSharded(t, 2, 1)
	if _, err := r.Create("/w", []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("/w/node", []byte("v1"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.GetW("/w/node"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Set("/w/node", []byte("v2"), -1); err != nil {
		t.Fatal(err)
	}
	evs, err := r.WaitEvent(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Path != "/w/node" {
		t.Fatalf("expected data event for /w/node, got %+v", evs)
	}
}

// TestWatchedReadsHonourTheContext: a watched Get, Exists and Children
// through the router run on the caller's context, so one already
// cancelled fails them with context.Canceled.
func TestWatchedReadsHonourTheContext(t *testing.T) {
	r, _, _ := startSharded(t, 2, 1)
	if _, err := r.Create("/c", []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []coord.OpKind{coord.OpGet, coord.OpExists, coord.OpChildren} {
		if _, err := r.Do(ctx, coord.Op{Kind: kind, Path: "/c", Watch: true}); !errors.Is(err, context.Canceled) {
			t.Errorf("watched op kind %d with a cancelled context: err %v, want context.Canceled", kind, err)
		}
	}
}

// TestChildrenWatchOnStublessDirectory covers the cache-coherence
// corner: a child watch on a directory that exists authoritatively
// but has no stub yet on its children shard must still be a REAL
// watch — the first child create has to fire it.
func TestChildrenWatchOnStublessDirectory(t *testing.T) {
	r, _, _ := startSharded(t, 4, 1)
	// A directory whose entry and children live on different shards,
	// so no stub exists until something forces one.
	var dir string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("/wd%d", i)
		if r.ShardFor(cand) != r.shardForChildren(cand) {
			dir = cand
			break
		}
	}
	if _, err := r.Create(dir, []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	kids, err := r.ChildrenW(dir)
	if err != nil || len(kids) != 0 {
		t.Fatalf("ChildrenW(stubless) = %v, %v; want empty, nil", kids, err)
	}
	if _, err := r.Create(dir+"/first", []byte("x"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	evs, err := r.WaitEvent(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range evs {
		if ev.Path == dir && ev.Type == coord.EventChildrenChanged {
			found = true
		}
	}
	if !found {
		t.Fatalf("child watch never fired; events: %+v", evs)
	}
}

// TestSyncBarrierAcrossShards verifies Sync makes another router's
// committed writes visible whichever shard they landed on.
func TestSyncBarrierAcrossShards(t *testing.T) {
	r1, ensembles, _ := startSharded(t, 3, 1)
	var clients []coord.Client
	for _, e := range ensembles {
		s, err := e.Connect(-1)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, s)
	}
	r2, err := New(clients)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/sync%d", i)
		if _, err := r1.Create(p, []byte("x"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		if err := r2.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := r2.Exists(p); err != nil || !ok {
			t.Fatalf("after sync, %s invisible to r2: ok=%v err=%v", p, ok, err)
		}
	}
}

// TestSingleShardLeaderFailover kills the leader of one shard's
// 3-server ensemble and verifies operations routed to that shard
// fail over within the session retry budget while other shards are
// untouched — the blast radius the sharded design promises.
func TestSingleShardLeaderFailover(t *testing.T) {
	r, ensembles, _ := startSharded(t, 2, 3)
	if _, err := r.Create("/fo", []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	victimShard := r.shardForChildren("/fo")
	leader := ensembles[victimShard].Leader()
	if leader == nil {
		t.Fatal("shard has no leader")
	}
	leader.Stop()
	if err := ensembles[victimShard].WaitLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Create(fmt.Sprintf("/fo/f%d", i), []byte("x"), znode.ModePersistent); err != nil {
			t.Fatalf("create after failover: %v", err)
		}
	}
	kids, err := r.Children("/fo")
	if err != nil || len(kids) != 10 {
		t.Fatalf("Children after failover = %v, %v; want 10 entries", kids, err)
	}
}

// crossShardDirs returns two directory paths whose children live on
// different shards.
func crossShardDirs(t *testing.T, r *Router) (a, b string) {
	t.Helper()
	for i := 0; i < 1024; i++ {
		x := fmt.Sprintf("/xa%d", i)
		y := fmt.Sprintf("/xb%d", i)
		if r.ShardFor(x+"/f") != r.ShardFor(y+"/f") {
			return x, y
		}
	}
	t.Fatal("no cross-shard directory pair found")
	return "", ""
}

// TestRouterAtomic verifies the atomicity predicate: children of one
// directory are always one shard (so a same-directory batch is
// atomic), while a known cross-shard pair is not.
func TestRouterAtomic(t *testing.T) {
	r, _, _ := startSharded(t, 4, 1)
	if !r.Atomic("/d/a", "/d/b", "/d/c") {
		t.Fatal("same-directory paths reported non-atomic")
	}
	if !r.Atomic("/only") {
		t.Fatal("single path must always be atomic")
	}
	a, b := crossShardDirs(t, r)
	if r.Atomic(a+"/f", b+"/f") {
		t.Fatalf("cross-shard pair %s,%s reported atomic", a, b)
	}
}

// TestRouterMultiSingleShardAtomic sends a batch whose paths all hash
// to one shard with a failing check in the middle: nothing may apply,
// exactly as on a single ensemble.
func TestRouterMultiSingleShardAtomic(t *testing.T) {
	r, _, _ := startSharded(t, 4, 1)
	if _, err := r.Create("/app", []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	results, err := r.Multi([]coord.Op{
		coord.CreateOp("/app/a", nil, znode.ModePersistent),
		coord.CheckDataOp("/app/absent", -1, nil),
		coord.CreateOp("/app/b", nil, znode.ModePersistent),
	})
	if !errors.Is(err, coord.ErrNoNode) {
		t.Fatalf("multi err = %v, want ErrNoNode", err)
	}
	if !errors.Is(results[0].Err, coord.ErrRolledBack) || !errors.Is(results[2].Err, coord.ErrRolledBack) {
		t.Fatalf("sibling results = %+v, want ErrRolledBack", results)
	}
	for _, p := range []string{"/app/a", "/app/b"} {
		if _, ok, err := r.Exists(p); err != nil || ok {
			t.Fatalf("%s leaked from aborted single-shard batch (ok=%v err=%v)", p, ok, err)
		}
	}
}

// TestRouterMultiCrossShardSplit documents the split contract: a batch
// spanning two shards executes as two sequential sub-transactions in
// first-appearance order. When the second sub-transaction aborts, the
// first STAYS COMMITTED — the router's Multi is only per-shard atomic
// — and the untouched ops report ErrRolledBack.
func TestRouterMultiCrossShardSplit(t *testing.T) {
	r, _, _ := startSharded(t, 4, 1)
	a, b := crossShardDirs(t, r)
	for _, dir := range []string{a, b} {
		if _, err := r.Create(dir, []byte("d"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	// Shard(a)'s sub-batch commits; shard(b)'s aborts on a bad check.
	results, err := r.Multi([]coord.Op{
		coord.CreateOp(a+"/ok", []byte("x"), znode.ModePersistent),
		coord.CheckDataOp(b+"/absent", -1, nil),
		coord.CreateOp(b+"/never", nil, znode.ModePersistent),
		coord.CreateOp(a+"/ok2", nil, znode.ModePersistent),
	})
	if !errors.Is(err, coord.ErrNoNode) {
		t.Fatalf("split multi err = %v, want ErrNoNode from the failing check", err)
	}
	// First-appearance order: shard(a) ran first and stays committed.
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("committed sub-batch results = %+v, want nil errors", results)
	}
	if _, ok, _ := r.Exists(a + "/ok"); !ok {
		t.Fatalf("%s/ok missing: committed sub-transaction must survive the later abort", a)
	}
	if _, ok, _ := r.Exists(a + "/ok2"); !ok {
		t.Fatalf("%s/ok2 missing: committed sub-transaction must survive the later abort", a)
	}
	// The aborted shard applied nothing.
	if !errors.Is(results[1].Err, coord.ErrNoNode) {
		t.Fatalf("failing op result = %v, want ErrNoNode", results[1].Err)
	}
	if !errors.Is(results[2].Err, coord.ErrRolledBack) {
		t.Fatalf("aborted sibling result = %v, want ErrRolledBack", results[2].Err)
	}
	if _, ok, _ := r.Exists(b + "/never"); ok {
		t.Fatalf("%s/never leaked from aborted sub-transaction", b)
	}
}

// TestRouterMultiStubMaterialisation verifies a batched create on a
// shard that has never seen the parent directory materialises the
// ancestor stub chain and retries, like single-op Create.
func TestRouterMultiStubMaterialisation(t *testing.T) {
	r, _, _ := startSharded(t, 4, 1)
	// Parent created through the router: its znode lives on
	// shard(parent-of-/stub), while its children live on shard(/stub) —
	// which has no stub until a child arrives.
	var dir string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("/stub%d", i)
		if r.ShardFor(cand) != r.shardForChildren(cand) {
			dir = cand
			break
		}
	}
	if _, err := r.Create(dir, []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	results, err := r.Multi([]coord.Op{
		coord.CreateOp(dir+"/a", nil, znode.ModePersistent),
		coord.CreateOp(dir+"/b", nil, znode.ModePersistent),
	})
	if err != nil {
		t.Fatalf("batched create on stubless shard: %v (results %+v)", err, results)
	}
	kids, err := r.Children(dir)
	if err != nil || len(kids) != 2 {
		t.Fatalf("children = %v, %v; want a,b", kids, err)
	}
}

// TestRouterMultiDeleteCrossShardContract verifies batched deletes
// keep Router.Delete's guarantees: a directory with children hosted on
// a DIFFERENT shard refuses to die (the executing shard cannot see
// them), and once empty, a batched delete also removes the stub on the
// children shard so the path does not stay listable.
func TestRouterMultiDeleteCrossShardContract(t *testing.T) {
	r, _, direct := startSharded(t, 4, 1)
	var dir string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("/md%d", i)
		if r.ShardFor(cand) != r.shardForChildren(cand) {
			dir = cand
			break
		}
	}
	if _, err := r.Create(dir, []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(dir+"/kid", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	// Non-empty: the batch must refuse without executing.
	if _, err := r.Multi([]coord.Op{coord.DeleteOp(dir, -1)}); !errors.Is(err, coord.ErrNotEmpty) {
		t.Fatalf("batched delete of non-empty cross-shard dir: %v, want ErrNotEmpty", err)
	}
	if _, ok, _ := r.Exists(dir); !ok {
		t.Fatal("refused batch deleted the directory anyway")
	}
	if _, err := r.Multi([]coord.Op{coord.DeleteOp(dir+"/kid", -1)}); err != nil {
		t.Fatal(err)
	}
	// Empty now: the batched delete must clean the stub too.
	if _, err := r.Multi([]coord.Op{coord.DeleteOp(dir, -1)}); err != nil {
		t.Fatal(err)
	}
	for s, sess := range direct {
		if _, ok, _ := sess.Exists(dir); ok {
			t.Fatalf("shard %d still holds %s after batched delete (ghost stub)", s, dir)
		}
	}
	if _, err := r.ChildrenData(dir); !errors.Is(err, coord.ErrNoNode) {
		t.Fatalf("ChildrenData(%s) after batched delete = %v, want ErrNoNode", dir, err)
	}
}

// TestRouterChildrenData verifies the batched listing through the
// router: entries come from the children shard, the "." self entry is
// present, and a stubless empty directory reads as self-only via the
// authoritative fallback.
func TestRouterChildrenData(t *testing.T) {
	r, _, _ := startSharded(t, 4, 1)
	if _, err := r.Create("/cd", []byte("self"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b", "a"} {
		if _, err := r.Create("/cd/"+name, []byte("v-"+name), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := r.ChildrenData("/cd")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Name != "." {
		t.Fatalf("entries = %+v, want . a b", entries)
	}
	if entries[1].Name != "a" || string(entries[1].Data) != "v-a" ||
		entries[2].Name != "b" || string(entries[2].Data) != "v-b" {
		t.Fatalf("child entries = %+v", entries[1:])
	}

	// Stubless empty directory: ChildrenData on the children shard
	// misses; the authoritative copy supplies the self entry.
	var dir string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("/cde%d", i)
		if r.ShardFor(cand) != r.shardForChildren(cand) {
			dir = cand
			break
		}
	}
	if _, err := r.Create(dir, []byte("lonely"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	entries, err = r.ChildrenData(dir)
	if err != nil || len(entries) != 1 || entries[0].Name != "." || string(entries[0].Data) != "lonely" {
		t.Fatalf("ChildrenData(stubless empty) = %+v, %v; want self-only", entries, err)
	}
	if _, err := r.ChildrenData("/definitely-absent"); !errors.Is(err, coord.ErrNoNode) {
		t.Fatalf("ChildrenData(absent) err = %v, want ErrNoNode", err)
	}
}

// TestStatusAggregates verifies Status sums znode counts across
// shards.
func TestStatusAggregates(t *testing.T) {
	r, _, direct := startSharded(t, 3, 1)
	for i := 0; i < 9; i++ {
		if _, err := r.Create(fmt.Sprintf("/s%d", i), nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.Status()
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, sess := range direct {
		s, err := sess.Status()
		if err != nil {
			t.Fatal(err)
		}
		want += s.Znodes
	}
	if st.Znodes != want {
		t.Fatalf("aggregate Znodes = %d, want %d", st.Znodes, want)
	}
}

// TestRouterEventStreamMergesShards verifies the push fan-in: watches
// firing on DIFFERENT shards all surface through one blocking
// WaitEvents call stream, with no polling sweep.
func TestRouterEventStreamMergesShards(t *testing.T) {
	r, _, _ := startSharded(t, 4, 1)
	// Two watched nodes whose authoritative copies live on different
	// shards: a node's shard is the hash of its parent directory, so
	// pick two directories whose children shards differ and watch one
	// file in each.
	var dirs []string
	for i := 0; len(dirs) < 2; i++ {
		d := fmt.Sprintf("/se%d", i)
		if len(dirs) == 1 && r.shardForChildren(d) == r.shardForChildren(dirs[0]) {
			continue
		}
		dirs = append(dirs, d)
	}
	var paths []string
	for _, d := range dirs {
		if _, err := r.Create(d, []byte("d"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		p := d + "/w"
		if _, err := r.Create(p, []byte("v"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.GetW(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	for _, p := range paths {
		if _, err := r.Set(p, []byte("v2"), -1); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < 2 && time.Now().Before(deadline) {
		evs, err := r.WaitEvent(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.Type == coord.EventDataChanged {
				got[ev.Path] = true
			}
		}
	}
	for _, p := range paths {
		if !got[p] {
			t.Fatalf("event for %s (shard %d) never surfaced; got %v", p, r.ShardFor(p), got)
		}
	}
}

// TestRouterAsyncBeginRoutes drives the router's async layer across
// op kinds, including the create path that needs ancestor-stub
// recovery on the children shard.
func TestRouterAsyncBeginRoutes(t *testing.T) {
	r, _, direct := startSharded(t, 4, 1)
	ctx := context.Background()
	if _, err := r.Create("/ab", []byte("d"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	// A flight of creates under one directory — all on the children
	// shard of /ab, stubs materialised as needed by Begin's routing.
	futs := make([]*coord.Future, 8)
	for i := range futs {
		futs[i] = r.Begin(ctx, coord.CreateOp(fmt.Sprintf("/ab/f%d", i), []byte("x"), znode.ModePersistent))
	}
	for i, f := range futs {
		if res, err := f.Result(); err != nil || res.Created == "" {
			t.Fatalf("future %d: %+v, %v", i, res, err)
		}
	}
	kids, err := r.Children("/ab")
	if err != nil || len(kids) != 8 {
		t.Fatalf("children = %v, %v", kids, err)
	}
	// Async set + check + delete against authoritative copies.
	if _, err := r.Begin(ctx, coord.SetOp("/ab/f0", []byte("y"), -1)).Result(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Begin(ctx, coord.CheckDataOp("/ab/f0", -1, nil)).Result(); err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(ctx, coord.DeleteOp("/ab/f1", -1)).Err(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Exists("/ab/f1"); ok {
		t.Fatal("async delete did not apply")
	}
	// Async sync barrier reaches every shard.
	if err := r.Begin(ctx, coord.Op{Kind: coord.OpSync}).Err(); err != nil {
		t.Fatal(err)
	}
	// Async listing routes to the children shard.
	entries, err := r.BeginChildrenData(ctx, "/ab").Entries()
	if err != nil || len(entries) != 8 { // "." + 7 remaining children
		t.Fatalf("async listing = %d entries, %v", len(entries), err)
	}
	// And the per-shard sessions agree the namespace is consistent.
	total := 0
	for _, s := range direct {
		if kids, err := s.Children("/ab"); err == nil {
			total += len(kids)
		}
	}
	if total != 7 {
		t.Fatalf("shard-wide children = %d, want 7", total)
	}
}

// TestRouterMultiRefusesNonBatchKinds: the router refuses a batch
// carrying a non-batch kind before routing any of it — no shard
// replicates a piece, and an earlier sub-transaction of what would be a
// split batch does not commit. The parent sent it to the shards, which
// replicated it before znode aborted it.
func TestRouterMultiRefusesNonBatchKinds(t *testing.T) {
	r, _, direct := startSharded(t, 2, 1)
	a, b := crossShardDirs(t, r)
	for _, dir := range []string{a, b} {
		if _, err := r.Create(dir, nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	applied := func() (zxids [2]uint64) {
		for i, s := range direct {
			st, err := s.Status()
			if err != nil {
				t.Fatal(err)
			}
			zxids[i] = st.AppliedZxid
		}
		return zxids
	}
	before := applied()
	for _, kind := range []coord.OpKind{coord.OpSync, coord.OpGet, coord.OpMulti} {
		batch := []coord.Op{
			coord.CreateOp(a+"/first", nil, znode.ModePersistent),
			{Kind: kind, Path: b + "/second"},
		}
		if results, err := r.Multi(batch); err == nil || results != nil {
			t.Fatalf("multi carrying kind %d = %+v, %v; want it refused", kind, results, err)
		}
	}
	if after := applied(); after != before {
		t.Fatalf("a refused batch was replicated: applied zxids %x -> %x", before, after)
	}
	if _, ok, err := r.Exists(a + "/first"); err != nil || ok {
		t.Fatalf("the sub-transaction ahead of the refused op committed: %v, %v", ok, err)
	}
}

// TestRouterGuardedCheck sends data-guarded checks through the router
// unchanged. On one shard the batch is DUFS's rmdir — a check guarded on
// the directory's data, then the delete — and keeps the delete's
// cross-shard contract: children on another shard refuse it before it
// runs, a failed guard aborts it with the data it found, and a held one
// deletes the node and its stub. Split across two shards, the failing
// shard's check still reports its data while the other shard's
// sub-transaction stays committed.
func TestRouterGuardedCheck(t *testing.T) {
	r, _, direct := startSharded(t, 4, 1)
	var dir string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("/gd%d", i)
		if r.ShardFor(cand) != r.shardForChildren(cand) {
			dir = cand
			break
		}
	}
	if _, err := r.Create(dir, []byte("dir:0755"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(dir+"/kid", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	rmdir := func(guard string) ([]coord.OpResult, error) {
		return r.Multi([]coord.Op{coord.CheckDataOp(dir, -1, []byte(guard)), coord.DeleteOp(dir, -1)})
	}
	if _, err := rmdir("dir"); !errors.Is(err, coord.ErrNotEmpty) {
		t.Fatalf("guarded delete of a dir with children on another shard: %v, want ErrNotEmpty", err)
	}
	if err := r.Delete(dir+"/kid", -1); err != nil {
		t.Fatal(err)
	}
	results, err := rmdir("file")
	if !errors.Is(err, coord.ErrBadVersion) || string(results[0].Data) != "dir:0755" {
		t.Fatalf("guard mismatch = %v, check data %q; want ErrBadVersion and the dir's data", err, results[0].Data)
	}
	if _, ok, _ := r.Exists(dir); !ok {
		t.Fatal("a batch whose guard failed deleted the directory")
	}
	if results, err = rmdir("dir"); err != nil || string(results[0].Data) != "dir:0755" {
		t.Fatalf("guard held: %v, check data %q", err, results[0].Data)
	}
	for s, sess := range direct {
		if _, ok, _ := sess.Exists(dir); ok {
			t.Fatalf("shard %d still holds %s after the guarded delete", s, dir)
		}
	}

	a, b := crossShardDirs(t, r)
	for _, d := range []string{a, b} {
		if _, err := r.Create(d, []byte("data of "+d), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	results, err = r.Multi([]coord.Op{
		coord.CreateOp(a+"/ok", nil, znode.ModePersistent),
		coord.CheckDataOp(b, -1, []byte("nope")),
		coord.CreateOp(b+"/never", nil, znode.ModePersistent),
	})
	if !errors.Is(err, coord.ErrBadVersion) {
		t.Fatalf("split batch err = %v, want ErrBadVersion", err)
	}
	if results[0].Err != nil || !errors.Is(results[2].Err, coord.ErrRolledBack) {
		t.Fatalf("split results = %+v", results)
	}
	if string(results[1].Data) != "data of "+b {
		t.Fatalf("failing check on the second shard reported %q", results[1].Data)
	}
	if _, ok, _ := r.Exists(a + "/ok"); !ok {
		t.Fatal("the first shard's committed sub-transaction was lost")
	}
	if _, ok, _ := r.Exists(b + "/never"); ok {
		t.Fatal("the aborted sub-transaction applied")
	}
}

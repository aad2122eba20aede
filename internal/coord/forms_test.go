package coord_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/shard"
	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// recorder is a Do decorator that remembers every op it forwards. With
// no Doer behind it it is the scripted fake: every Do answers res, err.
type recorder struct {
	coord.Doer
	res coord.Result
	err error

	mu   sync.Mutex
	ops  []coord.Op
	ctxs []context.Context
}

func (r *recorder) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.ctxs = append(r.ctxs, ctx)
	r.mu.Unlock()
	if r.Doer == nil {
		return r.res, r.err
	}
	return r.Doer.Do(ctx, op)
}

func (r *recorder) WaitEvents(ctx context.Context, maxWait time.Duration) ([]coord.Event, error) {
	if r.Doer == nil {
		return []coord.Event{{Path: fmt.Sprint(maxWait)}}, r.err
	}
	return r.Doer.WaitEvents(ctx, maxWait)
}

// take returns what was recorded since the last take.
func (r *recorder) take() ([]coord.Op, []context.Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops, ctxs := r.ops, r.ctxs
	r.ops, r.ctxs = nil, nil
	return ops, ctxs
}

// one asserts that exactly one Do was issued since the last check, with
// the expected op.
func (r *recorder) one(t *testing.T, form string, want coord.Op) context.Context {
	t.Helper()
	ops, ctxs := r.take()
	if len(ops) != 1 {
		t.Fatalf("%s issued %d Do calls, want exactly 1: %+v", form, len(ops), ops)
	}
	if !reflect.DeepEqual(ops[0], want) {
		t.Fatalf("%s issued Do(%+v), want %+v", form, ops[0], want)
	}
	return ctxs[0]
}

type ctxKey struct{}

// TestClientForms is the conformance table of the one client op model:
// every typed form is exactly one Do with the op spelled out, returns
// the fields of the Result that belong to it, and behaves the same over
// every implementation of Do.
func TestClientForms(t *testing.T) {
	t.Run("Wrap(fake)", testFormsOverFake)

	net := transport.NewInProc()
	boot := func(t *testing.T, tag string) *coord.Ensemble {
		e, err := coord.StartEnsemble(coord.EnsembleConfig{
			Servers:           1,
			Net:               net,
			AddrPrefix:        "forms-" + tag,
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Stop)
		return e
	}
	session := func(t *testing.T, e *coord.Ensemble) *coord.Session {
		s, err := e.Connect(-1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}

	t.Run("Session", func(t *testing.T) {
		s := session(t, boot(t, "session"))
		if s.Forms.Doer != coord.Doer(s) {
			t.Fatal("Session's forms do not run over the session's own Do")
		}
		rec := &recorder{Doer: s}
		s.Forms.Doer = rec
		testFormsBehaviour(t, s, rec)
	})
	t.Run("Router", func(t *testing.T) {
		r, err := shard.New([]coord.Client{session(t, boot(t, "shard0")), session(t, boot(t, "shard1"))})
		if err != nil {
			t.Fatal(err)
		}
		if r.Forms.Doer != coord.Doer(r) {
			t.Fatal("Router's forms do not run over the router's own Do")
		}
		rec := &recorder{Doer: r}
		r.Forms.Doer = rec
		testFormsBehaviour(t, r, rec)
	})
	t.Run("Wrap(decorator)", func(t *testing.T) {
		rec := &recorder{Doer: session(t, boot(t, "wrap"))}
		testFormsBehaviour(t, coord.Wrap(rec), rec)
	})
}

// testFormsOverFake drives all 25 forms over a scripted Doer: each must
// issue one Do with the expected op and context, and hand back exactly
// the Result fields that are its own, with the error.
func testFormsOverFake(t *testing.T) {
	scripted := errors.New("scripted")
	fake := &recorder{
		err: scripted,
		res: coord.Result{
			Created:  "/made",
			Stat:     znode.Stat{Version: 3},
			Data:     []byte("data"),
			Exists:   true,
			Children: []string{"kid"},
			Entries:  []coord.ChildEntry{{Name: "."}},
			Results:  []coord.OpResult{{Created: "/m"}},
		},
	}
	c := coord.Wrap(fake)
	ctx := context.WithValue(context.Background(), ctxKey{}, "mine")
	batch := []coord.Op{coord.CheckDataOp("/p", 1, nil), coord.DeleteOp("/p", 1)}
	res := fake.res

	// Each call returns what the form returned, error last.
	cases := []struct {
		form string
		bg   bool // a context-free form: Do sees the background context
		want coord.Op
		call func() []any
		ret  []any
	}{
		{"CreateCtx", false, coord.Op{Kind: coord.OpCreate, Path: "/p", Data: []byte("d"), Mode: znode.ModeEphemeral},
			func() []any { a, err := c.CreateCtx(ctx, "/p", []byte("d"), znode.ModeEphemeral); return []any{a, err} }, []any{res.Created, scripted}},
		{"Create", true, coord.Op{Kind: coord.OpCreate, Path: "/p", Data: []byte("d"), Mode: znode.ModeEphemeral},
			func() []any { a, err := c.Create("/p", []byte("d"), znode.ModeEphemeral); return []any{a, err} }, []any{res.Created, scripted}},
		{"GetCtx", false, coord.Op{Kind: coord.OpGet, Path: "/p"},
			func() []any { a, b, err := c.GetCtx(ctx, "/p"); return []any{a, b, err} }, []any{res.Data, res.Stat, scripted}},
		{"Get", true, coord.Op{Kind: coord.OpGet, Path: "/p"},
			func() []any { a, b, err := c.Get("/p"); return []any{a, b, err} }, []any{res.Data, res.Stat, scripted}},
		{"SetCtx", false, coord.Op{Kind: coord.OpSet, Path: "/p", Data: []byte("d"), Version: 4},
			func() []any { a, err := c.SetCtx(ctx, "/p", []byte("d"), 4); return []any{a, err} }, []any{res.Stat, scripted}},
		{"Set", true, coord.Op{Kind: coord.OpSet, Path: "/p", Data: []byte("d"), Version: 4},
			func() []any { a, err := c.Set("/p", []byte("d"), 4); return []any{a, err} }, []any{res.Stat, scripted}},
		{"DeleteCtx", false, coord.Op{Kind: coord.OpDelete, Path: "/p", Version: 4},
			func() []any { return []any{c.DeleteCtx(ctx, "/p", 4)} }, []any{scripted}},
		{"Delete", true, coord.Op{Kind: coord.OpDelete, Path: "/p", Version: 4},
			func() []any { return []any{c.Delete("/p", 4)} }, []any{scripted}},
		{"ExistsCtx", false, coord.Op{Kind: coord.OpExists, Path: "/p"},
			func() []any { a, b, err := c.ExistsCtx(ctx, "/p"); return []any{a, b, err} }, []any{res.Stat, res.Exists, scripted}},
		{"Exists", true, coord.Op{Kind: coord.OpExists, Path: "/p"},
			func() []any { a, b, err := c.Exists("/p"); return []any{a, b, err} }, []any{res.Stat, res.Exists, scripted}},
		{"ChildrenCtx", false, coord.Op{Kind: coord.OpChildren, Path: "/p"},
			func() []any { a, err := c.ChildrenCtx(ctx, "/p"); return []any{a, err} }, []any{res.Children, scripted}},
		{"Children", true, coord.Op{Kind: coord.OpChildren, Path: "/p"},
			func() []any { a, err := c.Children("/p"); return []any{a, err} }, []any{res.Children, scripted}},
		{"MultiCtx", false, coord.Op{Kind: coord.OpMulti, Ops: batch},
			func() []any { a, err := c.MultiCtx(ctx, batch); return []any{a, err} }, []any{res.Results, scripted}},
		{"Multi", true, coord.Op{Kind: coord.OpMulti, Ops: batch},
			func() []any { a, err := c.Multi(batch); return []any{a, err} }, []any{res.Results, scripted}},
		{"ChildrenDataCtx", false, coord.Op{Kind: coord.OpChildrenData, Path: "/p"},
			func() []any { a, err := c.ChildrenDataCtx(ctx, "/p"); return []any{a, err} }, []any{res.Entries, scripted}},
		{"ChildrenData", true, coord.Op{Kind: coord.OpChildrenData, Path: "/p"},
			func() []any { a, err := c.ChildrenData("/p"); return []any{a, err} }, []any{res.Entries, scripted}},
		{"SyncCtx", false, coord.Op{Kind: coord.OpSync},
			func() []any { return []any{c.SyncCtx(ctx)} }, []any{scripted}},
		{"Sync", true, coord.Op{Kind: coord.OpSync},
			func() []any { return []any{c.Sync()} }, []any{scripted}},
		{"GetW", true, coord.Op{Kind: coord.OpGet, Path: "/p", Watch: true},
			func() []any { a, b, err := c.GetW("/p"); return []any{a, b, err} }, []any{res.Data, res.Stat, scripted}},
		{"ExistsW", true, coord.Op{Kind: coord.OpExists, Path: "/p", Watch: true},
			func() []any { a, b, err := c.ExistsW("/p"); return []any{a, b, err} }, []any{res.Stat, res.Exists, scripted}},
		{"ChildrenW", true, coord.Op{Kind: coord.OpChildren, Path: "/p", Watch: true},
			func() []any { a, err := c.ChildrenW("/p"); return []any{a, err} }, []any{res.Children, scripted}},
		{"Begin", false, coord.Op{Kind: coord.OpSet, Path: "/p", Data: []byte("d"), Version: 4},
			func() []any { a, err := c.Begin(ctx, coord.SetOp("/p", []byte("d"), 4)).Result(); return []any{a, err} },
			[]any{coord.OpResult{Err: scripted, Created: res.Created, Stat: res.Stat}, scripted}},
		{"BeginMulti", false, coord.Op{Kind: coord.OpMulti, Ops: batch},
			func() []any { a, err := c.BeginMulti(ctx, batch).Results(); return []any{a, err} }, []any{res.Results, scripted}},
		{"BeginChildrenData", false, coord.Op{Kind: coord.OpChildrenData, Path: "/p"},
			func() []any { a, err := c.BeginChildrenData(ctx, "/p").Entries(); return []any{a, err} }, []any{res.Entries, scripted}},
	}
	for _, tc := range cases {
		got := tc.call()
		seen := fake.one(t, tc.form, tc.want)
		if !reflect.DeepEqual(got, tc.ret) {
			t.Fatalf("%s returned %+v, want %+v", tc.form, got, tc.ret)
		}
		if mine := seen.Value(ctxKey{}) != nil; mine == tc.bg {
			t.Fatalf("%s: Do saw the caller's context = %v, want %v", tc.form, mine, !tc.bg)
		}
	}
	// WaitEvent is the one form over WaitEvents instead of Do.
	evs, err := c.WaitEvent(3 * time.Second)
	if err != scripted || len(evs) != 1 || evs[0].Path != "3s" {
		t.Fatalf("WaitEvent = %+v, %v; want WaitEvents(background, 3s) passed through", evs, err)
	}
	if ops, _ := fake.take(); len(ops) != 0 {
		t.Fatalf("WaitEvent issued Do calls: %+v", ops)
	}
}

// testFormsBehaviour runs one script through c's typed forms — the ok
// path, ErrNoNode, ErrBadVersion, an aborted Multi, a refused Multi, a
// cancelled context under each Begin form — checking what each form
// returns and that it reached rec as exactly one Do.
func testFormsBehaviour(t *testing.T, c coord.Client, rec *recorder) {
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.CreateCtx(ctx, "/cf", []byte("dir"), znode.ModePersistent)
	must(err)
	rec.one(t, "CreateCtx", coord.Op{Kind: coord.OpCreate, Path: "/cf", Data: []byte("dir")})

	// The ok path.
	created, err := c.Create("/cf/a", []byte("v0"), znode.ModePersistent)
	if err != nil || created != "/cf/a" {
		t.Fatalf("Create = %q, %v", created, err)
	}
	rec.one(t, "Create", coord.CreateOp("/cf/a", []byte("v0"), znode.ModePersistent))
	res, err := c.Begin(ctx, coord.CreateOp("/cf/b", nil, znode.ModePersistent)).Result()
	if err != nil || res.Err != nil || res.Created != "/cf/b" {
		t.Fatalf("Begin(create) = %+v, %v", res, err)
	}
	rec.one(t, "Begin", coord.CreateOp("/cf/b", nil, znode.ModePersistent))
	stat, err := c.SetCtx(ctx, "/cf/a", []byte("v1"), 0)
	if err != nil || stat.Version != 1 {
		t.Fatalf("SetCtx = %+v, %v", stat, err)
	}
	rec.one(t, "SetCtx", coord.SetOp("/cf/a", []byte("v1"), 0))
	data, stat, err := c.GetCtx(ctx, "/cf/a")
	if err != nil || string(data) != "v1" || stat.Version != 1 {
		t.Fatalf("GetCtx = %q, %+v, %v", data, stat, err)
	}
	rec.one(t, "GetCtx", coord.Op{Kind: coord.OpGet, Path: "/cf/a"})
	if stat, ok, err := c.ExistsCtx(ctx, "/cf/a"); err != nil || !ok || stat.Version != 1 {
		t.Fatalf("ExistsCtx = %+v, %v, %v", stat, ok, err)
	}
	rec.one(t, "ExistsCtx", coord.Op{Kind: coord.OpExists, Path: "/cf/a"})
	if kids, err := c.ChildrenCtx(ctx, "/cf"); err != nil || !reflect.DeepEqual(kids, []string{"a", "b"}) {
		t.Fatalf("ChildrenCtx = %v, %v", kids, err)
	}
	rec.one(t, "ChildrenCtx", coord.Op{Kind: coord.OpChildren, Path: "/cf"})
	for _, list := range []func() ([]coord.ChildEntry, error){
		func() ([]coord.ChildEntry, error) { return c.ChildrenDataCtx(ctx, "/cf") },
		func() ([]coord.ChildEntry, error) { return c.BeginChildrenData(ctx, "/cf").Entries() },
	} {
		entries, err := list()
		if err != nil || len(entries) != 3 || entries[0].Name != "." || entries[1].Name != "a" || string(entries[1].Data) != "v1" || entries[2].Name != "b" {
			t.Fatalf("listing with data = %+v, %v", entries, err)
		}
		rec.one(t, "ChildrenData", coord.Op{Kind: coord.OpChildrenData, Path: "/cf"})
	}
	batch := []coord.Op{coord.CheckDataOp("/cf/a", 1, nil), coord.CreateOp("/cf/c", nil, znode.ModePersistent), coord.SetOp("/cf/a", []byte("v2"), 1)}
	results, err := c.MultiCtx(ctx, batch)
	if err != nil || len(results) != 3 || results[1].Created != "/cf/c" || results[2].Stat.Version != 2 {
		t.Fatalf("MultiCtx = %+v, %v", results, err)
	}
	rec.one(t, "MultiCtx", coord.Op{Kind: coord.OpMulti, Ops: batch})
	must(c.SyncCtx(ctx))
	rec.one(t, "SyncCtx", coord.Op{Kind: coord.OpSync})

	// Watched reads answer like unwatched ones and leave a watch.
	if data, _, err := c.GetW("/cf/a"); err != nil || string(data) != "v2" {
		t.Fatalf("GetW = %q, %v", data, err)
	}
	rec.one(t, "GetW", coord.Op{Kind: coord.OpGet, Path: "/cf/a", Watch: true})
	if _, ok, err := c.ExistsW("/cf/nope"); err != nil || ok {
		t.Fatalf("ExistsW(absent) = %v, %v", ok, err)
	}
	rec.one(t, "ExistsW", coord.Op{Kind: coord.OpExists, Path: "/cf/nope", Watch: true})
	if kids, err := c.ChildrenW("/cf"); err != nil || len(kids) != 3 {
		t.Fatalf("ChildrenW = %v, %v", kids, err)
	}
	rec.one(t, "ChildrenW", coord.Op{Kind: coord.OpChildren, Path: "/cf", Watch: true})
	must(c.DeleteCtx(ctx, "/cf/c", -1))
	rec.one(t, "DeleteCtx", coord.DeleteOp("/cf/c", -1))
	fired := map[string]bool{}
	for deadline := time.Now().Add(5 * time.Second); !fired["/cf"] && time.Now().Before(deadline); {
		evs, err := c.WaitEvent(time.Second)
		must(err)
		for _, ev := range evs {
			fired[ev.Path] = true
		}
	}
	if !fired["/cf"] {
		t.Fatalf("the child watch left by ChildrenW never fired; saw %v", fired)
	}

	// ErrNoNode.
	if _, _, err := c.GetCtx(ctx, "/cf/nope"); !errors.Is(err, coord.ErrNoNode) {
		t.Fatalf("GetCtx(absent) = %v", err)
	}
	if _, err := c.SetCtx(ctx, "/cf/nope", nil, -1); !errors.Is(err, coord.ErrNoNode) {
		t.Fatalf("SetCtx(absent) = %v", err)
	}
	if err := c.DeleteCtx(ctx, "/cf/nope", -1); !errors.Is(err, coord.ErrNoNode) {
		t.Fatalf("DeleteCtx(absent) = %v", err)
	}
	if _, ok, err := c.ExistsCtx(ctx, "/cf/nope"); err != nil || ok {
		t.Fatalf("ExistsCtx(absent) = %v, %v", ok, err)
	}
	if kids, err := c.ChildrenCtx(ctx, "/cf/nope"); !errors.Is(err, coord.ErrNoNode) || kids != nil {
		t.Fatalf("ChildrenCtx(absent) = %v, %v", kids, err)
	}
	if entries, err := c.ChildrenDataCtx(ctx, "/cf/nope"); !errors.Is(err, coord.ErrNoNode) || entries != nil {
		t.Fatalf("ChildrenDataCtx(absent) = %v, %v", entries, err)
	}
	if res, err := c.Begin(ctx, coord.SetOp("/cf/nope", nil, -1)).Result(); !errors.Is(err, coord.ErrNoNode) || !errors.Is(res.Err, coord.ErrNoNode) {
		t.Fatalf("Begin(set absent) = %+v, %v", res, err)
	}

	// ErrBadVersion.
	if _, err := c.SetCtx(ctx, "/cf/a", nil, 7); !errors.Is(err, coord.ErrBadVersion) {
		t.Fatalf("SetCtx(stale version) = %v", err)
	}
	if err := c.DeleteCtx(ctx, "/cf/a", 7); !errors.Is(err, coord.ErrBadVersion) {
		t.Fatalf("DeleteCtx(stale version) = %v", err)
	}
	if err := c.Begin(ctx, coord.CheckDataOp("/cf/a", 7, nil)).Err(); !errors.Is(err, coord.ErrBadVersion) {
		t.Fatalf("Begin(check stale version) = %v", err)
	}
	must(c.Begin(ctx, coord.CheckDataOp("/cf/a", 2, nil)).Err())
	rec.take()

	// An aborted batch is both its per-op outcomes and the failing op's
	// error, in the blocking and the asynchronous form; nothing applied.
	doomed := []coord.Op{coord.CreateOp("/cf/x", nil, znode.ModePersistent), coord.CheckDataOp("/cf/a", 7, nil), coord.DeleteOp("/cf/a", -1)}
	for _, run := range []func() ([]coord.OpResult, error){
		func() ([]coord.OpResult, error) { return c.MultiCtx(ctx, doomed) },
		func() ([]coord.OpResult, error) { return c.BeginMulti(ctx, doomed).Results() },
	} {
		results, err := run()
		if !errors.Is(err, coord.ErrBadVersion) || len(results) != 3 ||
			!errors.Is(results[0].Err, coord.ErrRolledBack) || !errors.Is(results[1].Err, coord.ErrBadVersion) || !errors.Is(results[2].Err, coord.ErrRolledBack) {
			t.Fatalf("aborted multi = %+v, %v", results, err)
		}
		rec.one(t, "Multi", coord.Op{Kind: coord.OpMulti, Ops: doomed})
	}
	if _, ok, err := c.Exists("/cf/x"); err != nil || ok {
		t.Fatalf("aborted multi left /cf/x behind: %v, %v", ok, err)
	}

	// A batch carrying a kind that is no batch kind is refused whole.
	for _, kind := range []coord.OpKind{coord.OpSync, coord.OpGet, coord.OpMulti} {
		bad := []coord.Op{coord.CreateOp("/cf/y", nil, znode.ModePersistent), {Kind: kind, Path: "/cf/a"}}
		if results, err := c.MultiCtx(ctx, bad); err == nil || results != nil {
			t.Fatalf("multi carrying kind %d = %+v, %v; want it refused", kind, results, err)
		}
	}
	if _, err := c.Multi(nil); err == nil {
		t.Fatal("empty multi accepted")
	}
	if _, ok, err := c.Exists("/cf/y"); err != nil || ok {
		t.Fatalf("refused multi left /cf/y behind: %v, %v", ok, err)
	}

	// A context cancelled before submission resolves each Begin form
	// with its error and leaves the client usable.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	for form, fut := range map[string]*coord.Future{
		"Begin":             c.Begin(dead, coord.CreateOp("/cf/z", nil, znode.ModePersistent)),
		"BeginMulti":        c.BeginMulti(dead, batch),
		"BeginChildrenData": c.BeginChildrenData(dead, "/cf"),
	} {
		if err := fut.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s under a cancelled context = %v", form, err)
		}
	}
	must(c.Sync())
	if _, ok, err := c.Exists("/cf/z"); err != nil || ok {
		t.Fatalf("cancelled Begin(create) applied: %v, %v", ok, err)
	}
}

package coord

import (
	"context"
	"time"

	"repro/internal/coord/znode"
)

// Forms derives every typed form of Client from its Doer's Do — each
// exactly once, here. An implementation embeds Forms with Doer set to
// itself and defines all of Doer (a method left to promotion through
// Forms would call itself); Wrap does the same around a Doer that is not
// one's own type. Each form is one Do call with the Op spelled out, so a
// decorator that overrides Do sees every operation however it was
// submitted. The blocking forms run Do on the caller's goroutine; the
// Begin forms are `go Do`.
type Forms struct{ Doer }

// Wrap makes a Client of any Doer — how a Do decorator (a tracer, a
// fault injector, a test double) regains the whole typed surface.
func Wrap(d Doer) Client { return Forms{d} }

func (f Forms) CreateCtx(ctx context.Context, path string, data []byte, mode znode.CreateMode) (string, error) {
	res, err := f.Do(ctx, Op{Kind: OpCreate, Path: path, Data: data, Mode: mode})
	return res.Created, err
}

func (f Forms) GetCtx(ctx context.Context, path string) ([]byte, znode.Stat, error) {
	res, err := f.Do(ctx, Op{Kind: OpGet, Path: path})
	return res.Data, res.Stat, err
}

func (f Forms) SetCtx(ctx context.Context, path string, data []byte, version int32) (znode.Stat, error) {
	res, err := f.Do(ctx, Op{Kind: OpSet, Path: path, Data: data, Version: version})
	return res.Stat, err
}

func (f Forms) DeleteCtx(ctx context.Context, path string, version int32) error {
	_, err := f.Do(ctx, Op{Kind: OpDelete, Path: path, Version: version})
	return err
}

func (f Forms) ExistsCtx(ctx context.Context, path string) (znode.Stat, bool, error) {
	res, err := f.Do(ctx, Op{Kind: OpExists, Path: path})
	return res.Stat, res.Exists, err
}

func (f Forms) ChildrenCtx(ctx context.Context, path string) ([]string, error) {
	res, err := f.Do(ctx, Op{Kind: OpChildren, Path: path})
	return res.Children, err
}

func (f Forms) MultiCtx(ctx context.Context, ops []Op) ([]OpResult, error) {
	res, err := f.Do(ctx, Op{Kind: OpMulti, Ops: ops})
	return res.Results, err
}

func (f Forms) ChildrenDataCtx(ctx context.Context, path string) ([]ChildEntry, error) {
	res, err := f.Do(ctx, Op{Kind: OpChildrenData, Path: path})
	return res.Entries, err
}

func (f Forms) SyncCtx(ctx context.Context) error {
	_, err := f.Do(ctx, Op{Kind: OpSync})
	return err
}

func (f Forms) Create(path string, data []byte, mode znode.CreateMode) (string, error) {
	return f.CreateCtx(context.Background(), path, data, mode)
}

func (f Forms) Get(path string) ([]byte, znode.Stat, error) {
	return f.GetCtx(context.Background(), path)
}

func (f Forms) Set(path string, data []byte, version int32) (znode.Stat, error) {
	return f.SetCtx(context.Background(), path, data, version)
}

func (f Forms) Delete(path string, version int32) error {
	return f.DeleteCtx(context.Background(), path, version)
}

func (f Forms) Exists(path string) (znode.Stat, bool, error) {
	return f.ExistsCtx(context.Background(), path)
}

func (f Forms) Children(path string) ([]string, error) {
	return f.ChildrenCtx(context.Background(), path)
}

func (f Forms) Multi(ops []Op) ([]OpResult, error) {
	return f.MultiCtx(context.Background(), ops)
}

func (f Forms) ChildrenData(path string) ([]ChildEntry, error) {
	return f.ChildrenDataCtx(context.Background(), path)
}

func (f Forms) Sync() error { return f.SyncCtx(context.Background()) }

// GetW is Get plus a one-shot data watch: the next create/delete/set on
// the path (as applied by the serving replica) queues an Event. A failed
// GetW leaves no watch.
func (f Forms) GetW(path string) ([]byte, znode.Stat, error) {
	res, err := f.Do(context.Background(), Op{Kind: OpGet, Path: path, Watch: true})
	return res.Data, res.Stat, err
}

// ExistsW is Exists plus a one-shot watch; it fires on creation of a
// currently-absent node as well, matching ZooKeeper.
func (f Forms) ExistsW(path string) (znode.Stat, bool, error) {
	res, err := f.Do(context.Background(), Op{Kind: OpExists, Path: path, Watch: true})
	return res.Stat, res.Exists, err
}

// ChildrenW is Children plus a one-shot child watch (fires when an entry
// is added to or removed from the directory, or the directory itself is
// deleted).
func (f Forms) ChildrenW(path string) ([]string, error) {
	res, err := f.Do(context.Background(), Op{Kind: OpChildren, Path: path, Watch: true})
	return res.Children, err
}

func (f Forms) WaitEvent(timeout time.Duration) ([]Event, error) {
	return f.WaitEvents(context.Background(), timeout)
}

// Begin is the one Future constructor: Do on its own goroutine, which
// exits when Do returns — on the reply, or as soon as ctx ends.
func (f Forms) Begin(ctx context.Context, op Op) *Future {
	fut := &Future{done: make(chan struct{})}
	go func() {
		defer close(fut.done)
		fut.res, fut.err = f.Do(ctx, op)
	}()
	return fut
}

func (f Forms) BeginMulti(ctx context.Context, ops []Op) *Future {
	return f.Begin(ctx, Op{Kind: OpMulti, Ops: ops})
}

func (f Forms) BeginChildrenData(ctx context.Context, path string) *Future {
	return f.Begin(ctx, Op{Kind: OpChildrenData, Path: path})
}

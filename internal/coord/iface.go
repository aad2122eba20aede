package coord

import (
	"context"
	"time"

	"repro/internal/coord/znode"
)

// Doer is what a coordination client IMPLEMENTS: identity, lifetime,
// the one blocking operation primitive, the event wait and a status
// report. Everything else callers see on a Client is derived from Do,
// once, by Forms (forms.go) — so an implementation, a decorator or a
// test double is a Do plus whatever real logic it has. *Session (one
// ensemble) and *shard.Router (many) are the two implementations; each
// embeds Forms over itself. Which replica of an ensemble answers a
// session's reads is the order of its address list (DESIGN.md §13.4).
type Doer interface {
	// ID returns the 64-bit session identifier minted by the
	// replicated state machine; DUFS uses it as the client half of new
	// FIDs.
	ID() uint64
	// Close terminates the session(s), expiring ephemeral nodes.
	Close() error
	// Atomic reports whether a Multi touching exactly these paths
	// executes as a single atomic transaction. Always true for a
	// Session; true on a Router iff every path routes to one shard.
	Atomic(paths ...string) bool
	// Do executes one operation and blocks until its outcome is known;
	// ctx bounds the whole call including failover retries, and a ctx
	// cancelled mid-flight returns ctx.Err() without disturbing the
	// session. It is the blocking primitive: the asynchronous forms are
	// `go Do`, so concurrent Do calls on one client are the pipelining
	// (they share its connection) and are mutually UNORDERED. A session
	// holds at most asyncWindow replicated writes in flight, whichever
	// form submitted them; reads are not bounded. A read with Op.Lease
	// set is linearizable on every Session and refused by a shard.Router.
	//
	// An aborted batch (OpMulti, OpCheck) returns both: Result.Results
	// with the failing op's error on its own entry and ErrRolledBack on
	// every other, and the failing op's error. A failing check's entry
	// also carries the stat and data it found.
	Do(ctx context.Context, op Op) (Result, error)
	// WaitEvents parks on the service until a watch fires, maxWait
	// expires (nil, nil), or ctx ends. It is push delivery: an idle
	// caller issues no polling traffic — one parked request per
	// maxWait window. An error return means events may have been
	// missed (failover); re-register watches.
	WaitEvents(ctx context.Context, maxWait time.Duration) ([]Event, error)
	// Status reports the service's view of itself, for tools and
	// tests.
	Status() (Status, error)
}

// Client is the coordination-service API DUFS programs against: a Doer
// plus the typed forms of its operations — the ZooKeeper-style set of a
// Session (single znode reads and writes, one-shot watches, the Sync
// barrier), the batched primitives that collapse DUFS's hot paths into
// single round trips (Multi, ChildrenData), and the ASYNCHRONOUS
// submissions (Begin, BeginMulti, BeginChildrenData) that keep many
// operations in flight over one connection. The interface is abstracted
// so that callers cannot tell one ensemble from many.
//
// Every operation comes in two typed forms: a context-aware one
// (CreateCtx, GetCtx, …) whose context bounds the whole call, and the
// paper's synchronous signature (§IV-D), the same call with the
// background context. Both are Forms methods over Do; no implementation
// writes them out.
//
// The guarantees callers may rely on are those of a single session:
// a client always observes its own writes, and Sync establishes a
// barrier after which writes committed before the call are visible.
// Asynchronous submissions are mutually UNORDERED — two Begin calls
// race like two synchronous calls from different goroutines; callers
// needing order chain futures or use Multi (DESIGN.md §10). Ordering
// between paths that live on different shards is NOT guaranteed by the
// Router; DUFS only needs per-path and per-directory ordering, which
// hashing by parent directory preserves. A Multi spanning shards is
// NOT atomic — consult Atomic before relying on all-or-nothing
// semantics, and fall back to an intent-logged protocol (core's
// cross-shard rename) when it reports false. DESIGN.md §8 states the
// full atomicity contract.
type Client interface {
	Doer

	// CreateCtx creates a znode, returning the created path (which
	// differs from the requested path for sequential modes).
	CreateCtx(ctx context.Context, path string, data []byte, mode znode.CreateMode) (string, error)
	// GetCtx returns a znode's data and stat.
	GetCtx(ctx context.Context, path string) ([]byte, znode.Stat, error)
	// SetCtx replaces a znode's data; version -1 disables the check.
	SetCtx(ctx context.Context, path string, data []byte, version int32) (znode.Stat, error)
	// DeleteCtx removes a childless znode; version -1 disables the
	// check.
	DeleteCtx(ctx context.Context, path string, version int32) error
	// ExistsCtx reports whether the znode exists, with its stat.
	ExistsCtx(ctx context.Context, path string) (znode.Stat, bool, error)
	// ChildrenCtx returns the sorted child names of a znode.
	ChildrenCtx(ctx context.Context, path string) ([]string, error)
	// MultiCtx applies the batch of check/create/set/delete operations
	// as one transaction: all-or-nothing when Atomic(paths...) holds
	// for the batch's paths, per-shard all-or-nothing otherwise (each
	// sub-batch commits or aborts independently, in first-appearance
	// order — see shard.Router for the exact contract). On abort the
	// failing op's result carries its error, every other op carries
	// ErrRolledBack, and the failing op's error is also returned.
	MultiCtx(ctx context.Context, ops []Op) ([]OpResult, error)
	// ChildrenDataCtx returns the znode itself (first entry, named ".")
	// and every child with its data and stat, in one round trip — the
	// N+1-free readdir. Entries after "." are sorted by name.
	ChildrenDataCtx(ctx context.Context, path string) ([]ChildEntry, error)
	// SyncCtx is the cross-client visibility barrier (ZooKeeper
	// sync()).
	SyncCtx(ctx context.Context) error

	// The context-free forms: the *Ctx forms with the background
	// context.
	Create(path string, data []byte, mode znode.CreateMode) (string, error)
	Get(path string) ([]byte, znode.Stat, error)
	Set(path string, data []byte, version int32) (znode.Stat, error)
	Delete(path string, version int32) error
	Exists(path string) (znode.Stat, bool, error)
	Children(path string) ([]string, error)
	Multi(ops []Op) ([]OpResult, error)
	ChildrenData(path string) ([]ChildEntry, error)
	Sync() error

	// Begin submits one operation of any kind asynchronously: it
	// returns immediately with a Future resolved by Do on its own
	// goroutine. Futures are mutually unordered.
	Begin(ctx context.Context, op Op) *Future
	// BeginMulti is Begin for a whole batch (results via
	// Future.Results).
	BeginMulti(ctx context.Context, ops []Op) *Future
	// BeginChildrenData is Begin for a whole-directory listing
	// (results via Future.Entries).
	BeginChildrenData(ctx context.Context, path string) *Future

	// GetW, ExistsW and ChildrenW are their unwatched counterparts
	// plus a one-shot watch delivered through WaitEvents.
	GetW(path string) ([]byte, znode.Stat, error)
	ExistsW(path string) (znode.Stat, bool, error)
	ChildrenW(path string) ([]string, error)
	// WaitEvent is WaitEvents with the background context.
	WaitEvent(timeout time.Duration) ([]Event, error)
}

var _ Client = (*Session)(nil)

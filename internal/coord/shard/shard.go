// Package shard partitions the coordination-service namespace across
// N independent ensembles and presents them as one coord.Client.
//
// The paper answers its title question with a single ZooKeeper-style
// ensemble, which caps metadata write throughput at one ZAB quorum
// (§IV-D, Fig 7a). The next scaling lever — the one HopsFS and
// ChubaoFS take in related work — is to run several ensembles and
// partition the namespace between them. Router is the client-side
// realisation of that idea: no server knows it is part of a sharded
// deployment; all routing intelligence lives in the client, in keeping
// with DUFS's stateless-client design (§IV-I).
//
// # Routing rule
//
// A znode lives on the shard selected by consistent-hashing its
// PARENT-DIRECTORY path on the router's placement.Table (the same vnode
// ring used for FID→back-end placement, §IV-F/§VII, plus the ranges
// migrations pinned elsewhere):
//
//	shard(p) = table.Locate(parent(p))
//
// Hashing the parent rather than the path itself means every child of
// one directory lands on the same shard, so Children and sequential
// creates remain single-shard operations and per-directory ordering is
// preserved. Distinct directories spread across shards, which is where
// the aggregate write throughput comes from (BenchmarkShardScaling).
//
// # Ancestor stubs
//
// The children of directory D live on shard(D), but D's own
// authoritative znode lives on shard(parent(D)) — usually a different
// ensemble. Each shard's state machine still requires a parent node
// before it accepts a child, so the Router lazily materialises the
// ancestor chain on the child's shard ("stubs", copies of the
// authoritative data) the first time a create lands there. Stubs are
// never read: Get/Set/Exists always route to the authoritative copy.
// See DESIGN.md §7 for the full protocol, including the delete path
// and its documented races.
package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/znode"
	"repro/internal/placement"
)

// Router fans one coord.Client API out over N ensembles: its Do routes
// each op kind by the rules below, the embedded Forms derive every typed
// and asynchronous form from that. It is safe for concurrent use if and
// only if the underlying sessions are (both implementations in this
// repository are).
type Router struct {
	coord.Forms // every typed form, over Do

	sessions []coord.Client

	// table is the epoch-versioned placement map (ring + migration
	// overrides). It starts as the pure function of the shard count and
	// is replaced wholesale — never mutated — when RefreshPlacement
	// reads a newer epoch from the placement znode, so routing reads
	// are a single atomic load.
	table atomic.Pointer[placement.Table]

	// Event fan-in (see WaitEvents): one forwarder per shard keeps a
	// long-poll parked on its ensemble and pushes fired watches into
	// evbuf; consumers block on evnotify instead of sweeping N shards
	// on a timer.
	evmu       sync.Mutex
	evbuf      []coord.Event
	everr      error // pending stream error (shard failover: watches lost)
	evnotify   chan struct{}
	streamStop context.CancelFunc
	streamOnce sync.Once
}

// New builds a Router over one session per ensemble. The epoch-0
// table uses placement.DefaultReplicas virtual nodes per shard, so
// initial routing is a pure function of (path, len(sessions)): every
// client with the same shard count agrees on every placement decision
// with no coordination. Live migrations later publish higher-epoch
// tables through the placement znode; clients learn of them lazily via
// the moved-partition redirect (see chase).
func New(sessions []coord.Client) (*Router, error) {
	if len(sessions) == 0 {
		return nil, errors.New("shard: need at least one session")
	}
	tbl, err := placement.NewTable(len(sessions))
	if err != nil {
		return nil, err
	}
	r := &Router{
		sessions: append([]coord.Client(nil), sessions...),
		evnotify: make(chan struct{}, 1),
	}
	r.Forms = coord.Forms{Doer: r}
	r.table.Store(tbl)
	return r, nil
}

// Shards returns the number of ensembles behind the router.
func (r *Router) Shards() int { return len(r.sessions) }

// placementPinned reports whether path lies in the placement subtree
// (/__placement), which is pinned to shard 0 rather than hash-routed:
// the table that would route it is the very thing stored there.
func placementPinned(path string) bool {
	return path == coord.PlacementPrefix ||
		strings.HasPrefix(path, coord.PlacementPrefix+"/")
}

// clampShard folds a table-selected index onto a live session. The
// indexes only diverge if a published table names more shards than
// this router has sessions for (a half-deployed scale-out); folding
// keeps routing total rather than panicking.
func (r *Router) clampShard(idx int) int {
	if idx >= 0 && idx < len(r.sessions) {
		return idx
	}
	return ((idx % len(r.sessions)) + len(r.sessions)) % len(r.sessions)
}

// ShardFor returns the shard index that owns the znode at path — the
// consistent hash of its parent directory under the current placement
// table. Exposed for tests and tools (dufsctl's status command).
func (r *Router) ShardFor(path string) int {
	if placementPinned(path) {
		return 0
	}
	parent := "/"
	if path != "/" {
		parent, _ = znode.SplitPath(path)
	}
	return r.clampShard(r.table.Load().Locate(parent))
}

// shardForChildren returns the shard holding path's children: they
// hash by THEIR parent, which is path itself.
func (r *Router) shardForChildren(path string) int {
	if placementPinned(path) {
		return 0
	}
	return r.clampShard(r.table.Load().Locate(path))
}

// owner returns the session holding path's authoritative znode.
func (r *Router) owner(path string) coord.Client {
	return r.sessions[r.ShardFor(path)]
}

// PlacementTable returns the router's current placement table (tables
// are immutable, so sharing the pointer is safe).
func (r *Router) PlacementTable() *placement.Table { return r.table.Load() }

// RefreshPlacement re-reads the published placement table from the
// placement znode (pinned to shard 0) and installs it if its epoch is
// newer than the table currently routing. A missing znode is not an
// error: no migration has ever run, the epoch-0 table stands.
func (r *Router) RefreshPlacement(ctx context.Context) error {
	data, _, err := r.sessions[0].GetCtx(ctx, coord.PlacementTablePath)
	if errors.Is(err, coord.ErrNoNode) {
		return nil
	}
	if err != nil {
		return err
	}
	tbl, err := placement.DecodeTable(data)
	if err != nil {
		return fmt.Errorf("shard: bad placement table: %w", err)
	}
	for {
		cur := r.table.Load()
		if tbl.Epoch() <= cur.Epoch() {
			return nil
		}
		if r.table.CompareAndSwap(cur, tbl) {
			return nil
		}
	}
}

// Redirect-chase tuning. A fenced range bounces writes for the length
// of the delta ship (milliseconds in practice), so fence retries are
// patient; moved redirects resolve after one table refresh, so the hop
// cap exists only to break routing loops from a torn table.
const (
	maxRedirectHops = 8
	fenceRetryDelay = 3 * time.Millisecond
	maxFenceWait    = 15 * time.Second
	epochChaseTries = 500
	epochChaseDelay = 2 * time.Millisecond
)

// chase runs fn — which must re-resolve its target shard from the
// router's table on every call — until it returns something other than
// a migration bounce. ErrFenced (transient: the range's delta is
// shipping) retries the same routing after a short sleep; it resolves
// to either success (migration aborted, fence lifted) or a MovedError
// (ownership flipped). A MovedError (permanent: the range lives
// elsewhere now) refreshes the table to at least the redirect's epoch
// and re-resolves. Acked writes are never lost to a migration: a write
// either committed on the old owner before the fence, or bounced and
// commits on the new owner here.
func (r *Router) chase(ctx context.Context, fn func() error) error {
	hops := 0
	var fenceDeadline time.Time
	for {
		err := fn()
		var mv *coord.MovedError
		switch {
		case errors.As(err, &mv):
			hops++
			if hops > maxRedirectHops {
				return err
			}
			if cerr := r.chaseEpoch(ctx, mv.Epoch); cerr != nil {
				return err
			}
		case errors.Is(err, coord.ErrFenced):
			if fenceDeadline.IsZero() {
				fenceDeadline = time.Now().Add(maxFenceWait)
			} else if time.Now().After(fenceDeadline) {
				return err
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(fenceRetryDelay):
			}
		default:
			return err
		}
	}
}

// chaseEpoch refreshes the placement table until its epoch reaches at
// least epoch. The window where a shard already answers MovedError but
// the table CAS has not landed yet is real (the flip precedes the
// publish), so a refresh that comes back stale retries briefly.
func (r *Router) chaseEpoch(ctx context.Context, epoch uint64) error {
	for i := 0; ; i++ {
		if r.table.Load().Epoch() >= epoch {
			return nil
		}
		if err := r.RefreshPlacement(ctx); err != nil && ctx.Err() != nil {
			return err
		}
		if r.table.Load().Epoch() >= epoch {
			return nil
		}
		if i >= epochChaseTries {
			return fmt.Errorf("shard: placement table stuck below epoch %d", epoch)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(epochChaseDelay):
		}
	}
}

// ID implements coord.Doer. Shard 0's ensemble mints the identifier;
// it is unique among all routers sharing that ensemble, which is what
// FID generation needs.
func (r *Router) ID() uint64 { return r.sessions[0].ID() }

// eachShard runs fn once per shard, concurrently, and returns the
// per-shard errors as a parallel slice. It remains the fan-out
// primitive for the rare control-plane operations with no async form
// (Close, Status); the hot fan-outs moved onto the async layer — Sync
// submits Begin(OpSync) futures and event fan-in rides the WaitEvents
// stream. Multi deliberately does NOT use it — split batches execute per-shard sub-transactions
// sequentially in first-appearance order (DESIGN.md §8.2), and that
// ordering contract is load-bearing for callers that sequence
// dependent ops across shards.
func (r *Router) eachShard(fn func(i int, s coord.Client) error) []error {
	errs := make([]error, len(r.sessions))
	if len(r.sessions) == 1 {
		errs[0] = fn(0, r.sessions[0])
		return errs
	}
	var wg sync.WaitGroup
	for i, s := range r.sessions {
		wg.Add(1)
		go func(i int, s coord.Client) {
			defer wg.Done()
			errs[i] = fn(i, s)
		}(i, s)
	}
	wg.Wait()
	return errs
}

// Close implements coord.Doer: it stops the event fan-in stream and
// closes every per-shard session in parallel, expiring each shard's
// ephemerals, and returns the first error.
func (r *Router) Close() error {
	r.evmu.Lock()
	if r.streamStop != nil {
		r.streamStop()
	}
	r.evmu.Unlock()
	for _, err := range r.eachShard(func(_ int, s coord.Client) error { return s.Close() }) {
		if err != nil {
			return err
		}
	}
	return nil
}

// Do implements coord.Doer: each kind is routed by its rule below and
// runs through the typed forms of the owning shard's session, so the
// per-session guarantees (exact-once retries, the in-flight write
// window) hold for every form of every op. The router places no lease
// reads and the protocol has no watched listing-with-data.
func (r *Router) Do(ctx context.Context, op coord.Op) (res coord.Result, err error) {
	if op.Lease || op.Watch && op.Kind == coord.OpChildrenData {
		return res, fmt.Errorf("shard: op kind %d does not take that modifier", op.Kind)
	}
	switch op.Kind {
	case coord.OpCreate:
		res.Created, err = r.create(ctx, op.Path, op.Data, op.Mode)
	case coord.OpSet:
		res.Stat, err = r.set(ctx, op.Path, op.Data, op.Version)
	case coord.OpDelete:
		err = r.delete(ctx, op.Path, op.Version)
	case coord.OpGet:
		res.Data, res.Stat, err = r.get(ctx, op.Path, op.Watch)
	case coord.OpExists:
		res.Stat, res.Exists, err = r.exists(ctx, op.Path, op.Watch)
	case coord.OpChildren:
		res.Children, err = r.children(ctx, op.Path, op.Watch)
	case coord.OpChildrenData:
		res.Entries, err = r.childrenData(ctx, op.Path)
	case coord.OpCheck:
		res.Results, err = r.multi(ctx, []coord.Op{op})
	case coord.OpMulti:
		res.Results, err = r.multi(ctx, op.Ops)
	case coord.OpSync:
		err = r.sync(ctx)
	default:
		err = fmt.Errorf("shard: unknown op kind %d", op.Kind)
	}
	return res, err
}

// create runs on the node's authoritative shard; if that shard is
// missing the ancestor chain (ErrNoParent) the chain is materialised as
// stubs and the create is retried once.
func (r *Router) create(ctx context.Context, path string, data []byte, mode znode.CreateMode) (string, error) {
	var created string
	err := r.chase(ctx, func() error {
		s := r.owner(path)
		var err error
		created, err = s.CreateCtx(ctx, path, data, mode)
		if !errors.Is(err, coord.ErrNoParent) {
			return err
		}
		if serr := r.ensureAncestors(ctx, s, path); serr != nil {
			created = ""
			return serr
		}
		created, err = s.CreateCtx(ctx, path, data, mode)
		return err
	})
	return created, err
}

// ensureAncestors copies the authoritative data of each missing
// ancestor of path onto session s, root-down. If an ancestor does not
// exist anywhere the original ErrNoParent is surfaced, exactly as a
// single ensemble would.
func (r *Router) ensureAncestors(ctx context.Context, s coord.Client, path string) error {
	parent, _ := znode.SplitPath(path)
	return r.ensureChain(ctx, s, parent)
}

// ensureChain materialises path and its ancestors on session s as
// stubs (copies of the authoritative data), root-down.
func (r *Router) ensureChain(ctx context.Context, s coord.Client, path string) error {
	var chain []string
	for p := path; p != "/"; {
		chain = append(chain, p)
		p, _ = znode.SplitPath(p)
	}
	// chain is leaf-first; walk it root-down.
	for i := len(chain) - 1; i >= 0; i-- {
		p := chain[i]
		if _, ok, err := s.ExistsCtx(ctx, p); err != nil {
			return err
		} else if ok {
			continue
		}
		data, _, err := r.owner(p).GetCtx(ctx, p)
		if err != nil {
			if errors.Is(err, coord.ErrNoNode) {
				return coord.ErrNoParent
			}
			return err
		}
		if _, err := s.CreateCtx(ctx, p, data, znode.ModePersistent); err != nil && !errors.Is(err, coord.ErrNodeExists) {
			return err
		}
	}
	return nil
}

// get reads the authoritative copy; a watch registers on that shard,
// where every mutation of the node lands.
func (r *Router) get(ctx context.Context, path string, watch bool) ([]byte, znode.Stat, error) {
	var data []byte
	var stat znode.Stat
	err := r.chase(ctx, func() error {
		var err error
		if watch {
			res, werr := r.owner(path).Do(ctx, coord.Op{Kind: coord.OpGet, Path: path, Watch: true})
			data, stat, err = res.Data, res.Stat, werr
		} else {
			data, stat, err = r.owner(path).GetCtx(ctx, path)
		}
		return err
	})
	return data, stat, err
}

// set writes the authoritative copy.
func (r *Router) set(ctx context.Context, path string, data []byte, version int32) (znode.Stat, error) {
	var stat znode.Stat
	err := r.chase(ctx, func() error {
		var err error
		stat, err = r.owner(path).SetCtx(ctx, path, data, version)
		return err
	})
	return stat, err
}

// exists consults the authoritative copy, where a watch registers too.
func (r *Router) exists(ctx context.Context, path string, watch bool) (znode.Stat, bool, error) {
	var stat znode.Stat
	var ok bool
	err := r.chase(ctx, func() error {
		var err error
		if watch {
			res, werr := r.owner(path).Do(ctx, coord.Op{Kind: coord.OpExists, Path: path, Watch: true})
			stat, ok, err = res.Stat, res.Exists, werr
		} else {
			stat, ok, err = r.owner(path).ExistsCtx(ctx, path)
		}
		return err
	})
	return stat, ok, err
}

// delete: a single ensemble refuses to delete a node with children;
// with the children on a different shard than the node itself the
// router has to enforce that check explicitly:
//
//  1. the children shard is consulted — any child means ErrNotEmpty;
//  2. the authoritative copy is deleted (honouring version);
//  3. the stub on the children shard, if any, is removed best-effort.
//
// A create racing between steps 1 and 2 can slip in, the same
// lost-update window the paper accepts for rename (§IV-A); DESIGN.md
// §7.3 discusses why DUFS tolerates it.
func (r *Router) delete(ctx context.Context, path string, version int32) error {
	return r.chase(ctx, func() error {
		owner := r.ShardFor(path)
		kidShard := r.shardForChildren(path)
		if kidShard != owner {
			kids, err := r.sessions[kidShard].ChildrenCtx(ctx, path)
			if err == nil && len(kids) > 0 {
				return coord.ErrNotEmpty
			}
			if err != nil && !errors.Is(err, coord.ErrNoNode) {
				return err
			}
		}
		if err := r.sessions[owner].DeleteCtx(ctx, path, version); err != nil {
			return err
		}
		if kidShard != owner {
			if err := r.sessions[kidShard].DeleteCtx(ctx, path, -1); err != nil && !errors.Is(err, coord.ErrNoNode) && !errors.Is(err, coord.ErrNotEmpty) {
				return err
			}
		}
		return nil
	})
}

// Atomic implements coord.Doer: a Multi over exactly these paths is
// atomic iff every path's authoritative znode lives on one shard.
// Callers that need all-or-nothing semantics (DUFS's same-directory
// rename) consult this before building a batch and fall back to an
// intent-logged protocol when it reports false.
func (r *Router) Atomic(paths ...string) bool {
	if len(paths) <= 1 {
		return true
	}
	shard := r.ShardFor(paths[0])
	for _, p := range paths[1:] {
		if r.ShardFor(p) != shard {
			return false
		}
	}
	return true
}

// multi: when every op routes to one shard the batch is forwarded whole
// and is exactly as atomic as a single ensemble's multi. Otherwise the
// batch SPLITS: ops are grouped by shard (preserving their relative
// order) and the per-shard sub-transactions execute sequentially, in
// order of each shard's first appearance in the batch. Each
// sub-transaction is atomic on its shard, but the split batch as a whole
// is NOT: when sub-transaction k fails, sub-transactions before it stay
// committed, k's ops report their own outcome, and the ops of every
// later sub-transaction report ErrRolledBack without being attempted.
// Callers needing true atomicity must check Atomic first (DESIGN.md
// §8.2).
func (r *Router) multi(ctx context.Context, ops []coord.Op) ([]coord.OpResult, error) {
	// Refused here, not by whichever shard's session meets it: by then
	// an earlier sub-transaction of a split batch would have committed.
	if err := coord.CheckBatch(ops); err != nil {
		return nil, err
	}
	return r.dispatchMulti(ctx, ops, 0)
}

// dispatchMulti routes a batch under the current placement table:
// whole to one shard when every op co-routes, split into per-shard
// sub-transactions otherwise. depth counts migration-induced
// re-dispatches (see multiOnShard).
func (r *Router) dispatchMulti(ctx context.Context, ops []coord.Op, depth int) ([]coord.OpResult, error) {
	shard := r.opShard(ops[0])
	split := false
	for _, op := range ops {
		switch s := r.opShard(op); {
		case s < 0:
			return nil, fmt.Errorf("shard: a move from %s to %s spans shards", op.Path, op.To)
		case s != shard:
			split = true
		}
	}
	if !split {
		return r.multiOnShard(ctx, shard, ops, depth)
	}

	// Group by shard, preserving relative op order and first-appearance
	// execution order.
	type group struct {
		shard   int
		ops     []coord.Op
		indices []int
	}
	var groups []group
	byShard := make(map[int]int)
	for i, op := range ops {
		s := r.opShard(op)
		gi, ok := byShard[s]
		if !ok {
			gi = len(groups)
			byShard[s] = gi
			groups = append(groups, group{shard: s})
		}
		groups[gi].ops = append(groups[gi].ops, op)
		groups[gi].indices = append(groups[gi].indices, i)
	}
	results := make([]coord.OpResult, len(ops))
	for i := range results {
		results[i].Err = coord.ErrRolledBack
	}
	for _, g := range groups {
		sub, err := r.multiOnShard(ctx, g.shard, g.ops, depth)
		for j, idx := range g.indices {
			if j < len(sub) {
				results[idx] = sub[j]
			}
		}
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// multiOnShard runs one sub-transaction, chasing migration bounces. A
// bounce refuses the whole sub-transaction before any op applies, so a
// retry never double-applies. If a redirect's table refresh reveals the
// group no longer co-routes (the migration moved some of its
// directories), the group is re-dispatched under the new table: each
// piece stays atomic on its shard, the group as a whole was only ever
// as atomic as a split batch (DESIGN.md §8.2).
func (r *Router) multiOnShard(ctx context.Context, shard int, ops []coord.Op, depth int) ([]coord.OpResult, error) {
	var results []coord.OpResult
	err := r.chase(ctx, func() error {
		cur := r.opShard(ops[0])
		for _, op := range ops[1:] {
			if r.opShard(op) != cur {
				cur = -1
				break
			}
		}
		var err error
		if cur == -1 {
			if depth >= 2 {
				return errors.New("shard: batch re-split too many times during migration")
			}
			results, err = r.dispatchMulti(ctx, ops, depth+1)
			return err
		}
		results, err = r.execMultiOnShard(ctx, cur, ops)
		return err
	})
	return results, err
}

// opShard returns the shard a batch op runs on: its path's, or -1 for a
// move whose two names route to different shards, which no
// sub-transaction can hold — the router never splits a move.
func (r *Router) opShard(op coord.Op) int {
	s := r.ShardFor(op.Path)
	if op.Kind == coord.OpMove && r.ShardFor(op.To) != s {
		return -1
	}
	return s
}

// execMultiOnShard runs one atomic sub-transaction on a single shard.
// It carries over every per-op responsibility the router's single-op
// methods have: missing ancestor stubs are materialised for create
// ops and a move's destination (the ErrNoParent recovery Create
// performs), and delete ops get Router.delete's cross-shard treatment —
// a node whose children live on a DIFFERENT shard is checked for
// children there first (the executing shard's state machine cannot see
// them), and its stub on the children shard is removed after commit so
// a deleted directory does not stay listable as an empty ghost. A move
// deletes both its names' nodes, the source and any node it replaces,
// so both get that treatment.
func (r *Router) execMultiOnShard(ctx context.Context, shard int, ops []coord.Op) ([]coord.OpResult, error) {
	// stubbed names the deleted paths whose pre-check found a node on
	// their children shard — only those need post-commit stub removal; a
	// pre-check that came back ErrNoNode (every file delete, and most
	// directory deletes) costs no second RPC. The pre-checks are
	// independent reads on foreign shards, so they fan out in parallel
	// and are then evaluated in op order (the first failing op aborts
	// the batch deterministically, exactly as the sequential walk did).
	type precheck struct {
		op   int
		path string
		kids []string
		err  error
	}
	var checks []*precheck
	for i, op := range ops {
		var deleted []string
		switch op.Kind {
		case coord.OpDelete:
			deleted = []string{op.Path}
		case coord.OpMove:
			deleted = []string{op.Path, op.To}
		}
		for _, p := range deleted {
			if r.shardForChildren(p) != shard {
				checks = append(checks, &precheck{op: i, path: p})
			}
		}
	}
	if len(checks) > 0 {
		var wg sync.WaitGroup
		for _, c := range checks {
			wg.Add(1)
			go func(c *precheck) {
				defer wg.Done()
				c.kids, c.err = r.sessions[r.shardForChildren(c.path)].ChildrenCtx(ctx, c.path)
			}(c)
		}
		wg.Wait()
	}
	var stubbed []string
	for _, c := range checks {
		if c.err != nil && !errors.Is(c.err, coord.ErrNoNode) {
			return abortedResults(len(ops), c.op, c.err), c.err
		}
		if c.err == nil {
			if len(c.kids) > 0 {
				// Same race window as Router.delete steps 1-2 (DESIGN.md
				// §7.3); the batch is refused before anything executes.
				return abortedResults(len(ops), c.op, coord.ErrNotEmpty), coord.ErrNotEmpty
			}
			stubbed = append(stubbed, c.path)
		}
	}
	s := r.sessions[shard]
	results, err := s.MultiCtx(ctx, ops)
	if errors.Is(err, coord.ErrNoParent) {
		for _, op := range ops {
			created := ""
			switch op.Kind {
			case coord.OpCreate:
				created = op.Path
			case coord.OpMove:
				created = op.To
			}
			if created != "" {
				if serr := r.ensureAncestors(ctx, s, created); serr != nil {
					return results, err
				}
			}
		}
		results, err = s.MultiCtx(ctx, ops)
	}
	if err == nil {
		// Stub removal is best-effort, after the fact: the transaction
		// has committed, so a failed cleanup (shard down) cannot be
		// surfaced as a batch failure. A leaked stub is the same
		// accepted window as Router.delete's step 3 (DESIGN.md §7.3).
		for _, p := range stubbed {
			_ = r.sessions[r.shardForChildren(p)].DeleteCtx(ctx, p, -1)
		}
	}
	return results, err
}

// abortedResults builds the result vector of a batch refused before
// execution: the failing op carries err, every other op ErrRolledBack.
func abortedResults(n, failing int, err error) []coord.OpResult {
	out := make([]coord.OpResult, n)
	for i := range out {
		out[i].Err = coord.ErrRolledBack
	}
	out[failing].Err = err
	return out
}

// childrenData is a single call on the children shard, like children. A
// directory that exists but has never hosted a child on that shard has
// no stub there; the authoritative copy disambiguates "empty" from "does
// not exist" and supplies the "." entry. On a sharded deployment the "."
// entry of a stubbed directory is the stub's copy of the data, which can
// lag the authoritative copy after a Set — callers reading immutable
// fields from it (DUFS's entry kind) are unaffected; callers needing the
// latest data must Get the path itself.
func (r *Router) childrenData(ctx context.Context, path string) ([]coord.ChildEntry, error) {
	var entries []coord.ChildEntry
	err := r.chase(ctx, func() error {
		var err error
		entries, err = r.sessions[r.shardForChildren(path)].ChildrenDataCtx(ctx, path)
		if errors.Is(err, coord.ErrNoNode) {
			if data, stat, gerr := r.owner(path).GetCtx(ctx, path); gerr == nil {
				entries = []coord.ChildEntry{{Name: ".", Data: data, Stat: stat}}
				return nil
			}
		}
		return err
	})
	return entries, err
}

// children is a single-shard call on the children shard, where a child
// watch registers too: every entry add/remove lands there. A directory
// that exists but has never hosted a child on that shard has no stub
// there; the authoritative copy disambiguates "empty" from "does not
// exist". A watched listing of such a directory materialises the stub
// first, so the watch is real: a later first child both lands on and
// fires from that shard (client caches depend on this — a silently
// absent watch would never invalidate).
func (r *Router) children(ctx context.Context, path string, watch bool) ([]string, error) {
	var kids []string
	err := r.chase(ctx, func() error {
		s := r.sessions[r.shardForChildren(path)]
		list := func() (err error) {
			if watch {
				res, werr := s.Do(ctx, coord.Op{Kind: coord.OpChildren, Path: path, Watch: true})
				kids, err = res.Children, werr
			} else {
				kids, err = s.ChildrenCtx(ctx, path)
			}
			return err
		}
		err := list()
		if !errors.Is(err, coord.ErrNoNode) {
			return err
		}
		if _, ok, eerr := r.exists(ctx, path, false); eerr != nil || !ok {
			return err
		}
		if !watch {
			return nil
		}
		if cerr := r.ensureChain(ctx, s, path); cerr != nil {
			return cerr
		}
		return list()
	})
	return kids, err
}

// streamWait is how long each per-shard forwarder parks one long-poll
// on its ensemble before re-parking (a liveness bound, not a poll
// interval: events release the park immediately).
const streamWait = 30 * time.Second

// startStream lazily launches the event fan-in: one forwarder per
// shard keeps a WaitEvents long-poll parked on its ensemble and pushes
// fired watches into the router's buffer. From that point the router's
// event delivery is fully push-shaped — no timer ever sweeps the
// shards, and the forwarders are the sole server-side consumers, so
// events are never claimed twice.
func (r *Router) startStream() {
	r.streamOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		r.evmu.Lock()
		r.streamStop = cancel
		r.evmu.Unlock()
		for _, s := range r.sessions {
			go func(s coord.Client) {
				for {
					evs, err := s.WaitEvents(ctx, streamWait)
					if ctx.Err() != nil {
						return
					}
					if len(evs) > 0 {
						r.pushEvents(evs)
					}
					if err != nil {
						// Shard unreachable (failover in progress): the
						// watches registered on that server — and any
						// undelivered events — died with it. Surface
						// the error to consumers (a single Session's
						// WaitEvents does the same), so caches drop and
						// re-register instead of trusting dead watches;
						// then back off briefly and re-park on whatever
						// server the session failed over to.
						r.pushError(err)
						select {
						case <-ctx.Done():
							return
						case <-time.After(20 * time.Millisecond):
						}
					}
				}
			}(s)
		}
	})
}

func (r *Router) pushEvents(evs []coord.Event) {
	r.evmu.Lock()
	r.evbuf = append(r.evbuf, evs...)
	r.evmu.Unlock()
	select {
	case r.evnotify <- struct{}{}:
	default:
	}
}

func (r *Router) pushError(err error) {
	r.evmu.Lock()
	r.everr = err
	r.evmu.Unlock()
	select {
	case r.evnotify <- struct{}{}:
	default:
	}
}

// drainBuffer returns pending events, or — only when no events are
// queued — a pending stream error. Events drain before the error so
// nothing already delivered to the router is lost; the error is
// cleared once reported.
func (r *Router) drainBuffer() ([]coord.Event, error) {
	r.evmu.Lock()
	defer r.evmu.Unlock()
	if len(r.evbuf) > 0 {
		evs := r.evbuf
		r.evbuf = nil
		return evs, nil
	}
	err := r.everr
	r.everr = nil
	return nil, err
}

// WaitEvents implements coord.Doer: it blocks on the merged
// per-shard event stream until something fires, maxWait expires, or
// ctx ends. The first call starts the per-shard forwarders; event
// fan-in is push all the way from each shard's commit to this caller.
// A shard failover surfaces as an error, exactly as on a single
// session: events may have been missed, re-register watches.
func (r *Router) WaitEvents(ctx context.Context, maxWait time.Duration) ([]coord.Event, error) {
	r.startStream()
	t := time.NewTimer(maxWait)
	defer t.Stop()
	for {
		if evs, err := r.drainBuffer(); len(evs) > 0 || err != nil {
			return evs, err
		}
		select {
		case <-r.evnotify:
		case <-t.C:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// sync runs the barrier on every shard, so a subsequent read of ANY
// path observes all previously committed writes, whichever ensemble
// they landed on. The barriers are independent per-ensemble leader
// reads with no cross-shard ordering requirement, so they are submitted
// through the async layer — a fan-out costing one round trip to a
// leader instead of Shards().
func (r *Router) sync(ctx context.Context) error {
	if len(r.sessions) == 1 {
		return r.sessions[0].SyncCtx(ctx)
	}
	futs := make([]*coord.Future, len(r.sessions))
	for i, s := range r.sessions {
		futs[i] = s.Begin(ctx, coord.Op{Kind: coord.OpSync})
	}
	var first error
	for _, f := range futs {
		if err := f.Err(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Status implements coord.Doer. Identity fields (server, leader,
// epoch) describe shard 0; Znodes is the aggregate count across all
// shards, which is the number tools actually want from a sharded
// deployment. All shards are queried in parallel.
func (r *Router) Status() (coord.Status, error) {
	sts, err := r.ShardStatus()
	if err != nil {
		return coord.Status{}, err
	}
	agg := sts[0]
	for _, st := range sts[1:] {
		agg.Znodes += st.Znodes
	}
	return agg, nil
}

// ShardStatus reports each shard's own Status, queried in parallel,
// for tools.
func (r *Router) ShardStatus() ([]coord.Status, error) {
	out := make([]coord.Status, len(r.sessions))
	errs := r.eachShard(func(i int, s coord.Client) error {
		st, err := s.Status()
		out[i] = st
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return out, nil
}

var _ coord.Client = (*Router)(nil)

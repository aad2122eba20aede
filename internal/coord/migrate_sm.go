package coord

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/coord/znode"
	"repro/internal/placement"
	"repro/internal/wire"
)

// rangeState is one migration marker on a shard's state machine: a
// hash range that is either fenced (writes bounce retryably while the
// delta ships) or moved (reads and writes bounce permanently to dest).
// A node q belongs to the range iff KeyHash(parent(q)) ∈ [lo,hi) —
// the same predicate the router uses to place q — so fence, export,
// wipe and redirect all agree on exactly which nodes are moving.
type rangeState struct {
	rng   placement.Range
	dest  int
	epoch uint64
	moved bool
}

// isPlacementPath reports whether path lies in the placement subtree,
// which is exempt from fences, moves, exports and wipes (it is pinned
// to shard 0 by the router, never hash-routed).
func isPlacementPath(path string) bool {
	return path == PlacementPrefix || strings.HasPrefix(path, PlacementPrefix+"/")
}

// writeRoutingHash returns the routing coordinate of a node operation
// on path: the hash of its parent directory, mirroring
// shard.Router.ShardFor.
func writeRoutingHash(path string) uint64 {
	parent := "/"
	// Malformed paths (no leading slash) are left to tree validation;
	// routing them as root keeps the bounce check panic-free and still
	// deterministic across replicas.
	if len(path) > 1 && path[0] == '/' {
		parent, _ = znode.SplitPath(path)
	}
	return placement.KeyHash(parent)
}

// rangeFor returns the marker covering hash h, or nil.
func (s *stateMachine) rangeFor(h uint64) *rangeState {
	for i := range s.ranges {
		if s.ranges[i].rng.Contains(h) {
			return &s.ranges[i]
		}
	}
	return nil
}

// bounceWrite decides whether a write transaction addressing path must
// bounce instead of applying: ErrFenced while the range's delta ships,
// MovedError once ownership has flipped. Runs inside apply, on
// replicated state, so every replica returns the identical result.
func (s *stateMachine) bounceWrite(path string) error {
	if isPlacementPath(path) {
		return nil
	}
	h := writeRoutingHash(path)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rs := s.rangeFor(h); rs != nil {
		if rs.moved {
			return &MovedError{Epoch: rs.epoch, Shard: rs.dest}
		}
		return ErrFenced
	}
	return nil
}

// bounceBatch bounces a multi transaction when any path it writes —
// each op's, and a move's destination — bounces.
func (s *stateMachine) bounceBatch(ops []znode.MultiOp) error {
	for _, op := range ops {
		if err := s.bounceWrite(op.Path); err != nil {
			return err
		}
		if op.Kind == znode.MultiMove {
			if err := s.bounceWrite(op.To); err != nil {
				return err
			}
		}
	}
	return nil
}

// bounceRead decides whether a local read addressing path must bounce.
// Only moved ranges bounce reads — a fenced range still serves them
// (the data has not left yet). childKeyed selects the children-listing
// routing rule (hash of path itself) over the node rule (hash of the
// parent), mirroring the router's split.
func (s *stateMachine) bounceRead(path string, childKeyed bool) error {
	if isPlacementPath(path) {
		return nil
	}
	var h uint64
	if childKeyed {
		h = placement.KeyHash(path)
	} else {
		h = writeRoutingHash(path)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rs := s.rangeFor(h); rs != nil && rs.moved {
		return &MovedError{Epoch: rs.epoch, Shard: rs.dest}
	}
	return nil
}

// rangeStates returns a copy of the live markers for status reporting.
func (s *stateMachine) rangeStates() []rangeState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]rangeState(nil), s.ranges...)
}

// applyMigration handles the replicated migration control transactions.
// Layouts (after op byte, session u64, seq u64):
//
//	fenceRange:   lo u64, hi u64, dest u32, epoch u64
//	unfenceRange: lo u64, hi u64
//	rangeMoved:   lo u64, hi u64, dest u32, epoch u64
//	wipeRange:    lo u64, hi u64
//	importRange:  final bool, entry stream, then (if final) manifest
func (s *stateMachine) applyMigration(op uint8, session uint64, r *wire.Reader, zxid uint64) []byte {
	switch op {
	case opFenceRange:
		lo, hi := r.Uint64(), r.Uint64()
		dest := int(r.Uint32())
		epoch := r.Uint64()
		if err := r.Err(); err != nil {
			return errResult(err)
		}
		rng := placement.Range{Lo: lo, Hi: hi}
		s.mu.Lock()
		for i := range s.ranges {
			if s.ranges[i].rng == rng {
				if s.ranges[i].moved {
					mv := &MovedError{Epoch: s.ranges[i].epoch, Shard: s.ranges[i].dest}
					s.mu.Unlock()
					return errResult(mv)
				}
				s.ranges[i] = rangeState{rng: rng, dest: dest, epoch: epoch}
				s.mu.Unlock()
				return okResult(func(w *wire.Writer) { w.Uint64(zxid) })
			}
		}
		s.ranges = append(s.ranges, rangeState{rng: rng, dest: dest, epoch: epoch})
		sort.Slice(s.ranges, func(i, j int) bool { return s.ranges[i].rng.Lo < s.ranges[j].rng.Lo })
		s.mu.Unlock()
		// The fence zxid: every write committed at or before it is in
		// the shard's state; the delta export filters on it.
		return okResult(func(w *wire.Writer) { w.Uint64(zxid) })
	case opUnfenceRange:
		lo, hi := r.Uint64(), r.Uint64()
		if err := r.Err(); err != nil {
			return errResult(err)
		}
		rng := placement.Range{Lo: lo, Hi: hi}
		s.mu.Lock()
		for i := range s.ranges {
			if s.ranges[i].rng == rng && !s.ranges[i].moved {
				s.ranges = append(s.ranges[:i], s.ranges[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		// Idempotent: unfencing an absent range is a no-op success, so a
		// retried abort converges.
		return okResult(nil)
	case opRangeMoved:
		lo, hi := r.Uint64(), r.Uint64()
		dest := int(r.Uint32())
		epoch := r.Uint64()
		if err := r.Err(); err != nil {
			return errResult(err)
		}
		rng := placement.Range{Lo: lo, Hi: hi}
		s.mu.Lock()
		marked := false
		for i := range s.ranges {
			if s.ranges[i].rng == rng {
				s.ranges[i] = rangeState{rng: rng, dest: dest, epoch: epoch, moved: true}
				marked = true
				break
			}
		}
		if !marked {
			s.ranges = append(s.ranges, rangeState{rng: rng, dest: dest, epoch: epoch, moved: true})
			sort.Slice(s.ranges, func(i, j int) bool { return s.ranges[i].rng.Lo < s.ranges[j].rng.Lo })
		}
		s.mu.Unlock()
		deleted := s.wipeRange(rng, session, zxid)
		return okResult(func(w *wire.Writer) { w.Uint32(uint32(deleted)) })
	case opWipeRange:
		lo, hi := r.Uint64(), r.Uint64()
		if err := r.Err(); err != nil {
			return errResult(err)
		}
		deleted := s.wipeRange(placement.Range{Lo: lo, Hi: hi}, session, zxid)
		return okResult(func(w *wire.Writer) { w.Uint32(uint32(deleted)) })
	case opImportRange:
		lo, hi := r.Uint64(), r.Uint64()
		final := r.Bool()
		if err := r.Err(); err != nil {
			return errResult(err)
		}
		rng := placement.Range{Lo: lo, Hi: hi}
		entries, derr := decodeRangeEntries(r)
		if derr != nil {
			return errResult(derr)
		}
		var manifest []string
		if final {
			var merr error
			manifest, merr = decodeManifest(r)
			if merr != nil {
				return errResult(merr)
			}
		}
		imported := 0
		for _, e := range entries {
			// Session IDs are shard-local, so an imported ephemeral is
			// promoted to persistent (DESIGN.md §15 limitation).
			e.Stat.EphemeralOwner = 0
			err := s.tree.PutEntry(znode.WalkEntry{Path: e.Path, Data: e.Data, Stat: e.Stat, Seq: e.Seq}, !e.Stub)
			if err != nil {
				return errResult(fmt.Errorf("import %q: %w", e.Path, err))
			}
			if !e.Stub {
				imported++
				if s.notify != nil {
					s.notify(opCreate, e.Path, session, true)
				}
			}
		}
		reconciled := 0
		if final {
			reconciled = s.reconcileRange(rng, entries, manifest, session, zxid)
			// This shard is becoming the range's owner: a stale moved
			// marker left by an earlier migration away from here would
			// bounce clients off their own data, so the final import
			// retires it. (Non-final pre-copies keep the marker — until
			// the flip, redirecting to the current owner is correct.)
			s.mu.Lock()
			for i := range s.ranges {
				if s.ranges[i].rng == rng && s.ranges[i].moved {
					s.ranges = append(s.ranges[:i], s.ranges[i+1:]...)
					break
				}
			}
			s.mu.Unlock()
		}
		return okResult(func(w *wire.Writer) {
			w.Uint32(uint32(imported))
			w.Uint32(uint32(reconciled))
		})
	default:
		return errResult(fmt.Errorf("unknown migration op %d", op))
	}
}

// collectRange returns the in-range live paths on this shard, in walk
// (parents-first, lexicographic) order, excluding the placement
// subtree — the shared membership scan behind wipe, reconcile and
// export.
func (s *stateMachine) collectRange(rng placement.Range) []string {
	var paths []string
	s.treeRef().Walk(func(e znode.WalkEntry) {
		if isPlacementPath(e.Path) {
			return
		}
		if rng.Contains(writeRoutingHash(e.Path)) {
			paths = append(paths, e.Path)
		}
	})
	return paths
}

// deleteSkippingNonEmpty deletes paths children-first, skipping nodes
// that still have children (an in-range node keeping out-of-range
// children survives as a stub, exactly like the router's cross-shard
// directory stubs). Deterministic: the input is walk-ordered, reversed.
func (s *stateMachine) deleteSkippingNonEmpty(paths []string, session uint64, zxid uint64) int {
	deleted := 0
	for i := len(paths) - 1; i >= 0; i-- {
		if err := s.tree.Delete(paths[i], -1, zxid); err == nil {
			deleted++
			if s.notify != nil {
				s.notify(opDelete, paths[i], session, true)
			}
		}
	}
	return deleted
}

// wipeRange drops this shard's copy of every in-range node (moved
// source, or aborted destination).
func (s *stateMachine) wipeRange(rng placement.Range, session uint64, zxid uint64) int {
	return s.deleteSkippingNonEmpty(s.collectRange(rng), session, zxid)
}

// reconcileRange completes a final delta import: any in-range node
// present locally but absent from the source's live-path manifest was
// deleted on the source after the pre-copy shipped it, so it is
// deleted here too. The import transaction carries the migration
// range explicitly, so reconciliation covers the whole range even
// when the final delta ships no entries at all.
func (s *stateMachine) reconcileRange(rng placement.Range, entries []RangeEntry, manifest []string, session uint64, zxid uint64) int {
	live := make(map[string]bool, len(manifest))
	for _, p := range manifest {
		live[p] = true
	}
	for _, e := range entries {
		live[e.Path] = true // stubs and fresh deltas are live by construction
	}
	var stale []string
	for _, p := range s.collectRange(rng) {
		if !live[p] {
			stale = append(stale, p)
		}
	}
	return s.deleteSkippingNonEmpty(stale, session, zxid)
}

// exportRange captures the shard's in-range nodes changed since a
// zxid, plus stub entries for their ancestors so the destination can
// import parents-first, plus (optionally) the full in-range live-path
// manifest for reconciliation. The capture is fuzzy — the walk is one
// consistent cut, but `since` filtering may over-ship entries whose
// change raced the caller's zxid read, which import's overwrite
// semantics absorb.
func (s *stateMachine) exportRange(rng placement.Range, since uint64, withManifest bool) (entries []RangeEntry, manifest []string) {
	all := make(map[string]znode.WalkEntry)
	var changed []string
	s.treeRef().Walk(func(e znode.WalkEntry) {
		if isPlacementPath(e.Path) {
			return
		}
		all[e.Path] = e
		if !rng.Contains(writeRoutingHash(e.Path)) {
			return
		}
		if withManifest {
			manifest = append(manifest, e.Path)
		}
		if e.Stat.Czxid > since || e.Stat.Mzxid > since {
			changed = append(changed, e.Path)
		}
	})
	shipped := make(map[string]bool, len(changed))
	for _, p := range changed {
		shipped[p] = true
	}
	var ancestors []string
	seen := make(map[string]bool)
	for _, p := range changed {
		for parent, _ := znode.SplitPath(p); parent != "/"; parent, _ = znode.SplitPath(parent) {
			if shipped[parent] || seen[parent] {
				break // an ancestor's own ancestors are already queued
			}
			seen[parent] = true
			ancestors = append(ancestors, parent)
		}
	}
	for _, p := range ancestors {
		e, ok := all[p]
		if !ok {
			continue // unreachable on a consistent cut
		}
		re := RangeEntry{Path: e.Path, Data: e.Data, Stat: e.Stat, Seq: e.Seq, Stub: true}
		re.Stat.EphemeralOwner = 0
		entries = append(entries, re)
	}
	for _, p := range changed {
		e := all[p]
		re := RangeEntry{Path: e.Path, Data: e.Data, Stat: e.Stat, Seq: e.Seq}
		re.Stat.EphemeralOwner = 0
		entries = append(entries, re)
	}
	// Globally parents-first (depth, then path) across stubs AND
	// authoritative entries: a stub under an authoritative directory
	// must not import before that directory exists.
	sort.Slice(entries, func(i, j int) bool {
		di, dj := strings.Count(entries[i].Path, "/"), strings.Count(entries[j].Path, "/")
		if di != dj {
			return di < dj
		}
		return entries[i].Path < entries[j].Path
	})
	return entries, manifest
}

package coord

import (
	"context"
	"fmt"

	"repro/internal/placement"
	"repro/internal/wire"
)

// Migration control-plane methods on Session. These are coordinator
// tooling, not part of the Client interface: a migration talks to a
// specific shard's ensemble directly, never through the router. The
// write ops carry session/seq like every other write, so the dedup
// window gives a retried control transaction exactly-once semantics.

// RangeExportResult is one fuzzy range capture from a shard.
type RangeExportResult struct {
	// Zxid is the replica's applied horizon taken before the capture
	// walk: every transaction at or below it is reflected, later ones
	// may be (over-shipping is absorbed by import's overwrite).
	Zxid     uint64
	Entries  []RangeEntry
	Manifest []string // in-range live paths; only with withManifest
}

// FenceRange plants the migration fence on the connected shard: writes
// routed into rng bounce with ErrFenced until the range is either
// unfenced (abort) or marked moved (flip). Returns the fence zxid —
// the consistent point the delta export is filtered against.
func (s *Session) FenceRange(ctx context.Context, rng placement.Range, dest int, epoch uint64) (uint64, error) {
	w := wire.GetWriter()
	w.Uint8(opFenceRange)
	w.Uint64(s.id)
	w.Uint64(s.seq.Add(1))
	w.Uint64(rng.Lo)
	w.Uint64(rng.Hi)
	w.Uint32(uint32(dest))
	w.Uint64(epoch)
	payload, _, err := s.exchange(ctx, w)
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(payload)
	zxid := r.Uint64()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("coord: malformed fence reply: %w", err)
	}
	return zxid, nil
}

// UnfenceRange lifts a fence (migration abort). Idempotent.
func (s *Session) UnfenceRange(ctx context.Context, rng placement.Range) error {
	w := wire.GetWriter()
	w.Uint8(opUnfenceRange)
	w.Uint64(s.id)
	w.Uint64(s.seq.Add(1))
	w.Uint64(rng.Lo)
	w.Uint64(rng.Hi)
	_, _, err := s.exchange(ctx, w)
	return err
}

// RangeMoved flips ownership on the source shard: the fence marker
// becomes a moved marker (reads and writes now bounce with MovedError
// naming dest/epoch) and the shard drops its copy of the in-range
// nodes. Returns how many nodes were dropped.
func (s *Session) RangeMoved(ctx context.Context, rng placement.Range, dest int, epoch uint64) (int, error) {
	w := wire.GetWriter()
	w.Uint8(opRangeMoved)
	w.Uint64(s.id)
	w.Uint64(s.seq.Add(1))
	w.Uint64(rng.Lo)
	w.Uint64(rng.Hi)
	w.Uint32(uint32(dest))
	w.Uint64(epoch)
	payload, _, err := s.exchange(ctx, w)
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(payload)
	n := int(r.Uint32())
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("coord: malformed range-moved reply: %w", err)
	}
	return n, nil
}

// WipeRange drops the shard's copy of every in-range node without
// planting any marker — the destination-side rollback of an aborted
// migration. Returns how many nodes were dropped.
func (s *Session) WipeRange(ctx context.Context, rng placement.Range) (int, error) {
	w := wire.GetWriter()
	w.Uint8(opWipeRange)
	w.Uint64(s.id)
	w.Uint64(s.seq.Add(1))
	w.Uint64(rng.Lo)
	w.Uint64(rng.Hi)
	payload, _, err := s.exchange(ctx, w)
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(payload)
	n := int(r.Uint32())
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("coord: malformed wipe reply: %w", err)
	}
	return n, nil
}

// ImportRange grafts a batch of exported entries into the connected
// shard. Batches of one migration must arrive in export order (the
// stream is parents-first). The final batch carries the source's
// live-path manifest; the shard then deletes any in-range node absent
// from it (a deletion that raced the pre-copy). Returns the counts of
// authoritative entries imported and stale nodes reconciled away.
func (s *Session) ImportRange(ctx context.Context, rng placement.Range, entries []RangeEntry, final bool, manifest []string) (imported, reconciled int, err error) {
	w := wire.GetWriter()
	w.Uint8(opImportRange)
	w.Uint64(s.id)
	w.Uint64(s.seq.Add(1))
	w.Uint64(rng.Lo)
	w.Uint64(rng.Hi)
	w.Bool(final)
	encodeRangeEntries(w, entries)
	if final {
		encodeManifest(w, manifest)
	}
	payload, _, err := s.exchange(ctx, w)
	if err != nil {
		return 0, 0, err
	}
	r := wire.NewReader(payload)
	imported = int(r.Uint32())
	reconciled = int(r.Uint32())
	if err := r.Err(); err != nil {
		return 0, 0, fmt.Errorf("coord: malformed import reply: %w", err)
	}
	return imported, reconciled, nil
}

// RangeExport captures the connected shard's in-range nodes changed
// since the given zxid (0 = everything), plus ancestor stubs, plus —
// when withManifest is set — the full in-range live-path manifest.
func (s *Session) RangeExport(ctx context.Context, rng placement.Range, since uint64, withManifest bool) (RangeExportResult, error) {
	w := wire.GetWriter()
	w.Uint8(opRangeExport)
	w.Uint64(rng.Lo)
	w.Uint64(rng.Hi)
	w.Uint64(since)
	w.Bool(withManifest)
	w.Uint64(s.seen.Load()) // the cut follows every marker this session planted
	payload, _, err := s.exchange(ctx, w)
	if err != nil {
		return RangeExportResult{}, err
	}
	r := wire.NewReader(payload)
	res := RangeExportResult{Zxid: r.Uint64()}
	res.Entries, err = decodeRangeEntries(r)
	if err != nil {
		return RangeExportResult{}, err
	}
	if r.Bool() {
		res.Manifest, err = decodeManifest(r)
		if err != nil {
			return RangeExportResult{}, err
		}
	}
	if err := r.Err(); err != nil {
		return RangeExportResult{}, fmt.Errorf("coord: malformed export reply: %w", err)
	}
	return res, nil
}

// Range states reported by RangeState.
const (
	RangeNone       uint8 = rangeStateNone
	RangeFenced     uint8 = rangeStateFenced
	RangeMovedState uint8 = rangeStateMoved
)

// RangeState queries the connected shard's marker for exactly rng.
// The recovery sweep uses it to decide roll-forward (moved) versus
// roll-back (fenced or absent).
func (s *Session) RangeState(ctx context.Context, rng placement.Range) (state uint8, dest int, epoch uint64, err error) {
	w := wire.GetWriter()
	w.Uint8(opRangeState)
	w.Uint64(rng.Lo)
	w.Uint64(rng.Hi)
	w.Uint64(s.seen.Load())
	payload, _, err := s.exchange(ctx, w)
	if err != nil {
		return 0, 0, 0, err
	}
	r := wire.NewReader(payload)
	state = r.Uint8()
	dest = int(r.Uint32())
	epoch = r.Uint64()
	if err := r.Err(); err != nil {
		return 0, 0, 0, fmt.Errorf("coord: malformed range-state reply: %w", err)
	}
	return state, dest, epoch, nil
}

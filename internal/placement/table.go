package placement

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/wire"
)

// KeyHash folds a routing key (a znode path, usually a file's
// parent-directory path) into the 64-bit ring coordinate used by
// Locate: the leading 8 bytes of the key's MD5 digest. Exposing it
// lets migration tooling talk about hash ranges in the same coordinate
// space the router walks.
func KeyHash(key string) uint64 {
	sum := md5.Sum([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Range is a half-open interval [Lo, Hi) over the 64-bit routing-hash
// space. Hi == 0 is the one special form: it means "through the top of
// the space" (2^64), so a range ending at the maximum hash is
// representable. A directory's degenerate range is [KeyHash(dir),
// KeyHash(dir)+1).
type Range struct {
	Lo uint64
	Hi uint64
}

// Contains reports whether hash h falls inside the range.
func (r Range) Contains(h uint64) bool {
	if r.Hi == 0 {
		return h >= r.Lo
	}
	return h >= r.Lo && h < r.Hi
}

// valid reports whether the range is non-empty and well-formed.
func (r Range) valid() bool { return r.Hi == 0 || r.Lo < r.Hi }

// end returns the exclusive upper bound for ordering comparisons, with
// Hi==0 sorting above every finite bound.
func (r Range) end() uint64 {
	if r.Hi == 0 {
		return ^uint64(0)
	}
	return r.Hi - 1
}

func (r Range) String() string {
	if r.Hi == r.Lo+1 {
		return fmt.Sprintf("[%#x]", r.Lo)
	}
	return fmt.Sprintf("[%#x,%#x)", r.Lo, r.Hi)
}

// RangeForKey returns the degenerate range covering exactly one
// routing key — the natural argument for "migrate this directory".
func RangeForKey(key string) Range {
	h := KeyHash(key)
	return Range{Lo: h, Hi: h + 1} // h+1 wraps to 0 ("to the end") only for h == MaxUint64
}

// Override pins a hash range to a shard, taking precedence over the
// consistent-hash ring walk.
type Override struct {
	Range
	Shard int
}

// Table is an immutable, epoch-versioned placement map: a consistent
// hash ring over shard indices plus a sorted list of range overrides
// that migrations have carved out of the ring. WithMove returns a new
// table with the epoch incremented, so two routers holding the same
// epoch are guaranteed to resolve every key identically.
type Table struct {
	epoch     uint64
	replicas  int
	members   []int // sorted shard indices on the ring
	overrides []Override
	ring      *Ring
}

// NewTable builds the epoch-0 table over shards 0..shards-1 with no
// overrides — the placement every router assumes at boot.
func NewTable(shards int) (*Table, error) {
	if shards <= 0 {
		return nil, errors.New("placement: need at least one shard")
	}
	members := make([]int, shards)
	for i := range members {
		members[i] = i
	}
	return buildTable(0, DefaultReplicas, members, nil)
}

func buildTable(epoch uint64, replicas int, members []int, overrides []Override) (*Table, error) {
	ring, err := NewRing(members, replicas)
	if err != nil {
		return nil, err
	}
	return &Table{epoch: epoch, replicas: replicas, members: members, overrides: overrides, ring: ring}, nil
}

// Epoch returns the table's version. Epochs only move forward; a
// router that sees a MovedError carrying a higher epoch than its table
// must refresh before retrying.
func (t *Table) Epoch() uint64 { return t.epoch }

// Shards returns the number of shards on the ring.
func (t *Table) Shards() int { return len(t.members) }

// Overrides returns the migrated ranges, sorted by Lo.
func (t *Table) Overrides() []Override { return append([]Override(nil), t.overrides...) }

// LocateHash resolves a routing hash: range overrides win, otherwise
// the ring's clockwise virtual-node walk decides.
func (t *Table) LocateHash(h uint64) int {
	// overrides is sorted by Lo and non-overlapping; find the last
	// override starting at or below h.
	i := sort.Search(len(t.overrides), func(i int) bool { return t.overrides[i].Lo > h })
	if i > 0 && t.overrides[i-1].Contains(h) {
		return t.overrides[i-1].Shard
	}
	return t.ring.owner(h)
}

// Locate resolves a routing key (see KeyHash).
func (t *Table) Locate(key string) int { return t.LocateHash(KeyHash(key)) }

// WithMove returns a new table (epoch+1) in which rng is owned by
// shard dest. Existing overrides fully covered by rng are absorbed;
// a partial overlap is rejected so overrides stay non-overlapping.
func (t *Table) WithMove(rng Range, dest int) (*Table, error) {
	if !rng.valid() {
		return nil, fmt.Errorf("placement: invalid range %v", rng)
	}
	found := false
	for _, m := range t.members {
		if m == dest {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("placement: destination shard %d not in ring", dest)
	}
	next := make([]Override, 0, len(t.overrides)+1)
	for _, ov := range t.overrides {
		if rng.Lo <= ov.Lo && rng.end() >= ov.end() {
			continue // absorbed by the new range
		}
		if rng.Contains(ov.Lo) || rng.Contains(ov.end()) || ov.Contains(rng.Lo) {
			return nil, fmt.Errorf("placement: range %v partially overlaps existing override %v", rng, ov.Range)
		}
		next = append(next, ov)
	}
	next = append(next, Override{Range: rng, Shard: dest})
	sort.Slice(next, func(i, j int) bool { return next[i].Lo < next[j].Lo })
	return buildTable(t.epoch+1, t.replicas, t.members, next)
}

const tableFormat = 1

// Encode serialises the table for storage in the placement znode.
func (t *Table) Encode() []byte {
	var buf bytes.Buffer
	e := wire.NewEncoder(&buf, 0)
	e.Uint8(tableFormat)
	e.Uint64(t.epoch)
	e.Uint32(uint32(t.replicas))
	e.Uint32(uint32(len(t.members)))
	for _, m := range t.members {
		e.Uint32(uint32(m))
	}
	e.Uint32(uint32(len(t.overrides)))
	for _, ov := range t.overrides {
		e.Uint64(ov.Lo)
		e.Uint64(ov.Hi)
		e.Uint32(uint32(ov.Shard))
	}
	if err := e.Flush(); err != nil {
		// bytes.Buffer writes cannot fail; a chunking error here means
		// a programming bug, not runtime input.
		panic(err)
	}
	return buf.Bytes()
}

// DecodeTable parses a table produced by Encode.
func DecodeTable(b []byte) (*Table, error) {
	d := wire.NewDecoder(bytes.NewReader(b))
	if v := d.Uint8(); d.Err() == nil && v != tableFormat {
		return nil, fmt.Errorf("placement: unknown table format %d", v)
	}
	epoch := d.Uint64()
	replicas := int(d.Uint32())
	n := int(d.Uint32())
	if d.Err() != nil {
		return nil, fmt.Errorf("placement: decode table: %w", d.Err())
	}
	if n <= 0 || n > 1<<16 {
		return nil, fmt.Errorf("placement: implausible member count %d", n)
	}
	members := make([]int, n)
	for i := range members {
		members[i] = int(d.Uint32())
	}
	on := int(d.Uint32())
	if d.Err() != nil {
		return nil, fmt.Errorf("placement: decode table: %w", d.Err())
	}
	if on < 0 || on > 1<<20 {
		return nil, fmt.Errorf("placement: implausible override count %d", on)
	}
	overrides := make([]Override, 0, on)
	for i := 0; i < on; i++ {
		ov := Override{Range: Range{Lo: d.Uint64(), Hi: d.Uint64()}, Shard: int(d.Uint32())}
		overrides = append(overrides, ov)
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("placement: decode table: %w", d.Err())
	}
	for i, ov := range overrides {
		if !ov.valid() {
			return nil, fmt.Errorf("placement: invalid override range %v", ov.Range)
		}
		if i > 0 && overrides[i-1].end() >= ov.Lo {
			return nil, fmt.Errorf("placement: overlapping overrides %v, %v", overrides[i-1].Range, ov.Range)
		}
	}
	return buildTable(epoch, replicas, members, overrides)
}

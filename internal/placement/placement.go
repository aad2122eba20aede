// Package placement maps File Identifiers to back-end storage mounts.
//
// The paper's deterministic mapping function (§IV-F) is
//
//	fid -> MD5(fid) mod N
//
// which every DUFS client computes locally, so no coordination is
// needed to locate a file's physical mount. MD5's avalanche property
// gives the near-uniform load balance the paper relies on.
//
// The paper's stated future work (§VII) is to replace MD5-mod-N with
// consistent hashing so back-ends can be added or removed while the
// amount of relocated data stays bounded. Ring implements that
// extension, and RelocationReport quantifies the difference.
package placement

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/fid"
)

// Mapper deterministically assigns a FID to one of N back-end mounts,
// identified by index in [0, N).
type Mapper interface {
	// Locate returns the back-end index for the FID.
	Locate(f fid.FID) int
	// Backends returns N, the number of back-end mounts.
	Backends() int
}

// ModN is the paper's MD5-based mapping function: MD5(fid) mod N.
type ModN struct {
	n int
}

// NewModN returns the paper's mapper over n back-ends.
func NewModN(n int) (*ModN, error) {
	if n <= 0 {
		return nil, errors.New("placement: need at least one back-end")
	}
	return &ModN{n: n}, nil
}

// Locate implements Mapper.
func (m *ModN) Locate(f fid.FID) int {
	d := digest(f)
	return int(d % uint64(m.n))
}

// Backends implements Mapper.
func (m *ModN) Backends() int { return m.n }

// digest hashes the 16-byte FID with MD5 and folds the result into a
// uint64. Using the leading 8 bytes of the digest preserves MD5's
// uniformity (RFC 1321; paper ref [12]).
func digest(f fid.FID) uint64 {
	b := f.Bytes()
	sum := md5.Sum(b[:])
	return binary.BigEndian.Uint64(sum[:8])
}

// Ring is a consistent-hash ring (paper ref [26], Karger et al.) over
// back-end indices, with a configurable number of virtual nodes per
// back-end to smooth the load.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	members  map[int]bool
}

type ringPoint struct {
	hash    uint64
	backend int
}

// DefaultReplicas is the virtual-node count per back-end. 128 keeps
// the max/mean load ratio within a few percent for realistic N.
const DefaultReplicas = 128

// NewRing builds a consistent-hash ring with the given back-end
// indices and replicas virtual nodes per back-end (DefaultReplicas
// if replicas <= 0).
func NewRing(backends []int, replicas int) (*Ring, error) {
	if len(backends) == 0 {
		return nil, errors.New("placement: need at least one back-end")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{replicas: replicas, members: make(map[int]bool)}
	for _, b := range backends {
		if err := r.Add(b); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add inserts a back-end into the ring.
func (r *Ring) Add(backend int) error {
	if backend < 0 {
		return fmt.Errorf("placement: negative back-end index %d", backend)
	}
	if r.members[backend] {
		return fmt.Errorf("placement: back-end %d already in ring", backend)
	}
	r.members[backend] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(backend, i), backend: backend})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return nil
}

// Remove deletes a back-end from the ring.
func (r *Ring) Remove(backend int) error {
	if !r.members[backend] {
		return fmt.Errorf("placement: back-end %d not in ring", backend)
	}
	if len(r.members) == 1 {
		return errors.New("placement: cannot remove the last back-end")
	}
	delete(r.members, backend)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.backend != backend {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

func vnodeHash(backend, replica int) uint64 {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(backend))
	binary.BigEndian.PutUint64(b[8:16], uint64(replica))
	sum := md5.Sum(b[:])
	return binary.BigEndian.Uint64(sum[:8])
}

// Locate implements Mapper: the first virtual node clockwise from the
// FID's hash owns the FID.
func (r *Ring) Locate(f fid.FID) int {
	return r.owner(digest(f))
}

// owner returns the back-end of the first virtual node clockwise from
// hash h.
func (r *Ring) owner(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].backend
}

// Backends implements Mapper.
func (r *Ring) Backends() int { return len(r.members) }

// LoadReport describes how evenly a mapper spreads a FID sample.
type LoadReport struct {
	PerBackend map[int]int
	Max, Min   int
	Mean       float64
}

// Imbalance returns max/mean; 1.0 is a perfect balance.
func (l LoadReport) Imbalance() float64 {
	if l.Mean == 0 {
		return 0
	}
	return float64(l.Max) / l.Mean
}

// MeasureLoad maps every FID in the sample and tallies per-back-end
// counts.
func MeasureLoad(m Mapper, sample []fid.FID) LoadReport {
	counts := make(map[int]int)
	for _, f := range sample {
		counts[m.Locate(f)]++
	}
	rep := LoadReport{PerBackend: counts, Min: int(^uint(0) >> 1)}
	total := 0
	for _, c := range counts {
		total += c
		if c > rep.Max {
			rep.Max = c
		}
		if c < rep.Min {
			rep.Min = c
		}
	}
	if len(counts) > 0 {
		rep.Mean = float64(total) / float64(len(counts))
	} else {
		rep.Min = 0
	}
	return rep
}

// RelocationReport counts how many FIDs in the sample change back-end
// when moving from mapper a to mapper b. For MD5-mod-N growing from N
// to N+1 this approaches (1 - 1/(N+1)) of all files; for a consistent
// hash ring it approaches 1/(N+1) — the paper's future-work claim.
func RelocationReport(a, b Mapper, sample []fid.FID) (moved int) {
	for _, f := range sample {
		if a.Locate(f) != b.Locate(f) {
			moved++
		}
	}
	return moved
}

// Package fid implements the DUFS File Identifier (FID).
//
// A FID is a 128-bit integer that uniquely identifies the *physical
// contents* of a file, decoupled from its virtual name (paper §IV-E).
// It is the concatenation of a 64-bit client ID — unique per DUFS
// client instance — and a 64-bit per-client creation counter, so a
// client can mint FIDs without any coordination.
//
// The FID also determines the physical file name on the chosen
// back-end mount (paper §IV-G): the hexadecimal representation is
// split into components, reversed, so that creation storms spread
// across a static directory hierarchy instead of one flat directory.
// For the paper's 64-bit example:
//
//	FID 0123456789abcdef  ->  cdef/89ab/4567/0123
//
// Our FIDs are 128-bit, so the path has eight 4-hex-digit components:
// the least-significant group first (deepest variability at the top of
// the tree), with the most-significant group as the final file name.
package fid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// FID is a 128-bit file identifier: Hi is the 64-bit client ID,
// Lo is the 64-bit creation counter.
type FID struct {
	Hi uint64 // client ID
	Lo uint64 // creation counter
}

// Zero is the invalid FID. Directories have no FID and use Zero.
var Zero = FID{}

// IsZero reports whether f is the invalid (directory) FID.
func (f FID) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// String returns the canonical 32-digit lowercase hex representation.
func (f FID) String() string {
	return fmt.Sprintf("%016x%016x", f.Hi, f.Lo)
}

// Bytes returns the big-endian 16-byte encoding of the FID.
func (f FID) Bytes() [16]byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], f.Hi)
	binary.BigEndian.PutUint64(b[8:16], f.Lo)
	return b
}

// Parse decodes the canonical 32-hex-digit representation.
func Parse(s string) (FID, error) {
	if len(s) != 32 {
		return Zero, fmt.Errorf("fid: bad length %d (want 32 hex digits)", len(s))
	}
	var f FID
	if _, err := fmt.Sscanf(s[:16], "%016x", &f.Hi); err != nil {
		return Zero, fmt.Errorf("fid: bad hi half %q: %w", s[:16], err)
	}
	if _, err := fmt.Sscanf(s[16:], "%016x", &f.Lo); err != nil {
		return Zero, fmt.Errorf("fid: bad lo half %q: %w", s[16:], err)
	}
	return f, nil
}

// componentLen is the number of hex digits per physical path component.
// The paper splits a 16-digit representation into four 4-digit parts;
// we keep 4-digit parts for our 32-digit FIDs, yielding eight parts.
const componentLen = 4

// PhysicalPath derives the back-end relative path for the FID:
// hex groups in reverse order joined by '/', the most significant group
// last (the file name). See the package comment for the paper example.
func (f FID) PhysicalPath() string {
	hex := f.String()
	n := len(hex) / componentLen
	parts := make([]string, 0, n)
	for i := n - 1; i >= 0; i-- {
		parts = append(parts, hex[i*componentLen:(i+1)*componentLen])
	}
	return strings.Join(parts, "/")
}

// PhysicalDirs returns the directory chain (all components except the
// final file name) used to pre-create the static hierarchy.
func (f FID) PhysicalDirs() []string {
	p := f.PhysicalPath()
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return nil
	}
	return strings.Split(p[:i], "/")
}

// Generator mints FIDs for one DUFS client instance without any
// coordination (paper §IV-E). The counter resets when a client
// restarts; uniqueness then relies on the client acquiring a fresh
// client ID, which internal/cluster guarantees via the coordination
// service's sequential znodes.
type Generator struct {
	clientID uint64
	counter  atomic.Uint64
}

// NewGenerator returns a generator for the given unique client ID.
// A zero clientID is rejected because it would collide with fid.Zero
// on the first allocation.
func NewGenerator(clientID uint64) (*Generator, error) {
	if clientID == 0 {
		return nil, errors.New("fid: client ID must be non-zero")
	}
	return &Generator{clientID: clientID}, nil
}

// ClientID returns the generator's client ID.
func (g *Generator) ClientID() uint64 { return g.clientID }

// Next mints the next FID. Safe for concurrent use.
func (g *Generator) Next() FID {
	return FID{Hi: g.clientID, Lo: g.counter.Add(1)}
}

// Count returns how many FIDs have been minted.
func (g *Generator) Count() uint64 { return g.counter.Load() }

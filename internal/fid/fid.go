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
// Our FIDs are 128-bit, and the same split would make eight levels:
// seven directories to create per file and eight components to walk on
// every stat. The spread comes from the first group alone — the
// counter's low 16 bits, which a client's consecutive creates step
// through one by one — so the path keeps only that group as its one
// directory and the other 28 digits, most significant first, as the
// file name:
//
//	FID 0000000000000000 0123456789abcdef  ->  /cdef/00000000000000000123456789ab
//
// The hierarchy is static and bounded: at most 65 536 directories per
// back-end, each created by the first file that needs it.
package fid

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	var b [32]byte
	f.putHex(b[:])
	return string(b[:])
}

// putHex writes the 32 hex digits of f into b[:32].
func (f FID) putHex(b []byte) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = digits[f.Hi>>(4*(15-i))&0xf]
		b[16+i] = digits[f.Lo>>(4*(15-i))&0xf]
	}
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

// dirLen is the number of hex digits in the physical directory: the
// least significant group, as in the paper's first component.
const dirLen = 4

// PhysicalPath derives the FID's path on its back-end mount: under the
// mount's root, the least significant dirLen hex digits as the
// directory, then '/', then the remaining digits, most significant
// first, as the file name. See the package comment for the paper
// example. The string is the one allocation.
func (f FID) PhysicalPath() string {
	// The digits land behind room for the directory, whose digits are
	// then copied from the tail to the front.
	var b [1 + dirLen + 1 + 32]byte
	f.putHex(b[1+dirLen+1:])
	copy(b[1:1+dirLen], b[len(b)-dirLen:])
	b[0], b[1+dirLen] = '/', '/'
	return string(b[:len(b)-dirLen])
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

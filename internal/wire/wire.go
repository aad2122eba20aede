// Package wire implements the binary message codec and length-prefixed
// framing shared by every RPC protocol in this repository (coordination
// service, Lustre-like MDS/OSS, PVFS-like servers).
//
// The encoding is deliberately simple and allocation-conscious:
// fixed-width big-endian integers, length-prefixed byte strings, and a
// 4-byte frame header on the stream. There is no reflection; each
// protocol marshals its own structs with Writer/Reader.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxFrameSize bounds a single frame to keep a malformed or hostile
// peer from forcing an enormous allocation. 16 MiB comfortably covers
// the largest snapshot chunk the coordination service ships.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// Writer serializes values into an append-grown buffer.
// The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The slice is owned by the Writer
// and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the buffer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Grow ensures capacity for at least n more bytes, so a value Writer
// (`var w wire.Writer`) can pre-size itself without the heap-allocated
// Writer struct NewWriter costs.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	buf := make([]byte, len(w.buf), len(w.buf)+n)
	copy(buf, w.buf)
	w.buf = buf
}

// PatchUint32 overwrites the 4 bytes at off with a big-endian uint32.
// The bytes must already have been written; it is how framed encoders
// reserve a length slot up front and fill it in once the payload size
// is known, so a whole frame goes to the socket in one Write.
func (w *Writer) PatchUint32(off int, v uint32) {
	binary.BigEndian.PutUint32(w.buf[off:off+4], v)
}

// writerPool recycles scratch Writers for encode paths whose buffers
// have a clear end of life (a frame fully written to a socket, a reply
// delivered). Buffers that grew past pooledWriterMaxCap are dropped on
// Put so one huge message cannot pin its footprint in the pool.
var writerPool = sync.Pool{New: func() any { return NewWriter(512) }}

// pooledWriterMaxCap bounds the buffer capacity a pooled Writer may
// retain between uses.
const pooledWriterMaxCap = 64 << 10

// GetWriter returns an empty scratch Writer from the pool.
//
// Ownership contract: the caller owns the Writer and everything
// aliasing its buffer (Bytes() results) until it calls PutWriter. It
// must NOT release a Writer whose bytes a callee may still hold — a
// retained request (e.g. a transaction handed to the replication log)
// or an abandoned in-flight call keeps the buffer alive, and returning
// it to the pool would let a later encode scribble over it.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns a scratch Writer to the pool. See GetWriter for
// when this is safe.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > pooledWriterMaxCap {
		return
	}
	writerPool.Put(w)
}

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Uint16 appends a big-endian uint16.
func (w *Writer) Uint16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// Uint32 appends a big-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a big-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Int64 appends a big-endian int64 (two's complement).
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Int32 appends a big-endian int32 (two's complement).
func (w *Writer) Int32(v int32) { w.Uint32(uint32(v)) }

// Bytes32 appends a uint32 length prefix followed by the bytes.
func (w *Writer) Bytes32(b []byte) {
	w.Uint32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a uint32 length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// StringSlice appends a uint32 count followed by each string.
func (w *Writer) StringSlice(ss []string) {
	w.Uint32(uint32(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Reader deserializes values from a byte slice. Errors are sticky:
// after the first failure every subsequent read returns the zero value
// and Err() reports the original problem, so call sites can decode a
// whole struct and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset points the Reader at buf and clears any sticky error, so a
// value Reader (`var r wire.Reader; r.Reset(msg)`) decodes without the
// heap allocation NewReader's escaping pointer usually costs.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
	r.err = nil
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail marks the reader as failed with a caller-supplied error (e.g. a
// structurally impossible element count), so subsequent reads return
// zero values and Err reports the problem. A reader that already
// failed keeps its original error.
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string, need int) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s: need %d bytes, have %d", what, need, r.Remaining())
	}
}

func (r *Reader) take(what string, n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail(what, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	b := r.take("uint8", 1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint16 reads a big-endian uint16.
func (r *Reader) Uint16() uint16 {
	b := r.take("uint16", 2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take("uint32", 4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take("uint64", 8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads a big-endian int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Int32 reads a big-endian int32.
func (r *Reader) Int32() int32 { return int32(r.Uint32()) }

// Bytes32 reads a uint32 length prefix and returns that many bytes.
// The returned slice aliases the Reader's buffer.
func (r *Reader) Bytes32() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if int(n) > r.Remaining() {
		r.fail("bytes", int(n))
		return nil
	}
	return r.take("bytes", int(n))
}

// BytesCopy32 reads like Bytes32 but returns a copy safe to retain.
func (r *Reader) BytesCopy32() []byte {
	b := r.Bytes32()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// BorrowBytes reads a uint32 length prefix and returns that many bytes
// WITHOUT copying.
//
// Aliasing contract: the returned slice aliases the Reader's backing
// buffer and is only valid while that buffer is — until the frame is
// released back to a pool, the connection reuses its read buffer, or
// the enclosing call returns. A caller may decode-then-apply (hand the
// slice to code that copies before returning, like the znode tree's
// Create/Set which duplicate data internally) but must never store the
// slice, put it in a struct that outlives the call, or hand it to the
// replication log. When in doubt, use BytesCopy32.
func (r *Reader) BorrowBytes() []byte {
	return r.Bytes32()
}

// String reads a uint32 length prefix and returns that many bytes as a
// string (always a copy).
func (r *Reader) String() string {
	return string(r.Bytes32())
}

// StringSlice reads a uint32 count followed by that many strings.
func (r *Reader) StringSlice() []string {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if int(n) > r.Remaining()/4 { // each string needs >= 4 bytes of prefix
		r.fail("string slice", int(n))
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		out = append(out, r.String())
	}
	return out
}

// ReadFrameInto reads one length-prefixed frame into buf, reusing its
// backing array when the capacity suffices and growing otherwise. The
// returned payload aliases buf (or its replacement) — callers own the
// buffer's lifetime and must not reuse it while the payload is live.
// The length header is read into buf's array too: a header of its own
// would escape through r and cost an allocation per frame.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Uint8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.Uint16(0x1234)
	w.Uint32(0xdeadbeef)
	w.Uint64(0x0123456789abcdef)
	w.Int64(-42)
	w.Int32(-7)

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 0xab {
		t.Fatalf("Uint8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.Uint16(); got != 0x1234 {
		t.Fatalf("Uint16 = %#x", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Fatalf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 0x0123456789abcdef {
		t.Fatalf("Uint64 = %#x", got)
	}
	if got := r.Int64(); got != -42 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.Int32(); got != -7 {
		t.Fatalf("Int32 = %d", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", r.Remaining())
	}
}

func TestStringAndBytesRoundTrip(t *testing.T) {
	if err := quick.Check(func(s string, b []byte, ss []string) bool {
		w := NewWriter(0)
		w.String(s)
		w.Bytes32(b)
		w.StringSlice(ss)
		r := NewReader(w.Bytes())
		gs := r.String()
		gb := r.BytesCopy32()
		gss := r.StringSlice()
		if r.Err() != nil {
			return false
		}
		if gs != s || !bytes.Equal(gb, b) && !(len(gb) == 0 && len(b) == 0) {
			return false
		}
		if len(gss) != len(ss) {
			return false
		}
		for i := range ss {
			if gss[i] != ss[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.Uint32() // truncated
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	first := r.Err()
	_ = r.Uint64()
	_ = r.String()
	if r.Err() != first {
		t.Fatal("error should be sticky")
	}
}

func TestReaderTruncatedString(t *testing.T) {
	w := NewWriter(0)
	w.String("hello")
	buf := w.Bytes()[:6] // cut mid-string
	r := NewReader(buf)
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("expected error on truncated string")
	}
}

func TestStringSliceHugeCountRejected(t *testing.T) {
	// A corrupt frame claiming more strings than its bytes can hold
	// (each needs a 4-byte prefix) must fail before allocating a string
	// header per claimed string.
	const body = 1 << 20 // zero bytes: each would decode as an empty string
	for _, count := range []uint32{1 << 31, body/4 + 1} {
		msg := make([]byte, 4+body)
		binary.BigEndian.PutUint32(msg, count)
		r := NewReader(msg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := r.StringSlice()
		runtime.ReadMemStats(&after)
		if r.Err() == nil {
			t.Fatalf("count %d in %d bytes: expected an error", count, body)
		}
		if len(out) != 0 {
			t.Fatalf("count %d: got %d strings from corrupt input", count, len(out))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16*body/4 {
			t.Fatalf("count %d in %d bytes: allocated %d bytes before failing", count, body, grew)
		}
	}
}

// frame writes payload as one length-prefixed frame.
func frame(buf *bytes.Buffer, payload []byte) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	for _, p := range payloads {
		frame(&buf, p)
	}
	var scratch []byte
	for _, p := range payloads {
		got, err := ReadFrameInto(&buf, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame round trip: got %d bytes, want %d", len(got), len(p))
		}
		scratch = got
	}
	if _, err := ReadFrameInto(&buf, scratch[:0]); err != io.EOF {
		t.Fatalf("expected EOF at end, got %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A header claiming an oversized frame is refused before its body
	// is allocated.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrameInto(&buf, nil); err != ErrFrameTooLarge {
		t.Fatalf("ReadFrameInto error = %v, want ErrFrameTooLarge", err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.Uint64(1)
	if w.Len() != 8 {
		t.Fatalf("Len = %d", w.Len())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
}

func TestReaderFail(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4})
	r.Fail(nil) // nil must not mark the reader failed
	if r.Err() != nil {
		t.Fatal("Fail(nil) set an error")
	}
	sentinel := errors.New("structurally impossible count")
	r.Fail(sentinel)
	if r.Err() != sentinel {
		t.Fatalf("Err() = %v, want sentinel", r.Err())
	}
	if got := r.Uint8(); got != 0 {
		t.Fatalf("read after Fail = %d, want zero value", got)
	}
	r.Fail(errors.New("second"))
	if r.Err() != sentinel {
		t.Fatal("Fail overwrote the original error")
	}
}

package storage

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"testing"
)

func flipByteInFile(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// patternReader generates size deterministic pseudo-random bytes
// without ever holding more than one Read's worth in memory — the
// producer half of the O(chunk) memory proofs.
type patternReader struct {
	size int64
	off  int64
	seed uint64
}

func (pr *patternReader) Read(p []byte) (int, error) {
	if pr.off >= pr.size {
		return 0, io.EOF
	}
	n := len(p)
	if rem := pr.size - pr.off; int64(n) > rem {
		n = int(rem)
	}
	x := pr.seed + uint64(pr.off)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p[i] = byte(x >> 33)
	}
	pr.off += int64(n)
	return n, nil
}

// readAllDiscardChunked drains r through a fixed buffer, returning the
// byte count — the consumer half of the memory proofs.
func readAllDiscardChunked(t *testing.T, r io.Reader, chunk int) int64 {
	t.Helper()
	buf := make([]byte, chunk)
	var total int64
	for {
		n, err := r.Read(buf)
		total += int64(n)
		if err == io.EOF {
			return total
		}
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
	}
}

func TestStreamingSnapshotRoundtrip(t *testing.T) {
	e := openT(t, t.TempDir())
	body := []byte("streamed snapshot body with some length to it")
	if err := e.SaveSnapshotFrom(bytes.NewReader(body), 7); err != nil {
		t.Fatal(err)
	}
	rc, z, ok := e.SnapshotStream()
	if !ok || z != 7 {
		t.Fatalf("SnapshotStream = (_, %d, %v), want (_, 7, true)", z, ok)
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("streamed body mismatch: got %d bytes", len(got))
	}
}

// TestInstallSnapshotFromBoundedMemory is the O(chunk) proof demanded
// by the streaming design: installing (and then reading back) a
// snapshot far larger than the chunk budget must allocate on the order
// of the chunk, never the snapshot. The body is generated and drained
// through fixed buffers, so any full-size buffering would show up in
// the allocation delta.
func TestInstallSnapshotFromBoundedMemory(t *testing.T) {
	const (
		snapSize = int64(32 << 20) // 32 MiB body
		chunk    = 64 << 10        // 64 KiB budget
	)
	e := openT(t, t.TempDir(), func(o *Options) { o.SnapChunkSize = chunk })

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	if err := e.InstallSnapshotFrom(&patternReader{size: snapSize, seed: 1}, 99); err != nil {
		t.Fatal(err)
	}
	rc, z, ok := e.SnapshotStream()
	if !ok || z != 99 {
		t.Fatalf("SnapshotStream = (_, %d, %v), want (_, 99, true)", z, ok)
	}
	if got := readAllDiscardChunked(t, rc, chunk); got != snapSize {
		t.Fatalf("streamed %d bytes back, want %d", got, snapSize)
	}
	rc.Close()

	runtime.ReadMemStats(&after)
	delta := int64(after.TotalAlloc - before.TotalAlloc)
	// Generous slack for the two chunk buffers, file handles and test
	// scaffolding — but far below the 32 MiB a buffering implementation
	// would pay.
	if limit := snapSize / 4; delta > limit {
		t.Fatalf("install+stream of a %d MiB snapshot allocated %d bytes (limit %d): snapshot path is buffering, not streaming",
			snapSize>>20, delta, limit)
	}

	// And the installed snapshot recovers: reopen and check the horizon.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openT(t, e.opt.Dir, func(o *Options) { o.SnapChunkSize = chunk })
	if got := e2.snapZxid; got != 99 {
		t.Fatalf("recovered snapshot zxid = %d, want 99", got)
	}
	if got := e2.LastDurableZxid(); got != 99 {
		t.Fatalf("recovered durable horizon = %d, want 99", got)
	}
}

// TestSnapshotStreamDetectsCorruption flips one body byte and demands
// the validating reader report it in place of EOF — the property the
// zab recovery path relies on to refuse a corrupt restore.
func TestSnapshotStreamDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	body := bytes.Repeat([]byte{0xAB}, 4096)
	if err := e.SaveSnapshotFrom(bytes.NewReader(body), 5); err != nil {
		t.Fatal(err)
	}
	rc, _, ok := e.SnapshotStream()
	if !ok {
		t.Fatal("no snapshot stream")
	}
	// Corrupt the file after the stream opened (the reader validates
	// lazily, at end-of-body).
	flipByteInFile(t, e.snapPath(5), snapHeaderSize+100)
	_, err := io.ReadAll(rc)
	rc.Close()
	if err == nil {
		t.Fatal("reading a corrupt snapshot stream reached EOF without error")
	}
}

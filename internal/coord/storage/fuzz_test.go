package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/coord/zab"
)

// FuzzOpenSegment runs recovery over a data directory holding one WAL
// segment whose bytes are the input. Open must never panic: it either
// refuses the directory as corrupt or recovers a log, and a second Open
// of the same directory (after the first has cut any torn tail) must
// recover exactly the same frames and hard state. The seeds are a valid
// multi-record segment cut at every byte, and the same segment with one
// CRC byte of a record in the middle flipped.
//
// Real fuzzing:
//
//	go test -run '^$' -fuzz FuzzOpenSegment -fuzztime 20s -parallel 2 ./internal/coord/storage/
func FuzzOpenSegment(f *testing.F) {
	body := validSegment(f)
	for i := 0; i <= len(body); i++ {
		f.Add(body[:i])
	}
	flipped := append([]byte(nil), body...)
	second := recHeaderSize + int(binary.BigEndian.Uint32(flipped))
	flipped[second+4] ^= 0x01 // a CRC byte of the second record
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(Options{Dir: dir})
		if err != nil {
			return // refused as corrupt
		}
		frames := e.Frames()
		epoch, granted := e.HardState()
		durable := e.LastDurableZxid()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("a recovered directory is refused on the second open: %v", err)
		}
		defer again.Close()
		if got := again.Frames(); !reflect.DeepEqual(got, frames) {
			t.Fatalf("second open recovered %d frames %v, first %d frames %v", len(got), got, len(frames), frames)
		}
		if e2, g2 := again.HardState(); e2 != epoch || g2 != granted {
			t.Fatalf("second open hard state (%d, %d), first (%d, %d)", e2, g2, epoch, granted)
		}
		if d := again.LastDurableZxid(); d != durable {
			t.Fatalf("second open durable zxid %x, first %x", d, durable)
		}
	})
}

// validSegment writes a hard state and frames of every shape through an
// engine and returns the written prefix of its segment.
func validSegment(f *testing.F) []byte {
	dir := f.TempDir()
	e, err := Open(Options{Dir: dir, SegmentSize: 4096})
	if err != nil {
		f.Fatal(err)
	}
	if err := e.SaveHardState(3, 3); err != nil {
		f.Fatal(err)
	}
	frames := []zab.Frame{
		{Zxid: 3<<32 | 1, Noop: true},
		frame(3<<32|2, "create /a", "", "set /a"),
		frame(3<<32|5, "delete /a"),
	}
	if err := e.Append(frames); err != nil {
		f.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		f.Fatal(err)
	}
	e.mu.Lock()
	end := e.activeLocked().off
	e.mu.Unlock()
	if err := e.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal-00000001.seg"))
	if err != nil {
		f.Fatal(err)
	}
	return data[:end]
}

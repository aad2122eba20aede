package fid

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestStringRoundTrip(t *testing.T) {
	f := FID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	s := f.String()
	if len(s) != 32 {
		t.Fatalf("String() length = %d, want 32", len(s))
	}
	got, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if got != f {
		t.Fatalf("round trip = %v, want %v", got, f)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	cases := []string{"", "0123", strings.Repeat("0", 31), strings.Repeat("g", 32)}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	if err := quick.Check(func(hi, lo uint64) bool {
		f := FID{Hi: hi, Lo: lo}
		b := f.Bytes()
		return binary.BigEndian.Uint64(b[:8]) == hi && binary.BigEndian.Uint64(b[8:]) == lo
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalPathPaperExample(t *testing.T) {
	// The paper's example uses a 64-bit FID 0123456789abcdef ->
	// cdef/89ab/4567/0123. Our FIDs are 128-bit; with Hi=0 and
	// Lo=0x0123456789abcdef the low half must reproduce the paper's
	// component order at the tail of the path, with the zero groups
	// of the high half at the file-name end.
	f := FID{Hi: 0, Lo: 0x0123456789abcdef}
	p := f.PhysicalPath()
	want := "cdef/89ab/4567/0123/0000/0000/0000/0000"
	if p != want {
		t.Fatalf("PhysicalPath() = %q, want %q", p, want)
	}
}

func TestPhysicalPathRoundTrip(t *testing.T) {
	if err := quick.Check(func(hi, lo uint64) bool {
		f := FID{Hi: hi, Lo: lo}
		// The components are the hex groups, least significant first.
		parts := strings.Split(f.PhysicalPath(), "/")
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		got, err := Parse(strings.Join(parts, ""))
		return len(parts) == 32/componentLen && err == nil && got == f
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalDirs(t *testing.T) {
	f := FID{Hi: 1, Lo: 2}
	dirs := f.PhysicalDirs()
	if len(dirs) != 7 {
		t.Fatalf("PhysicalDirs() has %d components, want 7", len(dirs))
	}
	full := f.PhysicalPath()
	if !strings.HasPrefix(full, strings.Join(dirs, "/")+"/") {
		t.Fatalf("dirs %v are not a prefix of %q", dirs, full)
	}
}

func TestGeneratorRejectsZeroClient(t *testing.T) {
	if _, err := NewGenerator(0); err == nil {
		t.Fatal("NewGenerator(0) succeeded, want error")
	}
}

func TestGeneratorSequential(t *testing.T) {
	g, err := NewGenerator(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		f := g.Next()
		if f.Hi != 42 || f.Lo != i {
			t.Fatalf("Next() = %v, want {42 %d}", f, i)
		}
	}
	if g.Count() != 100 {
		t.Fatalf("Count() = %d, want 100", g.Count())
	}
}

func TestGeneratorConcurrentUniqueness(t *testing.T) {
	g, err := NewGenerator(7)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 1000
	out := make(chan FID, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				out <- g.Next()
			}
		}()
	}
	wg.Wait()
	close(out)
	seen := make(map[FID]bool, workers*perWorker)
	for f := range out {
		if seen[f] {
			t.Fatalf("duplicate FID %v", f)
		}
		seen[f] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("got %d unique FIDs, want %d", len(seen), workers*perWorker)
	}
}

func TestGeneratorsFromDistinctClientsNeverCollide(t *testing.T) {
	if err := quick.Check(func(a, b uint64) bool {
		if a == 0 || b == 0 || a == b {
			return true // precondition, not a test failure
		}
		ga, _ := NewGenerator(a)
		gb, _ := NewGenerator(b)
		return ga.Next() != gb.Next()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroFID(t *testing.T) {
	if !Zero.IsZero() {
		t.Fatal("Zero.IsZero() = false")
	}
	if (FID{Hi: 1}).IsZero() {
		t.Fatal("{1,0}.IsZero() = true")
	}
}

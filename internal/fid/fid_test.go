package fid

import (
	"encoding/binary"
	"fmt"
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

func TestStringMatchesSprintf(t *testing.T) {
	if err := quick.Check(func(hi, lo uint64) bool {
		f := FID{Hi: hi, Lo: lo}
		return f.String() == fmt.Sprintf("%016x%016x", hi, lo)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalPathPaperExample(t *testing.T) {
	// The paper's 64-bit FID 0123456789abcdef puts its last group, cdef,
	// first. With Hi=0 and Lo=0x0123456789abcdef that group is the one
	// directory, and the other 28 digits, in order, are the file name.
	f := FID{Hi: 0, Lo: 0x0123456789abcdef}
	p := f.PhysicalPath()
	want := "/cdef/00000000000000000123456789ab"
	if p != want {
		t.Fatalf("PhysicalPath() = %q, want %q", p, want)
	}
}

func TestPhysicalPathRoundTrip(t *testing.T) {
	if err := quick.Check(func(hi, lo uint64) bool {
		f := FID{Hi: hi, Lo: lo}
		// Two components under the root: the low group, then the rest
		// of the digits.
		rel, rooted := strings.CutPrefix(f.PhysicalPath(), "/")
		parts := strings.Split(rel, "/")
		if !rooted || len(parts) != 2 || len(parts[0]) != 4 || len(parts[1]) != 28 {
			return false
		}
		got, err := Parse(parts[1] + parts[0])
		return err == nil && got == f
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalDirs(t *testing.T) {
	// Exactly one directory, named by the counter's low 16 bits, so
	// consecutive creates of one client land in consecutive directories
	// and a back-end holds at most 65 536 of them.
	for _, c := range []struct {
		f   FID
		dir string
	}{
		{FID{Hi: 1, Lo: 2}, "0002"},
		{FID{Hi: 1, Lo: 3}, "0003"},
		{FID{Hi: 1, Lo: 0x1ffff}, "ffff"},
		{FID{Hi: 9, Lo: 0x20000}, "0000"},
	} {
		p := c.f.PhysicalPath()
		dir, name, ok := strings.Cut(strings.TrimPrefix(p, "/"), "/")
		if !ok || p[0] != '/' || strings.Contains(name, "/") {
			t.Fatalf("PhysicalPath() = %q, want exactly one directory", p)
		}
		if dir != c.dir {
			t.Errorf("%v: directory %q, want %q", c.f, dir, c.dir)
		}
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

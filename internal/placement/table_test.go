package placement

import (
	"fmt"
	"testing"
)

func TestTableMoveOverridesRing(t *testing.T) {
	tbl, err := NewTable(4)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Epoch() != 0 {
		t.Fatalf("fresh table epoch = %d, want 0", tbl.Epoch())
	}
	key := "/lg/d0"
	src := tbl.Locate(key)
	dest := (src + 1) % tbl.Shards()
	moved, err := tbl.WithMove(RangeForKey(key), dest)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Epoch() != 1 {
		t.Fatalf("epoch after move = %d, want 1", moved.Epoch())
	}
	if got := moved.Locate(key); got != dest {
		t.Fatalf("moved key resolves to %d, want %d", got, dest)
	}
	// Every other key keeps its ring placement: the degenerate range
	// covers exactly one hash.
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("/lg/other%d", i)
		if k == key {
			continue
		}
		if moved.Locate(k) != tbl.Locate(k) {
			t.Fatalf("unrelated key %q changed shard: %d -> %d", k, tbl.Locate(k), moved.Locate(k))
		}
	}
}

func TestTableInterleavingsDeterministic(t *testing.T) {
	// The same sequence of moves applied to two independently
	// constructed tables must resolve every key identically — nothing
	// about placement may depend on construction history beyond the
	// moves themselves.
	build := func() *Table {
		tbl, err := NewTable(4)
		if err != nil {
			t.Fatal(err)
		}
		for _, mv := range []struct {
			rng  Range
			dest int
		}{
			{Range{Lo: 0x1000, Hi: 0x2000}, 2},
			{RangeForKey("/hot/dir"), 0},
			{Range{Lo: 0x2000, Hi: 0x3000}, 3},
		} {
			if tbl, err = tbl.WithMove(mv.rng, mv.dest); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	a, b := build(), build()
	if a.Epoch() != b.Epoch() || a.Epoch() != 3 {
		t.Fatalf("epochs diverged: %d vs %d (want 3)", a.Epoch(), b.Epoch())
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("/ns/dir%d", i)
		if a.Locate(k) != b.Locate(k) {
			t.Fatalf("key %q: %d vs %d", k, a.Locate(k), b.Locate(k))
		}
	}
	if got := a.LocateHash(0x1500); got != 2 {
		t.Fatalf("override [0x1000,0x2000) lost: hash 0x1500 -> shard %d, want 2", got)
	}
	if got := a.LocateHash(0x2500); got != 3 {
		t.Fatalf("override [0x2000,0x3000) lost: hash 0x2500 -> shard %d, want 3", got)
	}
}

func TestTableMoveOverlapRules(t *testing.T) {
	tbl, err := NewTable(2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err = tbl.WithMove(Range{Lo: 100, Hi: 200}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A fully-covering move absorbs the old override.
	wide, err := tbl.WithMove(Range{Lo: 50, Hi: 300}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wide.Overrides()); n != 1 {
		t.Fatalf("absorbing move left %d overrides, want 1", n)
	}
	if got := wide.LocateHash(150); got != 0 {
		t.Fatalf("absorbed range resolves to %d, want 0", got)
	}
	// A partial overlap is rejected.
	if _, err := tbl.WithMove(Range{Lo: 150, Hi: 250}, 0); err == nil {
		t.Fatal("partial overlap accepted")
	}
	// Re-moving the exact range is allowed (it is fully covered).
	back, err := tbl.WithMove(Range{Lo: 100, Hi: 200}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.LocateHash(150); got != 0 {
		t.Fatalf("re-move resolves to %d, want 0", got)
	}
}

func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	tbl, err := NewTable(3)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err = tbl.WithMove(Range{Lo: 0xdead0000, Hi: 0xdeadffff}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err = tbl.WithMove(RangeForKey("/lg/d1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTable(tbl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != tbl.Epoch() || got.Shards() != tbl.Shards() {
		t.Fatalf("round trip: epoch %d/%d shards %d/%d", got.Epoch(), tbl.Epoch(), got.Shards(), tbl.Shards())
	}
	if len(got.Overrides()) != len(tbl.Overrides()) {
		t.Fatalf("round trip overrides: %d vs %d", len(got.Overrides()), len(tbl.Overrides()))
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("/rt/%d", i)
		if got.Locate(k) != tbl.Locate(k) {
			t.Fatalf("key %q resolves differently after round trip", k)
		}
	}
	if _, err := DecodeTable([]byte{0xff, 0x00}); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Lo: 10, Hi: 20}
	for h, want := range map[uint64]bool{9: false, 10: true, 19: true, 20: false} {
		if r.Contains(h) != want {
			t.Fatalf("Contains(%d) = %v, want %v", h, !want, want)
		}
	}
	top := Range{Lo: ^uint64(0), Hi: 0} // wraps: covers only the max hash
	if !top.Contains(^uint64(0)) || top.Contains(0) {
		t.Fatal("top-of-space range mishandled")
	}
}

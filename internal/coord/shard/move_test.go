package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/coord"
	"repro/internal/coord/znode"
)

// dirWhere returns the first name /<prefix><i> that satisfies ok.
func dirWhere(prefix string, ok func(string) bool) string {
	for i := 0; ; i++ {
		if cand := fmt.Sprintf("/%s%d", prefix, i); ok(cand) {
			return cand
		}
	}
}

// TestRouterNeverSplitsAMove: a move whose two names route to different
// shards is refused before any op of its batch runs — no sub-transaction
// could hold it — while one whose names share a shard commits whole.
func TestRouterNeverSplitsAMove(t *testing.T) {
	r, _, _ := startSharded(t, 4, 1)
	a := dirWhere("a", func(string) bool { return true })
	b := dirWhere("b", func(p string) bool { return r.ShardFor(p+"/f") != r.ShardFor(a+"/f") })
	other := dirWhere("o", func(p string) bool { return r.ShardFor(p+"/x") != r.ShardFor(a+"/f") })
	for _, p := range []string{a, b, other, a + "/f"} {
		if _, err := r.Create(p, []byte(p), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	if r.Atomic(a+"/f", b+"/f") {
		t.Fatal("the two names share a shard; the test is vacuous")
	}
	for _, batch := range [][]coord.Op{
		{coord.MoveOp(a+"/f", b+"/f", nil)},
		{coord.CreateOp(other+"/x", nil, znode.ModePersistent), coord.MoveOp(a+"/f", b+"/f", nil)},
	} {
		if _, err := r.Multi(batch); err == nil {
			t.Fatalf("a batch moving %s to another shard's %s committed", a+"/f", b+"/f")
		}
	}
	for p, want := range map[string]bool{a + "/f": true, b + "/f": false, other + "/x": false} {
		if _, ok, err := r.Exists(p); err != nil || ok != want {
			t.Fatalf("after the refused batches %s exists = %v, %v; want %v", p, ok, err, want)
		}
	}
	if _, err := r.Multi([]coord.Op{coord.CheckDataOp(a+"/f", -1, nil), coord.MoveOp(a+"/f", a+"/g", nil)}); err != nil {
		t.Fatalf("a move within one directory: %v", err)
	}
	if data, _, err := r.Get(a + "/g"); err != nil || string(data) != a+"/f" {
		t.Fatalf("%s/g = %q, %v", a, data, err)
	}
}

// TestRouterMoveMaterialisesStubs moves a file into a directory whose
// children shard has never hosted a child, so holds no stub of it: the
// router materialises the destination's ancestors there, as it does for
// a create, and retries the batch.
func TestRouterMoveMaterialisesStubs(t *testing.T) {
	r, _, direct := startSharded(t, 4, 1)
	dst := dirWhere("dst", func(p string) bool { return r.ShardFor(p) != r.shardForChildren(p) })
	src := dirWhere("src", func(p string) bool { return r.shardForChildren(p) == r.shardForChildren(dst) })
	for _, p := range []string{dst, src, src + "/f"} {
		if _, err := r.Create(p, []byte(p), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	kids := direct[r.shardForChildren(dst)]
	if _, ok, _ := kids.Exists(dst); ok {
		t.Fatal("the destination's children shard already holds a stub; the test is vacuous")
	}
	if !r.Atomic(src+"/f", dst+"/f") {
		t.Fatal("the two names do not share a shard")
	}
	if _, err := r.Multi([]coord.Op{coord.CheckDataOp(src+"/f", -1, nil), coord.MoveOp(src+"/f", dst+"/f", nil)}); err != nil {
		t.Fatalf("a move into a stubless directory: %v", err)
	}
	if names, err := r.Children(dst); err != nil || len(names) != 1 || names[0] != "f" {
		t.Fatalf("children of %s = %v, %v; want [f]", dst, names, err)
	}
	if names, err := r.Children(src); err != nil || len(names) != 0 {
		t.Fatalf("children of %s = %v, %v; want none", src, names, err)
	}
}

// TestRouterMoveKeepsTheDeleteContract: a move deletes its source, and
// the router treats that delete as its own: a directory with children
// on another shard is not moved (the executing shard cannot see them),
// and an empty one leaves no stub behind on its children shard.
func TestRouterMoveKeepsTheDeleteContract(t *testing.T) {
	r, _, direct := startSharded(t, 4, 1)
	dir := dirWhere("md", func(p string) bool { return r.ShardFor(p) != r.shardForChildren(p) })
	for _, p := range []string{dir, dir + "/kid"} {
		if _, err := r.Create(p, nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	moved := dir + "x"
	if _, err := r.Multi([]coord.Op{coord.MoveOp(dir, moved, nil)}); !errors.Is(err, coord.ErrNotEmpty) {
		t.Fatalf("moving a directory with children on another shard = %v, want ErrNotEmpty", err)
	}
	if _, ok, _ := r.Exists(dir); !ok {
		t.Fatal("the refused move moved the directory anyway")
	}
	if err := r.Delete(dir+"/kid", -1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Multi([]coord.Op{coord.MoveOp(dir, moved, nil)}); err != nil {
		t.Fatal(err)
	}
	for s, sess := range direct {
		if _, ok, _ := sess.Exists(dir); ok {
			t.Fatalf("shard %d still holds %s after the move (ghost stub)", s, dir)
		}
	}
	if _, ok, err := r.Exists(moved); err != nil || !ok {
		t.Fatalf("%s after the move: %v, %v", moved, ok, err)
	}
}

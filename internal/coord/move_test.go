package coord

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/coord/znode"
	"repro/internal/placement"
)

// TestMoveOverTheWire sends a move to a free name and over a node: the
// results carry what was replaced, the moved node holds the source's
// data, and a retry of the committed batch replays its reply from the
// dedup window.
func TestMoveOverTheWire(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)
	for _, p := range []string{"/m", "/m/a", "/m/b"} {
		if _, err := s.Create(p, []byte("data "+p), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	_, bStat, _ := s.Get("/m/b")
	res, err := s.Multi([]Op{MoveOp("/m/a", "/m/c", nil)})
	if err != nil || len(res) != 1 || len(res[0].Data) != 0 || res[0].Stat != (znode.Stat{}) {
		t.Fatalf("move to a free name = %+v, %v", res, err)
	}
	res, err = s.Multi([]Op{CheckDataOp("/m/c", -1, []byte("data")), MoveOp("/m/c", "/m/b", []byte("data /m/b"))})
	if err != nil || string(res[1].Data) != "data /m/b" || res[1].Stat != bStat {
		t.Fatalf("move over /m/b = %+v, %v; want it to report /m/b's data and stat %+v", res, err, bStat)
	}
	if data, _, err := s.Get("/m/b"); err != nil || string(data) != "data /m/a" {
		t.Fatalf("/m/b after the moves = %q, %v", data, err)
	}
	for _, p := range []string{"/m/a", "/m/c"} {
		if _, ok, _ := s.Exists(p); ok {
			t.Fatalf("%s is still there", p)
		}
	}
	res, err = s.Multi([]Op{MoveOp("/m/b", "/m", []byte("data"))})
	if !errors.Is(err, ErrNotEmpty) || string(res[0].Data) != "data /m" {
		t.Fatalf("a move over a parent = %+v, %v; want ErrNotEmpty reporting its data", res, err)
	}

	// A retry of a committed move under its sequence number replays the
	// first reply byte for byte.
	leader := e.Servers[leaderIndex(t, e)]
	txn := encodeMultiTxn([]Op{MoveOp("/m/b", "/m/d", nil)}, s.ID(), 1<<40, 7)
	first, err := leader.handleClient(txn)
	if err != nil {
		t.Fatal(err)
	}
	again, err := leader.handleClient(txn)
	if err != nil {
		t.Fatal(err)
	}
	if string(first[:len(first)-8]) != string(again[:len(again)-8]) {
		t.Fatalf("the retried move's reply %x differs from the first %x", again, first)
	}
}

// TestMoveFiresCreateAndDeleteEvents: a move fires the events of the
// batch it stands for — a delete of the node it replaces, a create of the
// destination, a delete of the source — in that order, on the same
// watches.
func TestMoveFiresCreateAndDeleteEvents(t *testing.T) {
	for _, replace := range []bool{false, true} {
		var events [2][]Event
		for i, batch := range [2]func() []Op{
			func() []Op { return []Op{MoveOp("/w/src", "/w/dst", nil)} },
			func() []Op {
				ops := []Op{CreateOp("/w/dst", []byte("src"), znode.ModePersistent), DeleteOp("/w/src", -1)}
				if replace {
					ops = append([]Op{DeleteOp("/w/dst", -1)}, ops...)
				}
				return ops
			},
		} {
			e := startTestEnsemble(t, 1)
			s := connect(t, e, -1)
			for _, p := range []string{"/w", "/w/src"} {
				if _, err := s.Create(p, []byte("src"), znode.ModePersistent); err != nil {
					t.Fatal(err)
				}
			}
			if replace {
				if _, err := s.Create("/w/dst", []byte("dst"), znode.ModePersistent); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := s.GetW("/w/src"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.ExistsW("/w/dst"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ChildrenW("/w"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Multi(batch()); err != nil {
				t.Fatal(err)
			}
			evs, err := s.PollEvents()
			if err != nil {
				t.Fatal(err)
			}
			events[i] = evs
		}
		if len(events[0]) == 0 || !reflect.DeepEqual(events[0], events[1]) {
			t.Fatalf("replace=%v: the move fired %+v, the create and delete %+v", replace, events[0], events[1])
		}
	}
}

// TestFenceOnTheDestinationBouncesAMove: a move writes two names, and a
// fence or a moved range on either bounces the whole batch before it
// applies.
func TestFenceOnTheDestinationBouncesAMove(t *testing.T) {
	e := startTestEnsemble(t, 3)
	s := connect(t, e, -1)
	ctx := context.Background()
	for _, p := range []string{"/src", "/src/f", "/mig"} {
		if _, err := s.Create(p, []byte(p), znode.ModePersistent); err != nil {
			t.Fatal(err)
		}
	}
	rng := placement.RangeForKey("/mig")
	if rng.Contains(placement.KeyHash("/src")) {
		t.Fatal("the two directories share a range; pick other names")
	}
	move := []Op{CheckDataOp("/src/f", -1, nil), MoveOp("/src/f", "/mig/f", nil)}
	if _, err := s.FenceRange(ctx, rng, 1, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Multi(move); !errors.Is(err, ErrFenced) {
		t.Fatalf("a move into a fenced range = %v, want ErrFenced", err)
	}
	if _, err := s.RangeMoved(ctx, rng, 1, 7); err != nil {
		t.Fatal(err)
	}
	var mv *MovedError
	if _, err := s.Multi(move); !errors.As(err, &mv) || mv.Shard != 1 || mv.Epoch != 7 {
		t.Fatalf("a move into a moved range = %v, want a MovedError to shard 1 at epoch 7", err)
	}
	if data, _, err := s.Get("/src/f"); err != nil || string(data) != "/src/f" {
		t.Fatalf("the bounced move's source = %q, %v", data, err)
	}
}

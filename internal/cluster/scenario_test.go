package cluster

import (
	"context"
	"flag"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/storage"
	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
)

// -scenario.long stretches every scenario (load window and fault
// schedule) by this factor; 0 keeps the ~2s smoke tier that runs in
// `go test -run TestScenario -short`.
var scenarioScale = flag.Float64("scenario.long", 0, "run the chaos matrix at this time scale (0 = smoke tier)")

// TestScenarioMatrix runs every cell of the chaos matrix: fixed-rate
// open-loop load, a fault schedule firing mid-run, then SLO grading
// and the zero-acked-write-loss check.
func TestScenarioMatrix(t *testing.T) {
	scale := *scenarioScale
	if scale <= 0 {
		scale = 1 // smoke tier
	}
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := RunScenario(ctx, sc, scale)
			if err != nil {
				t.Fatalf("scenario %s: %v", sc.Name, err)
			}
			for _, line := range res.Faults {
				t.Logf("fault: %s", line)
			}
			t.Logf("load: %s", &res.Load)
			t.Logf("acked writes verified: %d (missing %d)", res.AckedChecked, res.MissingAcked)
			if sc.Load.TrackAcked && res.AckedChecked == 0 {
				t.Fatal("no acknowledged writes were tracked — the loss check was vacuous")
			}
			for _, v := range res.Violations {
				t.Errorf("SLO violation: %s", v)
			}
		})
	}
}

// TestScenarioSlowDiskReWrapsOnRestart pins the restart semantics of
// the storage injection seam: a member restarted mid-fault gets a
// fresh wrapper bound to the same DiskChaos, so the fault persists
// across the restart until it is explicitly healed.
func TestScenarioSlowDiskReWrapsOnRestart(t *testing.T) {
	chaos := NewDiskChaos()
	chaos.SetDelay(0, 1, 25*time.Millisecond)
	s := chaos.Wrap(0, 1, new(zab.MemStorage)) // as StartServer would re-create it
	startT := time.Now()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(startT); d < 25*time.Millisecond {
		t.Fatalf("fresh wrapper ignored pre-existing delay (sync took %v)", d)
	}
	chaos.Clear()
	startT = time.Now()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(startT); d > 20*time.Millisecond {
		t.Fatalf("Clear did not lift the delay (sync took %v)", d)
	}
}

// TestDiskChaosWrapKeepsStreaming: whichever store a member runs on, the
// slow-disk wrapper is a zab.StreamStorage (a server refuses anything
// less), and while the fault is on, a frame counts as durable only once
// the slowed Sync has covered it — even on a MemStorage, whose appends
// are durable at once.
func TestDiskChaosWrapKeepsStreaming(t *testing.T) {
	eng, err := storage.Open(storage.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	chaos := NewDiskChaos()
	for name, st := range map[string]zab.Storage{"mem": new(zab.MemStorage), "engine": eng} {
		if _, ok := chaos.Wrap(0, 0, st).(zab.StreamStorage); !ok {
			t.Errorf("wrapped %s store lost zab.StreamStorage", name)
		}
	}

	chaos.SetDelay(0, 0, time.Millisecond)
	s := chaos.Wrap(0, 0, new(zab.MemStorage))
	if err := s.Append([]zab.Frame{{Zxid: 1 << 32}}); err != nil {
		t.Fatal(err)
	}
	if d := s.LastDurableZxid(); d != 0 {
		t.Fatalf("slowed store reports %x durable before any Sync", d)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := s.LastDurableZxid(); d != 1<<32 {
		t.Fatalf("durable horizon after Sync = %x, want %x", d, uint64(1<<32))
	}
}

// scriptedReads answers the n-th Exists with the n-th version of its
// script and every create as done but invisible. With entered and hold
// set, the first read signals that it is in flight and answers only once
// released.
type scriptedReads struct {
	coord.Doer
	mu            sync.Mutex
	versions      []int32
	entered, hold chan struct{}
}

func (s *scriptedReads) Do(_ context.Context, op coord.Op) (coord.Result, error) {
	if op.Kind == coord.OpCreate {
		return coord.Result{Created: op.Path}, nil
	}
	s.mu.Lock()
	if len(s.versions) == 0 {
		s.mu.Unlock()
		return coord.Result{}, nil // the stat behind a create: not there
	}
	v, entered := s.versions[0], s.entered
	s.versions, s.entered = s.versions[1:], nil
	s.mu.Unlock()
	if entered != nil {
		close(entered)
		<-s.hold
	}
	return coord.Result{Exists: true, Stat: znode.Stat{Version: v}}, nil
}

// TestSessionOrderFlagsWhatItShould keeps the scenarios' per-session
// check honest: a version read lower than one an earlier, completed read
// saw is a violation, as is a create its own next stat cannot see; a
// lower version from a read that was already in flight is not.
func TestSessionOrderFlagsWhatItShould(t *testing.T) {
	ctx := context.Background()
	stat := coord.Op{Kind: coord.OpExists, Path: "/k"}

	o := &sessionOrder{Doer: &scriptedReads{versions: []int32{3, 3, 2}}, name: "s", seen: map[string]int32{}}
	for i := 0; i < 3; i++ {
		o.Do(ctx, stat)
	}
	o.Do(ctx, coord.CreateOp("/made", nil, znode.ModePersistent))
	if len(o.violations) != 2 {
		t.Fatalf("a backward read and an invisible create gave %d violations, want 2: %v", len(o.violations), o.violations)
	}

	// Version 2 is asked for first and answered last: the two reads
	// overlapped, and the session orders nothing between them.
	entered, hold := make(chan struct{}), make(chan struct{})
	o = &sessionOrder{Doer: &scriptedReads{versions: []int32{2, 3}, entered: entered, hold: hold}, name: "s", seen: map[string]int32{}}
	first := make(chan struct{})
	go func() {
		defer close(first)
		o.Do(ctx, stat)
	}()
	<-entered
	o.Do(ctx, stat)
	close(hold)
	<-first
	if len(o.violations) != 0 {
		t.Fatalf("overlapping reads flagged: %v", o.violations)
	}
}

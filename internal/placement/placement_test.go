package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fid"
)

func sampleFIDs(n int, seed int64) []fid.FID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fid.FID, n)
	for i := range out {
		out[i] = fid.FID{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	return out
}

func TestNewModNRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewModN(n); err == nil {
			t.Errorf("NewModN(%d) succeeded, want error", n)
		}
	}
}

func TestModNInRange(t *testing.T) {
	m, err := NewModN(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(hi, lo uint64) bool {
		i := m.Locate(fid.FID{Hi: hi, Lo: lo})
		return i >= 0 && i < 4
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModNDeterministic(t *testing.T) {
	m, _ := NewModN(8)
	f := fid.FID{Hi: 123, Lo: 456}
	first := m.Locate(f)
	for i := 0; i < 10; i++ {
		if m.Locate(f) != first {
			t.Fatal("Locate is not deterministic")
		}
	}
}

func TestModNBalance(t *testing.T) {
	// The paper relies on MD5's uniformity for fair load balancing
	// (§IV-F). With 100k FIDs over 4 back-ends the imbalance should
	// be small.
	m, _ := NewModN(4)
	rep := MeasureLoad(m, sampleFIDs(100000, 1))
	if got := rep.Imbalance(); got > 1.05 {
		t.Fatalf("imbalance = %.3f, want <= 1.05 (per-backend: %v)", got, rep.PerBackend)
	}
}

func TestRingInRangeAndDeterministic(t *testing.T) {
	r, err := NewRing([]int{0, 1, 2}, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := fid.FID{Hi: 9, Lo: 9}
	first := r.Locate(f)
	if first < 0 || first > 2 {
		t.Fatalf("Locate = %d, out of range", first)
	}
	for i := 0; i < 5; i++ {
		if r.Locate(f) != first {
			t.Fatal("ring Locate is not deterministic")
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, err := NewRing([]int{0, 1, 2, 3}, DefaultReplicas)
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureLoad(r, sampleFIDs(100000, 2))
	if got := rep.Imbalance(); got > 1.25 {
		t.Fatalf("ring imbalance = %.3f, want <= 1.25 (per-backend: %v)", got, rep.PerBackend)
	}
}

func TestRingAddRemoveMembership(t *testing.T) {
	r, _ := NewRing([]int{0, 1}, 16)
	if err := r.Add(1); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if err := r.Add(2); err != nil {
		t.Fatal(err)
	}
	if got := r.Backends(); got != 3 {
		t.Fatalf("Backends() = %d, want 3", got)
	}
	if err := r.Remove(5); err == nil {
		t.Fatal("Remove of absent back-end succeeded")
	}
	if err := r.Remove(2); err != nil {
		t.Fatal(err)
	}
	if len(r.members) != 2 || !r.members[0] || !r.members[1] {
		t.Fatalf("members = %v, want 0 and 1", r.members)
	}
}

func TestRingCannotRemoveLast(t *testing.T) {
	r, _ := NewRing([]int{0}, 8)
	if err := r.Remove(0); err == nil {
		t.Fatal("removing last back-end succeeded")
	}
}

func TestConsistentHashBoundedRelocation(t *testing.T) {
	// Paper §VII future work: consistent hashing keeps relocation
	// bounded when adding a back-end. Growing from 4 to 5 back-ends,
	// the ring should move roughly 1/5 of FIDs; MD5 mod N moves
	// roughly 4/5.
	sample := sampleFIDs(50000, 3)

	r4, _ := NewRing([]int{0, 1, 2, 3}, DefaultReplicas)
	r5, _ := NewRing([]int{0, 1, 2, 3, 4}, DefaultReplicas)
	ringMoved := RelocationReport(r4, r5, sample)
	ringFrac := float64(ringMoved) / float64(len(sample))
	if ringFrac > 0.30 {
		t.Fatalf("ring relocation fraction = %.3f, want <= 0.30", ringFrac)
	}

	m4, _ := NewModN(4)
	m5, _ := NewModN(5)
	modMoved := RelocationReport(m4, m5, sample)
	modFrac := float64(modMoved) / float64(len(sample))
	if modFrac < 0.70 {
		t.Fatalf("mod-N relocation fraction = %.3f, want >= 0.70", modFrac)
	}
	if ringFrac >= modFrac {
		t.Fatalf("ring (%.3f) should relocate less than mod-N (%.3f)", ringFrac, modFrac)
	}
}

func TestRingLocateOnlyReturnsMembers(t *testing.T) {
	r, _ := NewRing([]int{3, 7}, 32)
	for _, f := range sampleFIDs(1000, 4) {
		b := r.Locate(f)
		if b != 3 && b != 7 {
			t.Fatalf("Locate returned non-member %d", b)
		}
	}
}

func TestMeasureLoadEmpty(t *testing.T) {
	m, _ := NewModN(2)
	rep := MeasureLoad(m, nil)
	if rep.Max != 0 || rep.Min != 0 || rep.Mean != 0 {
		t.Fatalf("empty load report = %+v, want zeros", rep)
	}
}

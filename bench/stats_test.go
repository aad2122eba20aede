package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileMedianIQR(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(sorted, q); !near(got, want) {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty sample = %v, want 0", got)
	}
	// The slice median does not reorder its input and averages the two
	// middles of an even count.
	slices := []float64{9, 1, 5, 3, 7}
	if got := median(slices); got != 5 || slices[0] != 9 {
		t.Errorf("median = %v (input now %v), want 5 with input untouched", got, slices)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := iqr(slices); !near(got, 4) {
		t.Errorf("iqr = %v, want 4", got)
	}
	if got := quantileNS([]int64{30, 10, 20}, 0.5); got != 20 {
		t.Errorf("quantileNS = %v, want 20", got)
	}
}

// A percentile may be reported only with at least ten samples beyond it.
func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {10000, 0.999, true},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	qs := []float64{0.9, 0.99, 0.999}
	for n, want := range map[int]float64{50: 0.5, 100: 0.9, 5000: 0.99, 10000: 0.999} {
		if got := highestSupported(n, qs); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	for name, c := range map[string]struct {
		children []interval
		want     int64
	}{
		"no children":              {nil, 100},
		"one child":                {[]interval{{10, 40}}, 70},
		"disjoint":                 {[]interval{{10, 20}, {50, 70}}, 70},
		"overlapping count once":   {[]interval{{10, 50}, {30, 60}}, 50},
		"nested":                   {[]interval{{10, 90}, {20, 30}}, 20},
		"unsorted":                 {[]interval{{50, 70}, {10, 20}}, 70},
		"sticking out is clamped":  {[]interval{{-20, 10}, {90, 500}}, 80},
		"async child, end unknown": {[]interval{{40, math.MaxInt64}}, 40},
		"outside entirely":         {[]interval{{200, 300}}, 100},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", name, got, c.want)
		}
	}
}

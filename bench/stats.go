package main

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantileNS is quantile over an unsorted nanosecond sample; it sorts
// a copy so callers may keep appending.
func quantileNS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v)
	}
	sort.Float64s(f)
	return quantile(f, q)
}

// median returns the middle of vs (mean of the two middles for an even
// count) without reordering the caller's slice.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// iqr returns the distance between the first and third quartile of vs.
func iqr(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// tailSupported reports whether a sample of n values has at least ten
// samples beyond the q-quantile — the rule for which percentile a run
// may report.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) > 10-1e-6 // 1-q is not exact in binary
}

// highestSupported returns the highest of the candidate quantiles
// (ascending) that a sample of n supports, or 0.5 when none does.
func highestSupported(n int, candidates []float64) float64 {
	best := 0.5
	for _, q := range candidates {
		if tailSupported(n, q) {
			best = q
		}
	}
	return best
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of [start,end) not covered by the union of
// children: a layer's own time once the layers it called are taken
// out. Children may overlap each other and may stick out of the parent;
// only the covered part inside the parent is subtracted.
func selfTime(start, end int64, children []interval) int64 {
	if end <= start {
		return 0
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < start {
			c.start = start
		}
		if c.end > end {
			c.end = end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	covered, cur := int64(0), start
	for _, c := range cs {
		if c.start > cur {
			cur = c.start
		}
		if c.end > cur {
			covered += c.end - cur
			cur = c.end
		}
	}
	return (end - start) - covered
}

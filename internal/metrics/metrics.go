// Package metrics provides lightweight, concurrency-safe counters,
// latency histograms and throughput summaries used by the DUFS stack,
// the backend simulators and the benchmark harness.
//
// The package is deliberately dependency-free (stdlib only) and cheap
// enough to keep enabled in the hot path of the coordination service.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit counter. For values
// that move both ways (queue depths, in-flight counts) use Gauge.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter, e.g. the size of a batch of events.
// Negative deltas are not rejected, but a value that legitimately
// moves both ways should be a Gauge, not a Counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time level: it can rise and fall, unlike
// Counter. The coordination service uses gauges for proposer queue
// depth and in-flight proposal frames.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one to the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Add adds delta (positive or negative) to the gauge.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the gauge's current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Distribution records unitless int64 samples (batch sizes, fan-outs,
// queue lengths at drain time) into power-of-two buckets with exact
// count/sum/min/max — the integer sibling of the duration Histogram.
// The zero value is ready to use.
type Distribution struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [nBuckets]int64
}

func valueBucketFor(v int64) int {
	if v <= 0 {
		return 0
	}
	b := 64 - leadingZeros64(uint64(v))
	if b >= nBuckets {
		b = nBuckets - 1
	}
	return b
}

// Observe records one sample.
func (d *Distribution) Observe(v int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
	d.buckets[valueBucketFor(v)]++
}

// Count returns the number of samples.
func (d *Distribution) Count() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Sum returns the running total of all samples.
func (d *Distribution) Sum() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sum
}

// Mean returns the arithmetic mean of all samples.
func (d *Distribution) Mean() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// Min returns the smallest sample.
func (d *Distribution) Min() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.min
}

// Max returns the largest sample.
func (d *Distribution) Max() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.max
}

// Quantile returns an approximate q-quantile (0 <= q <= 1). The target
// rank is located in its power-of-two bucket and the value is linearly
// interpolated across that bucket's range, clamped to the observed
// min/max — so the error is a fraction of one bucket's width rather
// than the full width, and load harnesses can assert p99 bounds
// against it directly.
func (d *Distribution) Quantile(q float64) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(d.count)
	if target < 1 {
		target = 1
	}
	var seen float64
	for i, n := range d.buckets {
		if n == 0 {
			continue
		}
		fn := float64(n)
		if seen+fn < target {
			seen += fn
			continue
		}
		// Bucket i holds [2^(i-1), 2^i - 1] for i >= 1; bucket 0 holds
		// every non-positive sample. Interpolate the rank's position
		// across the bucket's inclusive value range.
		var lo, hi float64
		if i == 0 {
			lo, hi = float64(d.min), 0
			if lo > 0 {
				lo = 0
			}
		} else {
			lo = float64(int64(1) << uint(i-1))
			hi = 2*lo - 1
		}
		v := int64(math.Round(lo + (hi-lo)*(target-seen)/fn))
		if v < d.min {
			v = d.min
		}
		if v > d.max {
			v = d.max
		}
		return v
	}
	return d.max
}

// nBuckets covers 1ns..~9.2s with 64 powers-of-two-ish buckets.
const nBuckets = 64

func leadingZeros64(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Histogram records durations into exponentially sized buckets and
// retains exact min/max/sum for mean computation. The zero value is
// ready to use. A duration is a nanosecond int64, so the statistics
// engine is a Distribution; Histogram is its duration-typed face.
type Histogram struct {
	d Distribution
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.d.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.d.Count() }

// Mean returns the arithmetic mean of all observations (one
// consistent snapshot, integer nanosecond division as before).
func (h *Histogram) Mean() time.Duration {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.count == 0 {
		return 0
	}
	return time.Duration(h.d.sum / h.d.count)
}

// Min returns the smallest observation.
func (h *Histogram) Min() time.Duration { return time.Duration(h.d.Min()) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.d.Max()) }

// Quantile returns an approximate q-quantile (0 <= q <= 1), linearly
// interpolated within the target rank's bucket and clamped to the
// observed min/max (see Distribution.Quantile).
func (h *Histogram) Quantile(q float64) time.Duration {
	return time.Duration(h.d.Quantile(q))
}

// Summary describes the outcome of a timed closed-loop run: how many
// operations completed over a wall-clock (or simulated) span.
type Summary struct {
	Name    string
	Ops     int64
	Elapsed time.Duration
}

// Throughput returns operations per second.
func (s Summary) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Ops) / s.Elapsed.Seconds()
}

// String renders the summary in an mdtest-like single line.
func (s Summary) String() string {
	return fmt.Sprintf("%-24s %10d ops %12s %12.1f ops/sec",
		s.Name, s.Ops, s.Elapsed.Round(time.Microsecond), s.Throughput())
}

// Registry is a named collection of counters, gauges, histograms and
// distributions.
type Registry struct {
	mu            sync.Mutex
	counters      map[string]*Counter
	gauges        map[string]*Gauge
	histograms    map[string]*Histogram
	distributions map[string]*Distribution
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:      make(map[string]*Counter),
		gauges:        make(map[string]*Gauge),
		histograms:    make(map[string]*Histogram),
		distributions: make(map[string]*Distribution),
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Distribution returns the distribution with the given name, creating
// it if needed.
func (r *Registry) Distribution(name string) *Distribution {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.distributions[name]
	if !ok {
		d = &Distribution{}
		r.distributions[name] = d
	}
	return d
}

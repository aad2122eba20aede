package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("Value() = %d, want 16000", got)
	}
}

func TestCounterAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value() = %d, want 3", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("zero histogram should report zeros")
	}
	h.Observe(10 * time.Microsecond)
	h.Observe(20 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	if got := h.Count(); got != 3 {
		t.Fatalf("Count() = %d, want 3", got)
	}
	if got := h.Mean(); got != 20*time.Microsecond {
		t.Fatalf("Mean() = %v, want 20µs", got)
	}
	if got := h.Min(); got != 10*time.Microsecond {
		t.Fatalf("Min() = %v, want 10µs", got)
	}
	if got := h.Max(); got != 30*time.Microsecond {
		t.Fatalf("Max() = %v, want 30µs", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	q50 := h.Quantile(0.5)
	q99 := h.Quantile(0.99)
	if q50 > q99 {
		t.Fatalf("q50 %v > q99 %v", q50, q99)
	}
	if q99 > 2*h.Max() {
		t.Fatalf("q99 %v exceeds twice max %v", q99, h.Max())
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	if h.Quantile(-1) == 0 && h.Quantile(2) == 0 {
		t.Fatal("quantiles of a non-empty histogram should be non-zero")
	}
}

func TestSummaryThroughput(t *testing.T) {
	s := Summary{Name: "create", Ops: 1000, Elapsed: time.Second}
	if got := s.Throughput(); got != 1000 {
		t.Fatalf("Throughput() = %f, want 1000", got)
	}
	zero := Summary{Ops: 10}
	if zero.Throughput() != 0 {
		t.Fatal("zero-elapsed summary should report 0 throughput")
	}
	if s.String() == "" {
		t.Fatal("String() should render")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	r.Counter("b").Inc()
	if got := r.Counter("a").Value(); got != 2 {
		t.Fatalf("counter a = %d, want 2", got)
	}
	if len(r.counters) != 2 || r.counters["a"] == nil || r.counters["b"] == nil {
		t.Fatalf("counters = %v, want a and b", r.counters)
	}
	h := r.Histogram("lat")
	h.Observe(time.Millisecond)
	if r.Histogram("lat").Count() != 1 {
		t.Fatal("histogram not shared across lookups")
	}
}

func TestBucketForEdges(t *testing.T) {
	if valueBucketFor(0) != 0 {
		t.Fatal("valueBucketFor(0) != 0")
	}
	if valueBucketFor(int64(-time.Second)) != 0 {
		t.Fatal("valueBucketFor(negative) != 0")
	}
	if b := valueBucketFor(1 << 62); b >= nBuckets {
		t.Fatalf("valueBucketFor overflow bucket = %d", b)
	}
}

func TestGaugeMovesBothWays(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Inc()
	g.Add(4)
	g.Add(-1)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
	g.Add(-20)
	if got := g.Value(); got != -11 {
		t.Fatalf("gauge = %d, want -11", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge after balanced inc/dec = %d, want 0", got)
	}
}

func TestDistributionBasics(t *testing.T) {
	var d Distribution
	for _, v := range []int64{1, 2, 4, 8, 128} {
		d.Observe(v)
	}
	if d.Count() != 5 {
		t.Fatalf("count = %d", d.Count())
	}
	if d.Sum() != 143 {
		t.Fatalf("sum = %d", d.Sum())
	}
	if d.Min() != 1 || d.Max() != 128 {
		t.Fatalf("min/max = %d/%d", d.Min(), d.Max())
	}
	if m := d.Mean(); m < 28.5 || m > 28.7 {
		t.Fatalf("mean = %f", m)
	}
	if q := d.Quantile(1); q < 128 {
		t.Fatalf("q100 = %d, want >= 128", q)
	}
	if lo, hi := d.Quantile(0), d.Quantile(0.99); lo > hi {
		t.Fatalf("quantiles not monotone: q0=%d q99=%d", lo, hi)
	}
}

func TestDistributionZeroValueAndEdges(t *testing.T) {
	var d Distribution
	if d.Mean() != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("zero-value distribution not zero")
	}
	d.Observe(0)
	d.Observe(-3)
	if d.Min() != -3 || d.Max() != 0 {
		t.Fatalf("min/max = %d/%d", d.Min(), d.Max())
	}
	if valueBucketFor(0) != 0 || valueBucketFor(-1) != 0 {
		t.Fatal("non-positive samples must land in bucket 0")
	}
	if b := valueBucketFor(1 << 62); b >= nBuckets {
		t.Fatalf("overflow bucket = %d", b)
	}
}

func TestDistributionQuantileInterpolates(t *testing.T) {
	var d Distribution
	for v := int64(1); v <= 1024; v++ {
		d.Observe(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.25, 256},
		{0.5, 512},
		{0.9, 922},
		{0.99, 1014},
		{0.999, 1023},
	}
	for _, c := range cases {
		got := d.Quantile(c.q)
		// Interpolation keeps the error to a fraction of the bucket
		// width; 10% tolerance is far tighter than the 2x the old
		// upper-bound answer allowed (q50 used to report 1024).
		lo := c.want - c.want/10
		hi := c.want + c.want/10
		if got < lo || got > hi {
			t.Fatalf("Quantile(%g) = %d, want within [%d, %d]", c.q, got, lo, hi)
		}
	}
	if got := d.Quantile(1); got != 1024 {
		t.Fatalf("Quantile(1) = %d, want exact max 1024", got)
	}
	if got := d.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %d, want min 1", got)
	}
}

func TestDistributionQuantileMonotoneDense(t *testing.T) {
	var d Distribution
	for v := int64(1); v <= 5000; v += 3 {
		d.Observe(v)
	}
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		got := d.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%g) = %d < previous %d", q, got, prev)
		}
		prev = got
	}
}

func TestDistributionQuantileClampsToObserved(t *testing.T) {
	var d Distribution
	d.Observe(100)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := d.Quantile(q); got != 100 {
			t.Fatalf("single-sample Quantile(%g) = %d, want 100", q, got)
		}
	}
	var neg Distribution
	neg.Observe(-50)
	neg.Observe(-10)
	if got := neg.Quantile(0.5); got < -50 || got > 0 {
		t.Fatalf("non-positive-sample Quantile(0.5) = %d, want within [-50, 0]", got)
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p99 := h.Quantile(0.99)
	want := 990 * time.Microsecond
	if p99 < want-want/10 || p99 > want+want/10 {
		t.Fatalf("p99 = %v, want ~%v", p99, want)
	}
}

func TestRegistryGaugesAndDistributions(t *testing.T) {
	r := NewRegistry()
	r.Gauge("queue").Set(3)
	if r.Gauge("queue").Value() != 3 {
		t.Fatal("gauge not shared across lookups")
	}
	r.Distribution("batch").Observe(7)
	if r.Distribution("batch").Count() != 1 {
		t.Fatal("distribution not shared across lookups")
	}
	if len(r.gauges) != 1 || r.gauges["queue"] == nil {
		t.Fatalf("gauges = %v", r.gauges)
	}
	if len(r.distributions) != 1 || r.distributions["batch"] == nil {
		t.Fatalf("distributions = %v", r.distributions)
	}
}

// Package loadgen is an open-loop workload generator for the
// coordination service: it offers operations at a FIXED arrival rate —
// Poisson or uniform inter-arrival times — regardless of how fast the
// service completes them, and measures latency from each operation's
// INTENDED arrival instant.
//
// The distinction matters (DESIGN.md §12). The mdtest-style harnesses
// in this repository are closed-loop: every client waits for its
// previous operation before issuing the next, so a saturated server
// simply slows the clients down — throughput looks flat and latency
// looks bounded while the system is actually in queueing collapse.
// An open-loop generator keeps arriving at the offered rate, so a
// server that falls behind accumulates queue and the p99/p999 latency
// explodes — exactly the signal a production SLO cares about, and the
// methodology λFS and HopsFS use for their headline tail-latency
// numbers (PAPERS.md).
//
// The generator dispatches over the asynchronous client layer
// (coord.Begin / BeginMulti / BeginChildrenData), so thousands of
// operations ride a handful of sessions without a goroutine per
// connection; each arrival occupies one goroutine only for its own
// lifetime, capped by Config.MaxOutstanding (arrivals beyond the cap
// are counted as shed, never silently dropped).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// OpKind names one workload operation class.
type OpKind string

// The workload mix operation classes.
const (
	OpCreate  OpKind = "create"  // unique znode create (write)
	OpStat    OpKind = "stat"    // exists on a pre-created key (read)
	OpReaddir OpKind = "readdir" // whole-directory ChildrenData (read)
	OpSet     OpKind = "set"     // data overwrite of a pre-created key (write)
	OpMulti   OpKind = "multi"   // 2-op atomic create batch (write)
)

// opKinds is the canonical order for deterministic iteration.
var opKinds = []OpKind{OpCreate, OpStat, OpReaddir, OpSet, OpMulti}

// Mix is a workload mix: relative weights per operation class.
type Mix struct {
	weights map[OpKind]int
	total   int
}

// ParseMix parses the workload-mix DSL: comma-separated kind=weight
// pairs, e.g. "create=40,stat=40,readdir=10,set=8,multi=2" (":" is
// accepted in place of "="). Weights are relative, not percentages.
// Omitted kinds get weight zero; at least one weight must be positive.
func ParseMix(s string) (Mix, error) {
	m := Mix{weights: make(map[OpKind]int)}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sep := "="
		if !strings.Contains(part, "=") {
			sep = ":"
		}
		kv := strings.SplitN(part, sep, 2)
		if len(kv) != 2 {
			return Mix{}, fmt.Errorf("loadgen: mix entry %q: want kind=weight", part)
		}
		kind := OpKind(strings.TrimSpace(kv[0]))
		switch kind {
		case OpCreate, OpStat, OpReaddir, OpSet, OpMulti:
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown mix op %q (want create|stat|readdir|set|multi)", kv[0])
		}
		w, err := strconv.Atoi(strings.TrimSpace(kv[1]))
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: mix weight %q: want non-negative integer", kv[1])
		}
		m.weights[kind] += w
		m.total += w
	}
	if m.total <= 0 {
		return Mix{}, errors.New("loadgen: mix has no positive weight")
	}
	return m, nil
}

// DefaultMix is a metadata-heavy mix resembling the paper's mdtest
// phases: half reads, half writes.
func DefaultMix() Mix {
	m, err := ParseMix("create=40,stat=40,readdir=10,set=8,multi=2")
	if err != nil {
		panic(err)
	}
	return m
}

// String renders the mix back in DSL form (canonical kind order).
func (m Mix) String() string {
	var parts []string
	for _, k := range opKinds {
		if w := m.weights[k]; w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, w))
		}
	}
	return strings.Join(parts, ",")
}

// pick draws one operation class with probability proportional to its
// weight.
func (m Mix) pick(rng *rand.Rand) OpKind {
	n := rng.Intn(m.total)
	for _, k := range opKinds {
		w := m.weights[k]
		if n < w {
			return k
		}
		n -= w
	}
	return OpCreate // unreachable
}

// Arrival selects the inter-arrival process.
type Arrival string

// Supported arrival processes.
const (
	// Poisson draws exponential inter-arrival gaps — independent
	// arrivals, the standard open-loop assumption.
	Poisson Arrival = "poisson"
	// Uniform spaces arrivals exactly 1/rate apart — a deterministic
	// drumbeat, useful for calibration because queueing is then purely
	// the service process's fault.
	Uniform Arrival = "uniform"
)

// gap draws the next inter-arrival time.
func (a Arrival) gap(rng *rand.Rand, rate float64) time.Duration {
	switch a {
	case Uniform:
		return time.Duration(float64(time.Second) / rate)
	default: // Poisson
		return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
}

// Clock abstracts the generator's time source so tests can drive the
// dispatch loop in virtual time. The dispatcher is the only After
// caller; Now may be called from many completion goroutines.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Op is one generated operation instance handed to a Target.
type Op struct {
	Kind OpKind
	// Path is the primary znode path (create/stat/set target, readdir
	// directory).
	Path string
	// Path2 is the second member of a multi batch.
	Path2 string
	// Arrival is the op's intended arrival instant on the generator's
	// clock — the open-loop latency origin.
	Arrival time.Time
}

// Target executes generated operations. ClientTarget adapts
// coord.Client; tests substitute fakes.
type Target interface {
	Do(ctx context.Context, op Op) error
}

// Config parameterizes a run.
type Config struct {
	// Name labels the run in results and JSON artifacts.
	Name string
	// Rate is the offered arrival rate in ops/sec (required > 0).
	Rate float64
	// Arrival is the inter-arrival process (default Poisson).
	Arrival Arrival
	// Duration is how long arrivals are generated (required > 0).
	Duration time.Duration
	// Mix is the workload mix (zero value = DefaultMix).
	Mix Mix
	// Dirs spreads the namespace over this many working directories
	// (default 16).
	Dirs int
	// HotFrac routes this fraction of operations to directory 0 — the
	// path-locality knob (0 = uniform across Dirs).
	HotFrac float64
	// Keys is the pre-created keyspace per directory that stat/set
	// draw from (default 64; see Prepare).
	Keys int
	// PathPrefix roots the generated namespace (default "/lg").
	PathPrefix string
	// OpTimeout bounds each operation (0 = unbounded).
	OpTimeout time.Duration
	// MaxOutstanding caps concurrently in-flight operations; arrivals
	// beyond it are counted as Shed (default 65536).
	MaxOutstanding int
	// Seed makes the arrival schedule and mix draws reproducible.
	Seed int64
	// TrackAcked records every path whose create the service
	// acknowledged, for post-chaos zero-loss verification.
	TrackAcked bool
	// Clock overrides the time source (tests); nil = wall clock.
	Clock Clock
}

func (cfg *Config) normalize() error {
	if cfg.Rate <= 0 {
		return errors.New("loadgen: Rate must be > 0")
	}
	if cfg.Duration <= 0 {
		return errors.New("loadgen: Duration must be > 0")
	}
	if cfg.Arrival == "" {
		cfg.Arrival = Poisson
	}
	if cfg.Arrival != Poisson && cfg.Arrival != Uniform {
		return fmt.Errorf("loadgen: unknown arrival process %q", cfg.Arrival)
	}
	if cfg.Mix.total == 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.Dirs <= 0 {
		cfg.Dirs = 16
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	if cfg.PathPrefix == "" {
		cfg.PathPrefix = "/lg"
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 1 << 16
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	return nil
}

// LatencySummary condenses one latency distribution. All fields are
// integer nanoseconds so the JSON artifact diffs cleanly across runs.
type LatencySummary struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	MaxNS  int64 `json:"max_ns"`
}

func summarize(h *metrics.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanNS: int64(h.Mean()),
		P50NS:  int64(h.Quantile(0.50)),
		P90NS:  int64(h.Quantile(0.90)),
		P99NS:  int64(h.Quantile(0.99)),
		P999NS: int64(h.Quantile(0.999)),
		MaxNS:  int64(h.Max()),
	}
}

// P99 returns the summary's p99 as a duration.
func (l LatencySummary) P99() time.Duration { return time.Duration(l.P99NS) }

// String renders the percentiles in milliseconds.
func (l LatencySummary) String() string {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p90=%.2fms p99=%.2fms p999=%.2fms max=%.2fms",
		l.Count, ms(l.MeanNS), ms(l.P50NS), ms(l.P90NS), ms(l.P99NS), ms(l.P999NS), ms(l.MaxNS))
}

// Result is the outcome of one run.
type Result struct {
	Name string `json:"name"`
	// Loop is "open" or "closed" — which generator produced the run.
	Loop     string  `json:"loop"`
	Arrival  string  `json:"arrival"`
	Mix      string  `json:"mix"`
	Sessions int     `json:"sessions"`
	RateOps  float64 `json:"offered_ops_per_sec"`
	// AchievedOps is successful completions per second of elapsed run
	// time — the number to compare against RateOps: a healthy open-loop
	// run achieves what it offers.
	AchievedOps float64 `json:"achieved_ops_per_sec"`
	ElapsedSec  float64 `json:"elapsed_sec"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	Timeouts  int64 `json:"timeouts"`
	Shed      int64 `json:"shed"`

	Latency LatencySummary            `json:"latency"`
	PerOp   map[string]LatencySummary `json:"per_op"`

	// AckedWrites counts acknowledged creates; AckedPaths holds them
	// when Config.TrackAcked was set (kept out of the JSON artifact).
	AckedWrites int64    `json:"acked_writes"`
	AckedPaths  []string `json:"-"`

	// ReadFrom is the read placement the harness connected its sessions
	// with, ReadSplit where the run's reads were served, by the servers'
	// own count (cluster.ReadSplit: a member restarted during the run
	// contributes what it counted since its last start, one down at the
	// end nothing). Both are filled in by the caller.
	ReadFrom  string            `json:"read_from,omitempty"`
	ReadSplit map[string]uint64 `json:"read_split,omitempty"`
}

// String renders the headline line the harness prints.
func (r *Result) String() string {
	return fmt.Sprintf("%s [%s %s]: offered %.0f/s achieved %.0f/s (%d ok, %d err, %d timeout, %d shed)\n  latency: %s",
		r.Name, r.Loop, r.Arrival, r.RateOps, r.AchievedOps,
		r.Completed, r.Errors, r.Timeouts, r.Shed, r.Latency)
}

// runner accumulates one run's state.
type runner struct {
	cfg   Config
	clock Clock

	createSeq atomic.Int64
	nonce     int64

	outstanding atomic.Int64
	wg          sync.WaitGroup

	submitted   atomic.Int64
	completed   atomic.Int64
	errs        atomic.Int64
	timeouts    atomic.Int64
	shed        atomic.Int64
	ackedWrites atomic.Int64

	overall metrics.Histogram
	perOp   map[OpKind]*metrics.Histogram

	ackedMu sync.Mutex
	acked   []string
}

func newRunner(cfg Config) *runner {
	r := &runner{cfg: cfg, clock: cfg.Clock, nonce: cfg.Seed, perOp: make(map[OpKind]*metrics.Histogram)}
	for _, k := range opKinds {
		r.perOp[k] = &metrics.Histogram{}
	}
	return r
}

// pickDir applies the locality knob.
func (r *runner) pickDir(rng *rand.Rand) string {
	d := 0
	if r.cfg.HotFrac <= 0 || rng.Float64() >= r.cfg.HotFrac {
		d = rng.Intn(r.cfg.Dirs)
	}
	return fmt.Sprintf("%s/d%d", r.cfg.PathPrefix, d)
}

// genOp draws the next operation from the mix and locality knobs.
func (r *runner) genOp(rng *rand.Rand) Op {
	kind := r.cfg.Mix.pick(rng)
	dir := r.pickDir(rng)
	switch kind {
	case OpCreate:
		return Op{Kind: kind, Path: fmt.Sprintf("%s/c%d-%d", dir, r.nonce, r.createSeq.Add(1))}
	case OpStat, OpSet:
		return Op{Kind: kind, Path: fmt.Sprintf("%s/k%d", dir, rng.Intn(r.cfg.Keys))}
	case OpReaddir:
		return Op{Kind: kind, Path: dir}
	default: // OpMulti
		seq := r.createSeq.Add(1)
		return Op{
			Kind:  kind,
			Path:  fmt.Sprintf("%s/m%d-%d-a", dir, r.nonce, seq),
			Path2: fmt.Sprintf("%s/m%d-%d-b", dir, r.nonce, seq),
		}
	}
}

// dispatch launches one operation without blocking the arrival loop.
func (r *runner) dispatch(ctx context.Context, tgt Target, op Op) {
	r.submitted.Add(1)
	if r.outstanding.Add(1) > int64(r.cfg.MaxOutstanding) {
		r.outstanding.Add(-1)
		r.shed.Add(1)
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.outstanding.Add(-1)
		opCtx, cancel := ctx, context.CancelFunc(nil)
		if r.cfg.OpTimeout > 0 {
			opCtx, cancel = context.WithTimeout(ctx, r.cfg.OpTimeout)
		}
		err := tgt.Do(opCtx, op)
		if cancel != nil {
			cancel()
		}
		r.record(op, r.clock.Now().Sub(op.Arrival), err)
	}()
}

// record books one completed operation.
func (r *runner) record(op Op, lat time.Duration, err error) {
	switch {
	case err == nil:
		r.completed.Add(1)
		r.overall.Observe(lat)
		r.perOp[op.Kind].Observe(lat)
		if op.Kind == OpCreate || op.Kind == OpMulti {
			r.ackedWrites.Add(1)
			if op.Path2 != "" {
				r.ackedWrites.Add(1)
			}
			if r.cfg.TrackAcked {
				r.ackedMu.Lock()
				r.acked = append(r.acked, op.Path)
				if op.Path2 != "" {
					r.acked = append(r.acked, op.Path2)
				}
				r.ackedMu.Unlock()
			}
		}
	case errors.Is(err, context.DeadlineExceeded):
		r.timeouts.Add(1)
	default:
		r.errs.Add(1)
	}
}

// result snapshots the run.
func (r *runner) result(loop string, sessions int, elapsed time.Duration) *Result {
	res := &Result{
		Name:       r.cfg.Name,
		Loop:       loop,
		Arrival:    string(r.cfg.Arrival),
		Mix:        r.cfg.Mix.String(),
		Sessions:   sessions,
		RateOps:    r.cfg.Rate,
		ElapsedSec: elapsed.Seconds(),
		Submitted:  r.submitted.Load(),
		Completed:  r.completed.Load(),
		Errors:     r.errs.Load(),
		Timeouts:   r.timeouts.Load(),
		Shed:       r.shed.Load(),
		Latency:    summarize(&r.overall),
		PerOp:      make(map[string]LatencySummary),
	}
	if res.Name == "" {
		res.Name = "loadgen"
	}
	if elapsed > 0 {
		res.AchievedOps = float64(res.Completed) / elapsed.Seconds()
	}
	for _, k := range opKinds {
		if h := r.perOp[k]; h.Count() > 0 {
			res.PerOp[string(k)] = summarize(h)
		}
	}
	res.AckedWrites = r.ackedWrites.Load()
	r.ackedMu.Lock()
	res.AckedPaths = append([]string(nil), r.acked...)
	r.ackedMu.Unlock()
	sort.Strings(res.AckedPaths)
	return res
}

// Run drives one OPEN-LOOP run: arrivals are generated at the offered
// rate on the configured clock and dispatched round-robin over the
// targets (one per session); no arrival ever waits for a completion.
// A cancelled ctx stops generating, cancels in-flight operations and
// drains them before returning — the partial Result is still valid.
func Run(ctx context.Context, cfg Config, targets []Target) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, errors.New("loadgen: need at least one target")
	}
	r := newRunner(cfg)
	// Two independent streams: the arrival process must consume
	// randomness at a fixed rate so the realized schedule is a function
	// of (arrival, rate, duration, seed) alone, however many draws op
	// generation makes.
	arrRng := rand.New(rand.NewSource(cfg.Seed))
	opRng := rand.New(rand.NewSource(cfg.Seed ^ 0x6c076f6c6f616421)) // "!daol-ol" — any fixed tweak
	start := r.clock.Now()
	end := start.Add(cfg.Duration)
	next := start
loop:
	for i := 0; ; i++ {
		next = next.Add(cfg.Arrival.gap(arrRng, cfg.Rate))
		if next.After(end) {
			break
		}
		if now := r.clock.Now(); next.After(now) {
			select {
			case <-r.clock.After(next.Sub(now)):
			case <-ctx.Done():
				break loop
			}
		} else if ctx.Err() != nil {
			break
		}
		op := r.genOp(opRng)
		op.Arrival = next
		r.dispatch(ctx, targets[i%len(targets)], op)
	}
	r.wg.Wait()
	return r.result("open", len(targets), r.clock.Now().Sub(start)), nil
}

// RunClosed drives the CLOSED-LOOP control: each target gets one
// worker that paces itself at rate/len(targets) but always WAITS for
// its previous operation before issuing the next — arrival instants
// that fall due while an operation is in flight are simply never
// offered, and latency is measured from the issue instant, not the
// intended arrival. This is deliberately the flattering methodology:
// under a stall it under-reports latency and silently sheds offered
// load. It exists so tests can document the divergence that justifies
// the open-loop harness (TestOpenVsClosedLoopDivergeUnderStall).
func RunClosed(ctx context.Context, cfg Config, targets []Target) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, errors.New("loadgen: need at least one target")
	}
	r := newRunner(cfg)
	perWorker := cfg.Rate / float64(len(targets))
	start := r.clock.Now()
	end := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w, tgt := range targets {
		wg.Add(1)
		go func(w int, tgt Target) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			next := start
			for {
				next = next.Add(cfg.Arrival.gap(rng, perWorker))
				if next.After(end) {
					return
				}
				now := r.clock.Now()
				if next.After(now) {
					select {
					case <-r.clock.After(next.Sub(now)):
					case <-ctx.Done():
						return
					}
				} else {
					// Fell behind: the closed-loop feedback. Skip the
					// missed arrivals instead of catching up.
					next = now
					if ctx.Err() != nil {
						return
					}
				}
				op := r.genOp(rng)
				op.Arrival = r.clock.Now() // issue instant, not intent
				r.submitted.Add(1)
				opCtx, cancel := ctx, context.CancelFunc(nil)
				if cfg.OpTimeout > 0 {
					opCtx, cancel = context.WithTimeout(ctx, cfg.OpTimeout)
				}
				err := tgt.Do(opCtx, op)
				if cancel != nil {
					cancel()
				}
				r.record(op, r.clock.Now().Sub(op.Arrival), err)
			}
		}(w, tgt)
	}
	wg.Wait()
	return r.result("closed", len(targets), r.clock.Now().Sub(start)), nil
}

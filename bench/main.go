// Command bench is the repository's end-to-end and per-layer metadata
// benchmark: four workloads over one fixed deployment, five end-to-end
// metrics measured with no decorator installed, and a separate traced
// run that wraps every layer boundary from outside to produce the
// per-layer metrics. See README.md in this directory.
//
//	go run ./bench                          every workload, end to end and traced
//	go run ./bench -workload meta-read      one workload
//	go run ./bench -trace 1                 only the traced runs
//	go run ./bench -seed 7                  other generated inputs
//	go run ./bench -repeat 2 -check         two sets, compared against the bounds
//
// With -workload and -trace 0|1 the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}, the form
// BENCHMARK.json's command is run in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// endToEndMetric declares one end-to-end metric and the share of the
// baseline by which it may get worse before a change counts as a
// regression. BENCHMARK.json carries the same table for the driver.
// The bounds are three times the run-to-run spread measured on the
// reference box (README, sizing), capped at the driver's 0.25.
type endToEndMetric struct {
	name, unit, better string
	bound              float64
}

var endToEndMetrics = []endToEndMetric{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"ok_frac", "fraction", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

const (
	defaultSeconds = 15
	e2eWarmup      = 2 * time.Second
	traceWarmup    = time.Second
	e2eSetups      = 3
	hostSample     = time.Second
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	repeat   int
	check    bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated path and mix draw")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the measured window of one run")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end runs only, 1: traced runs only (default: both)")
	flag.BoolVar(&o.quick, "quick", false, "smoke sizes: small populations, one set-up, early elections, short probes")
	flag.IntVar(&o.repeat, "repeat", 1, "how many full sets of end-to-end runs to make")
	flag.BoolVar(&o.check, "check", false, "with -repeat N: fail if consecutive sets differ by more than a bound")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("GOMAXPROCS is %d; the deployment needs at least 2 (two load-generating mounts beside the servers)", runtime.GOMAXPROCS(0))
	}
	if o.seconds < 1 || o.trace < -1 || o.trace > 1 || o.repeat < 1 {
		return fmt.Errorf("bad flag value: -seconds %d -trace %d -repeat %d", o.seconds, o.trace, o.repeat)
	}
	selected := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{w}
	}
	rc := runConfig{
		seed:      o.seed,
		measured:  time.Duration(o.seconds) * time.Second,
		warmup:    e2eWarmup,
		traceWarm: traceWarmup,
		calibrate: hostSample,
		setups:    e2eSetups,
		quick:     o.quick,
		walRoot:   walRoot(),
		outDir:    o.outDir,
	}
	if o.quick {
		rc.setups = 1
	}
	printHeader(rc)

	// incorrect: an output check failed, which fails the command. unsteady:
	// ops failed, an election fell inside a window or the SLO was missed;
	// those are measurements (failed, ok_frac, lat_p90_ms, zab.elections),
	// reported as such, and fail only a -check run.
	var last report
	incorrect, unsteady := false, false
	if o.trace != 1 {
		var sets []map[string]*report
		for r := 0; r < o.repeat; r++ {
			set := map[string]*report{}
			for _, w := range selected {
				rep, err := measure(w, rc)
				if err != nil {
					return err
				}
				rep.print(fmt.Sprintf("set %d", r+1))
				incorrect = incorrect || len(rep.problems) > 0
				unsteady = unsteady || !rep.ok()
				set[w.name], last = rep, *rep
			}
			sets = append(sets, set)
		}
		if o.check && (!compareSets(selected, sets) || unsteady) {
			return fmt.Errorf("-check: two sets differ by more than a bound, or ops failed, an election happened or the SLO was missed (see above)")
		}
	}
	if o.trace != 0 {
		budget := 200 * time.Millisecond
		if o.quick {
			budget = 10 * time.Millisecond
		}
		probes, err := runProbes(budget, rc.walRoot)
		if err != nil {
			return err
		}
		for _, w := range selected {
			rep, err := traceRun(w, rc, probes)
			if err != nil {
				return err
			}
			rep.print("traced")
			incorrect = incorrect || len(rep.problems) > 0
			last = *rep
		}
	}
	if o.workload != "" && o.trace >= 0 {
		// The driver's contract: the result object is the last line.
		line, err := json.Marshal(last.result())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if incorrect {
		return fmt.Errorf("an output check did not hold (see above)")
	}
	return nil
}

func printHeader(rc runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	kernel := "unknown"
	var un syscall.Utsname
	if syscall.Uname(&un) == nil {
		var b strings.Builder
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		kernel = b.String()
	}
	fmt.Printf("# bench: nproc=%d GOMAXPROCS=%d go=%s kernel=%s wal=%s(%s) commit=%s seed=%d window=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel,
		rc.walRoot, fsTypeName(rc.walRoot), commit, rc.seed, rc.measured)
}

// report is the outcome of one run of one workload, end-to-end or
// traced.
type report struct {
	workload  *workload
	attempted int64
	failed    int64 // errors + timeouts + shed + acked writes found missing
	elections uint64
	problems  []string
	e2e       map[string]value   // end-to-end runs
	layers    map[string]float64 // traced runs
	traceFile string
	hostSpeed float64 // end-to-end runs: TCP ping-pong rate over the reference rate
	cpuPerKop float64 // end-to-end runs: printed, not a gated metric
}

// ok reports whether the run was steady: outputs correct, nothing
// failed, no election, and on mixed-open the latency SLO met.
func (r *report) ok() bool {
	if len(r.problems) > 0 || r.failed > 0 || r.elections > 0 {
		return false
	}
	return !r.sloMissed()
}

func (r *report) sloMissed() bool {
	v, endToEnd := r.e2e["lat_p90_ms"]
	return endToEnd && r.workload.sloP90ms > 0 && v.median > r.workload.sloP90ms
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (r *report) result() resultJSON {
	out := resultJSON{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	if r.layers != nil {
		for _, m := range layerMetrics {
			out.Metrics[m.name] = metricJSON{r.layers[m.name], m.unit}
		}
		return out
	}
	for _, m := range endToEndMetrics {
		out.Metrics[m.name] = metricJSON{r.e2e[m.name].median, m.unit}
	}
	return out
}

func (r *report) print(label string) {
	fmt.Printf("\n== %s (%s): attempted=%d failed=%d elections=%d\n", r.workload.name, label, r.attempted, r.failed, r.elections)
	for _, p := range r.problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	if r.layers != nil {
		for _, m := range layerMetrics {
			fmt.Printf("   %-36s %14.3f %s\n", m.name, r.layers[m.name], m.unit)
		}
		if r.traceFile != "" {
			fmt.Printf("   trace written to %s\n", r.traceFile)
		}
		return
	}
	for _, m := range endToEndMetrics {
		v := r.e2e[m.name]
		fmt.Printf("   %-16s %12.4f %-8s  slice iqr %.4f  n=%d  slices %.4g\n", m.name, v.median, m.unit, v.iqr, v.n, v.slices)
	}
	scaled := "as measured"
	if r.workload.hostBound {
		scaled = "ops_per_s and lat_* are scaled to the reference host speed"
	}
	fmt.Printf("   host speed %.3f of reference (TCP loopback ping-pong); %s\n", r.hostSpeed, scaled)
	fmt.Printf("   cpu_ms_per_kop %.2f (not gated: see rt.cpu_ms_per_kop of the traced run)\n", r.cpuPerKop)
	if r.sloMissed() {
		fmt.Printf("   SLO MISSED: lat_p90_ms %.3f > %.1f\n", r.e2e["lat_p90_ms"].median, r.workload.sloP90ms)
	}
	if q := highestSupported(r.e2e["lat_p50_ms"].n, []float64{0.9, 0.99, 0.999}); q > 0.9 {
		fmt.Printf("   (sample supports up to p%g; p99 is reported by the traced run, not gated)\n", q*100)
	}
}

// measure makes one end-to-end run: set up rc.setups times (reporting
// the median set-up time), load the last deployment with no decorator
// installed, check the outputs. A run with an election inside is
// invalid and repeated once.
func measure(w *workload, rc runConfig) (*report, error) {
	var rep *report
	for attempt := 0; attempt < 2; attempt++ {
		var setups []float64
		var p *pass
		for i := 0; i < rc.setups; i++ {
			if p != nil {
				p.d.stop()
			}
			var err error
			if p, err = setUp(w, rc, nil, false); err != nil {
				return nil, err
			}
			setups = append(setups, p.setup.Seconds())
		}
		// The host's own speed is sampled right before and right after
		// the window, while the deployment idles.
		ping0, err := hostPingPerS(rc.calibrate)
		if err == nil {
			err = p.load(w, rc, rc.warmup, rc.measured, false, nil, nil)
		}
		ping1, perr := hostPingPerS(rc.calibrate)
		p.d.stop()
		if err == nil {
			err = perr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		e2e, err := endToEnd(p.rec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		hostSpeed := (ping0 + ping1) / 2 / referencePingPerS
		if w.hostBound {
			e2e["ops_per_s"] = e2e["ops_per_s"].scaled(1 / hostSpeed)
			e2e["lat_p50_ms"] = e2e["lat_p50_ms"].scaled(hostSpeed)
			e2e["lat_p90_ms"] = e2e["lat_p90_ms"].scaled(hostSpeed)
		}
		e2e["setup_s"] = value{median(setups), iqr(setups), len(setups), setups}
		rep = &report{workload: w, e2e: e2e, hostSpeed: hostSpeed, cpuPerKop: cpuPerKop(p), elections: p.elections, problems: p.problems}
		rep.attempted, rep.failed = p.rec.totals()
		rep.failed += int64(p.lost)
		if p.rec.firstErr != nil && rep.failed > 0 {
			rep.problems = append(rep.problems, "first failed op: "+p.rec.firstErr.Error())
		}
		if p.elections == 0 {
			break
		}
		fmt.Printf("   %s: %d election(s) inside the window; run is invalid, repeating once\n", w.name, p.elections)
	}
	return rep, nil
}

// traceRun makes the traced run of one workload: a short reference
// window on an undecorated deployment (for the tracing overhead and the
// runtime's per-op costs), then the traced window on a decorated one.
func traceRun(w *workload, rc runConfig, probes map[string]float64) (*report, error) {
	refLen, tracedLen := rc.measured/3, rc.measured*2/3

	ref, err := setUp(w, rc, nil, true)
	if err != nil {
		return nil, err
	}
	var rt0, rt1 rtSnapshot
	err = ref.load(w, rc, rc.traceWarm, refLen, true, func() { rt0 = readRT() }, func() { rt1 = readRT() })
	ref.d.stop()
	if err != nil {
		return nil, fmt.Errorf("%s (reference): %w", w.name, err)
	}
	refOK, _ := ref.rec.totals()

	tr := newTracer(w.shards)
	p, err := setUp(w, rc, tr, false)
	if err != nil {
		return nil, err
	}
	defer p.d.stop()
	tw := tracedWindow{
		seconds:    tracedLen.Seconds(),
		usesVFS:    !w.noVFS,
		usesShards: w.shards > 1,
	}
	err = p.load(w, rc, rc.traceWarm, tracedLen, true, func() {
		tw.reg0 = p.d.registryTotals()
		tw.gauges = startGaugeSampler(p.d)
		tr.start()
	}, func() {
		tr.stop()
		tw.gauges.finish()
		tw.reg1 = p.d.registryTotals()
	})
	if err != nil {
		return nil, fmt.Errorf("%s (traced): %w", w.name, err)
	}
	attempted, failed := p.rec.totals()
	tw.ops, tw.lats = float64(attempted-failed), p.rec.allLats()
	tw.late, tw.shed = p.rec.late, p.rec.shed
	tw.elections, tw.nodes = p.elections+ref.elections, p.nodes

	layers := layerValues(tr, tw)
	rtMetrics(layers, rt0, rt1, float64(refOK))
	layers["znode.heap_bytes_per_node"] = ref.heapPerNode
	layers["rt.cpu_ms_per_kop"] = cpuPerKop(ref)
	ping, err := hostPingPerS(rc.calibrate)
	if err != nil {
		return nil, err
	}
	layers["gen.host_pingpong_per_s"] = ping
	refRate, tracedRate := float64(refOK)/refLen.Seconds(), tw.ops/tracedLen.Seconds()
	layers["gen.trace_overhead_frac"] = 1 - ratio(tracedRate, refRate)
	for k, v := range probes {
		layers[k] = v
	}

	rep := &report{workload: w, layers: layers, attempted: attempted, failed: failed + int64(p.lost),
		elections: tw.elections, problems: p.problems}
	if w.coldRestart {
		// Cold restart of the whole ensemble from its write-ahead logs:
		// everything acked must still be there.
		start := time.Now()
		for _, e := range p.d.ensembles {
			if err := e.Restart(); err != nil {
				return nil, fmt.Errorf("%s: restart: %w", w.name, err)
			}
		}
		if err := p.check(rc); err != nil {
			return nil, fmt.Errorf("%s: after restart: %w", w.name, err)
		}
		layers["storage.recovery_s"] = time.Since(start).Seconds()
		rep.failed += int64(p.lost)
		for _, pr := range p.problems {
			rep.problems = append(rep.problems, "after restart: "+pr)
		}
	}
	if rep.traceFile, err = tr.writeFile(rc.outDir, w.name, rc.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// compareSets prints, per workload and end-to-end metric, the values of
// consecutive sets, their relative difference and the bound, and
// reports whether every difference is within its bound.
func compareSets(selected []*workload, sets []map[string]*report) bool {
	ok := true
	fmt.Printf("\n== check: consecutive sets against the bounds\n")
	for _, w := range selected {
		for _, m := range endToEndMetrics {
			var vals []string
			worst := 0.0
			for i, set := range sets {
				v := set[w.name].e2e[m.name].median
				vals = append(vals, fmt.Sprintf("%.4f", v))
				if i == 0 {
					continue
				}
				prev := sets[i-1][w.name].e2e[m.name].median
				worse := (v - prev) / prev
				if m.better == "higher" {
					worse = -worse
				}
				worst = max(worst, worse)
			}
			verdict := "ok"
			if worst > m.bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Printf("   %-13s %-16s %-28s worse by %6.2f%%  bound %5.1f%%  %s\n",
				w.name, m.name, strings.Join(vals, " -> "), worst*100, m.bound*100, verdict)
		}
	}
	return ok
}

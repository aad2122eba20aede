// Command loadgen drives the open-loop workload harness against an
// in-process coordination deployment and reports the latency tail and
// achieved-vs-offered rate; with -scenario it runs cells of the chaos
// matrix instead. Results can be written as machine-readable JSON
// (BENCH_loadgen.json in CI) so the performance trajectory of the
// repo is diffable commit over commit.
//
// Usage:
//
//	loadgen -rate 500 -duration 5s -sessions 4
//	loadgen -rate 500 -mix 'create=60,stat=30,readdir=10' -arrival uniform
//	loadgen -closed                  # closed-loop comparison run
//	loadgen -observers 2 -read-from observer   # reads on the observer tier
//	loadgen -scenario leader-kill    # one chaos cell
//	loadgen -scenario all -scale 2   # whole matrix, stretched 2x
//	loadgen -json BENCH_loadgen.json -max-p99 500ms
//
// The exit status is the CI gate: non-zero when -max-p99 is exceeded
// or any scenario violates its SLO.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/cluster"
	"repro/internal/loadgen"
)

func main() {
	rate := flag.Float64("rate", 500, "offered arrival rate, ops/s")
	duration := flag.Duration("duration", 5*time.Second, "load window")
	sessions := flag.Int("sessions", 4, "concurrent coordination sessions")
	mixSpec := flag.String("mix", loadgen.DefaultMix().String(), "workload mix, kind=weight pairs")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson or uniform")
	dirs := flag.Int("dirs", 16, "working directories")
	hot := flag.Float64("hot", 0, "fraction of ops pinned to directory 0 (path locality)")
	keys := flag.Int("keys", 64, "pre-created keys per directory (stat/set keyspace)")
	coord := flag.Int("coord", 3, "coordination ensemble size")
	shards := flag.Int("shards", 1, "coordination shards (ensembles)")
	observers := flag.Int("observers", 0, "non-voting observer replicas per shard")
	readFrom := flag.String("read-from", "", "read placement: leader (lease reads), observer (observers first) or any (spread over every replica); empty = the i-th voter")
	opTimeout := flag.Duration("op-timeout", 5*time.Second, "per-operation timeout")
	seed := flag.Int64("seed", 1, "deterministic schedule seed")
	closed := flag.Bool("closed", false, "run the closed-loop generator instead (comparison)")
	scenario := flag.String("scenario", "", "chaos scenario name, or 'all' for the whole matrix")
	scale := flag.Float64("scale", 1, "time scale for scenarios (1 = smoke)")
	jsonOut := flag.String("json", "", "write machine-readable results to this file")
	maxP99 := flag.Duration("max-p99", 0, "exit non-zero when overall p99 exceeds this bound")
	flag.Parse()

	ctx := context.Background()
	out := report{Kind: "loadgen", GeneratedUnix: time.Now().Unix()}
	failed := false

	if *scenario != "" {
		cells := cluster.Matrix()
		if *scenario != "all" {
			sc, ok := cluster.FindScenario(*scenario)
			if !ok {
				log.Fatalf("unknown scenario %q (have: %s)", *scenario, scenarioNames())
			}
			cells = []cluster.Scenario{sc}
		}
		for _, sc := range cells {
			res, err := cluster.RunScenario(ctx, sc, *scale)
			if err != nil {
				log.Fatalf("scenario %s: %v", sc.Name, err)
			}
			out.Scenarios = append(out.Scenarios, res)
			fmt.Printf("=== scenario %s\n", sc.Name)
			for _, line := range res.Faults {
				fmt.Printf("  fault %s\n", line)
			}
			fmt.Printf("  %s\n  acked verified: %d, missing: %d\n", &res.Load, res.AckedChecked, res.MissingAcked)
			if res.OK() {
				fmt.Println("  SLO: ok")
			} else {
				failed = true
				for _, v := range res.Violations {
					fmt.Printf("  SLO VIOLATION: %s\n", v)
				}
			}
			if *maxP99 > 0 && res.Load.Latency.P99() > *maxP99 {
				failed = true
				fmt.Printf("  GATE: p99 %v exceeds -max-p99 %v\n", res.Load.Latency.P99(), *maxP99)
			}
		}
	} else {
		res := runLoad(ctx, loadCfg{
			rate: *rate, duration: *duration, sessions: *sessions,
			mixSpec: *mixSpec, arrival: *arrival, dirs: *dirs, hot: *hot,
			keys: *keys, coord: *coord, shards: *shards,
			observers: *observers, readFrom: *readFrom,
			opTimeout: *opTimeout, seed: *seed, closed: *closed,
		})
		out.Runs = append(out.Runs, res)
		fmt.Println(res)
		if *maxP99 > 0 && res.Latency.P99() > *maxP99 {
			failed = true
			fmt.Printf("GATE: p99 %v exceeds -max-p99 %v\n", res.Latency.P99(), *maxP99)
		}
	}

	out.Runtime = captureRuntime(completedOps(&out))

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if failed {
		os.Exit(1)
	}
}

// report is the BENCH_loadgen.json schema (DESIGN.md §12).
type report struct {
	Kind          string                    `json:"kind"`
	GeneratedUnix int64                     `json:"generated_unix"`
	Runs          []*loadgen.Result         `json:"runs,omitempty"`
	Scenarios     []*cluster.ScenarioResult `json:"scenarios,omitempty"`
	Runtime       *runtimeStats             `json:"runtime,omitempty"`
}

// runtimeStats is the Go runtime's view of the whole process — GC
// pause tail, heap footprint and allocation rate — so a wire-path or
// read-path allocation regression shows up in the JSON artifact next
// to the latency tail it distorts. The process lifetime of this CLI is
// the load run, so process-wide GC history is the run's GC history.
type runtimeStats struct {
	NumGC        int64   `json:"num_gc"`
	GCPauseP50Ms float64 `json:"gc_pause_p50_ms"`
	GCPauseP99Ms float64 `json:"gc_pause_p99_ms"`
	GCPauseMaxMs float64 `json:"gc_pause_max_ms"`
	// GCCPUFraction is the fraction of available CPU consumed by the
	// collector since process start.
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
	HeapAllocMB   float64 `json:"heap_alloc_mb"`
	HeapSysMB     float64 `json:"heap_sys_mb"`
	HeapObjects   uint64  `json:"heap_objects"`
	TotalAllocMB  float64 `json:"total_alloc_mb"`
	// MallocsPerOp is lifetime heap allocations divided by completed
	// load operations — the end-to-end allocation cost of one op,
	// harness included. Zero when no ops completed.
	MallocsPerOp float64 `json:"mallocs_per_op"`
}

// captureRuntime snapshots the runtime counters after the load window.
func captureRuntime(ops int64) *runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := debug.GCStats{PauseQuantiles: make([]time.Duration, 101)}
	debug.ReadGCStats(&gc)
	rs := &runtimeStats{
		NumGC:         gc.NumGC,
		GCCPUFraction: ms.GCCPUFraction,
		HeapAllocMB:   float64(ms.HeapAlloc) / (1 << 20),
		HeapSysMB:     float64(ms.HeapSys) / (1 << 20),
		HeapObjects:   ms.HeapObjects,
		TotalAllocMB:  float64(ms.TotalAlloc) / (1 << 20),
	}
	if gc.NumGC > 0 {
		rs.GCPauseP50Ms = float64(gc.PauseQuantiles[50]) / float64(time.Millisecond)
		rs.GCPauseP99Ms = float64(gc.PauseQuantiles[99]) / float64(time.Millisecond)
		rs.GCPauseMaxMs = float64(gc.PauseQuantiles[100]) / float64(time.Millisecond)
	}
	if ops > 0 {
		rs.MallocsPerOp = float64(ms.Mallocs) / float64(ops)
	}
	return rs
}

// completedOps totals completed operations across every run and
// scenario in the report.
func completedOps(r *report) int64 {
	var n int64
	for _, run := range r.Runs {
		n += run.Completed
	}
	for _, sc := range r.Scenarios {
		n += sc.Load.Completed
	}
	return n
}

type loadCfg struct {
	rate      float64
	duration  time.Duration
	sessions  int
	mixSpec   string
	arrival   string
	dirs      int
	hot       float64
	keys      int
	coord     int
	shards    int
	observers int
	readFrom  string
	opTimeout time.Duration
	seed      int64
	closed    bool
}

func runLoad(ctx context.Context, c loadCfg) *loadgen.Result {
	mix, err := loadgen.ParseMix(c.mixSpec)
	if err != nil {
		log.Fatal(err)
	}
	arr := loadgen.Poisson
	if c.arrival == string(loadgen.Uniform) {
		arr = loadgen.Uniform
	}
	cl, err := cluster.Start(cluster.Config{
		Name:           "loadgen",
		CoordServers:   c.coord,
		CoordShards:    c.shards,
		CoordObservers: c.observers,
		Backends:       1,
		Kind:           cluster.MemFS,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()
	cfg := loadgen.Config{
		Name:       "cli",
		Rate:       c.rate,
		Arrival:    arr,
		Duration:   c.duration,
		Mix:        mix,
		Dirs:       c.dirs,
		HotFrac:    c.hot,
		Keys:       c.keys,
		OpTimeout:  c.opTimeout,
		Seed:       c.seed,
		TrackAcked: true,
	}
	prep, err := cl.ConnectCoord("", -1)
	if err != nil {
		log.Fatal(err)
	}
	defer prep.Close()
	if err := loadgen.Prepare(ctx, prep, cfg); err != nil {
		log.Fatal(err)
	}
	var targets []loadgen.Target
	for i := 0; i < c.sessions; i++ {
		s, err := cl.ConnectCoord(c.readFrom, i)
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		targets = append(targets, loadgen.NewClientTarget(s))
	}
	run := loadgen.Run
	if c.closed {
		run = loadgen.RunClosed
	}
	readSplit := cl.ReadSplit()
	res, err := run(ctx, cfg, targets)
	if err != nil {
		log.Fatal(err)
	}
	res.ReadFrom, res.ReadSplit = c.readFrom, readSplit()
	missing, err := loadgen.VerifyAcked(ctx, prep, res.AckedPaths)
	if err != nil {
		log.Fatalf("verifying acked writes: %v", err)
	}
	if len(missing) > 0 {
		log.Fatalf("ACKED WRITE LOSS: %d of %d missing (first %s)", len(missing), len(res.AckedPaths), missing[0])
	}
	return res
}

func scenarioNames() string {
	s := ""
	for i, sc := range cluster.Matrix() {
		if i > 0 {
			s += ", "
		}
		s += sc.Name
	}
	return s
}

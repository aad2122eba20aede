package main

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"
)

func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 11, measured: time.Second, warmup: 100 * time.Millisecond, traceWarm: 100 * time.Millisecond, calibrate: 20 * time.Millisecond,
		setups: 1, quick: true, walRoot: t.TempDir(), outDir: t.TempDir()}
}

// Every workload end to end, and the traced run of the two workloads
// that between them pass every decorator, all with one-second windows:
// the runs complete, report every metric, their outputs check out and
// the bypass predictions hold. (Failure counts and elections are not
// asserted: the test shares the machine.)
func TestSmoke(t *testing.T) {
	probes, err := runProbes(5*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Most of a short run is waiting for elections; run them side by
	// side (more than -parallel would allow on a small box).
	var wg sync.WaitGroup
	for _, w := range workloads {
		wg.Add(1)
		go func(w *workload) {
			defer wg.Done()
			smokeEndToEnd(t, w)
		}(w)
	}
	for _, name := range []string{"mixed-open", "wan-pipeline"} {
		wg.Add(1)
		go func(w *workload) {
			defer wg.Done()
			smokeTraced(t, w, probes)
		}(workloadByName(name))
	}
	wg.Wait()
}

func smokeEndToEnd(t *testing.T, w *workload) {
	rep, err := measure(w, smokeConfig(t))
	if err != nil {
		t.Errorf("%s: %v", w.name, err)
		return
	}
	for _, p := range rep.problems {
		t.Errorf("%s: %s", w.name, p)
	}
	if rep.attempted < 5 {
		t.Errorf("%s: only %d ops attempted", w.name, rep.attempted)
	}
	res := rep.result()
	for _, m := range endToEndMetrics {
		if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 {
			t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, v.Value)
		}
	}
	t.Logf("%s: failed=%d elections=%d", w.name, rep.failed, rep.elections)
}

func smokeTraced(t *testing.T, w *workload, probes map[string]float64) {
	rep, err := traceRun(w, smokeConfig(t), probes)
	if err != nil {
		t.Errorf("%s traced: %v", w.name, err)
		return
	}
	for _, p := range rep.problems {
		t.Errorf("%s traced: %s", w.name, p)
	}
	if res := rep.result(); len(res.Metrics) != len(layerMetrics) {
		t.Errorf("%s traced: %d metrics reported, want %d", w.name, len(res.Metrics), len(layerMetrics))
	}
	l := rep.layers
	if w.shards > 1 {
		if l["shard.subcalls_per_rpc"] < 1 || l["vfs.ops"] == 0 || l["core.rpcs_per_op"] == 0 || l["backend.busy_us_per_op"] == 0 {
			t.Errorf("%s traced: shard, vfs, core or backend layer not seen: %v", w.name, l)
		}
	} else {
		if l["shard.subcalls_per_rpc"] != 0 || l["vfs.ops"] != 0 {
			t.Errorf("%s traced: bypassed layers report work: shard %v vfs %v", w.name, l["shard.subcalls_per_rpc"], l["vfs.ops"])
		}
		if l["zab.txns_per_frame"] <= 1 {
			t.Errorf("%s traced: zab.txns_per_frame = %v under a pipelined window, want > 1", w.name, l["zab.txns_per_frame"])
		}
	}
	if l["storage.syncs_per_write"] == 0 || l["transport.wire_us_p50"] == 0 || l["zab.quorum_rtt_p50_us"] == 0 {
		t.Errorf("%s traced: server-side layers not seen: %v", w.name, l)
	}
	if _, err := os.Stat(rep.traceFile); err != nil {
		t.Errorf("%s traced: %v", w.name, err)
	}
}

// BENCHMARK.json at the repository root must declare exactly what the
// program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: declared %q, implemented %q (why: %d chars)", i, doc.Workloads[i].Name, w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) || len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("declared %d+%d metrics, implemented %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEndMetrics), len(layerMetrics))
	}
	for i, m := range endToEndMetrics {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound == nil || *d.Bound != m.bound {
			t.Errorf("end_to_end[%d]: declared %+v, implemented %+v", i, d, m)
		}
	}
	for i, m := range layerMetrics {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != nil {
			t.Errorf("per_layer[%d]: declared %+v, implemented %+v", i, d, m)
		}
	}
}

package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// layerMetric declares one per-layer metric: the name is
// "<layer>.<what>", layer being the module name.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics is the full list, in the order they are printed. A layer
// the workload bypasses reports 0.
var layerMetrics = []layerMetric{
	{"vfs.ops", "count", "higher"},
	{"vfs.create.p50_us", "us", "lower"},
	{"vfs.create.p99_us", "us", "lower"},
	{"vfs.unlink.p50_us", "us", "lower"},
	{"vfs.mkdir.p50_us", "us", "lower"},
	{"vfs.rename.p50_us", "us", "lower"},
	{"vfs.chmod.p50_us", "us", "lower"},
	{"vfs.stat.p50_us", "us", "lower"},
	{"vfs.stat.p99_us", "us", "lower"},
	{"vfs.readdir.p50_us", "us", "lower"},
	{"vfs.readdir.p99_us", "us", "lower"},
	{"vfs.all.p99_ms", "ms", "lower"},
	{"vfs.all.p999_ms", "ms", "lower"},
	{"core.self_us_per_op", "us", "lower"},
	{"core.rpcs_per_op", "count", "lower"},
	{"core.backend_calls_per_op", "count", "lower"},
	{"backend.busy_us_per_op", "us", "lower"},
	{"shard.self_us_per_rpc", "us", "lower"},
	{"shard.subcalls_per_rpc", "count", "lower"},
	{"shard.max_share", "fraction", "lower"},
	{"coord.client.rpcs", "count", "higher"},
	{"coord.client.self_us_per_rpc", "us", "lower"},
	{"coord.client.calls_per_rpc", "count", "lower"},
	{"coord.client.inflight_mean", "count", "higher"},
	{"transport.client_calls", "count", "higher"},
	{"transport.wire_us_p50", "us", "lower"},
	{"transport.req_bytes_per_op", "bytes", "lower"},
	{"transport.resp_bytes_per_op", "bytes", "lower"},
	{"transport.peer_calls_per_write", "count", "lower"},
	{"transport.peer_bytes_per_write", "bytes", "lower"},
	{"coord.server.read_handle_p50_us", "us", "lower"},
	{"coord.server.write_handle_p50_us", "us", "lower"},
	{"coord.server.busy_frac", "fraction", "lower"},
	{"zab.frames", "count", "lower"},
	{"zab.txns_per_frame", "count", "higher"},
	{"zab.quorum_rtt_p50_us", "us", "lower"},
	{"zab.proposer_queue_mean", "count", "lower"},
	{"zab.apply_lag_max", "count", "lower"},
	{"zab.follower_lag_max_txns", "count", "lower"},
	{"zab.elections", "count", "lower"},
	{"storage.appends_per_write", "count", "lower"},
	{"storage.syncs_per_write", "count", "lower"},
	{"storage.txns_per_sync", "count", "higher"},
	{"storage.append_p50_us", "us", "lower"},
	{"storage.sync_p50_us", "us", "lower"},
	{"storage.wal_bytes_per_write", "bytes", "lower"},
	{"storage.recovery_s", "s", "lower"},
	{"znode.nodes", "count", "lower"},
	{"znode.heap_bytes_per_node", "bytes", "lower"},
	{"rt.allocs_per_op", "count", "lower"},
	{"rt.alloc_bytes_per_op", "bytes", "lower"},
	{"rt.gc_pause_p99_us", "us", "lower"},
	{"rt.gc_cpu_frac", "fraction", "lower"},
	{"rt.cpu_ms_per_kop", "ms", "lower"},
	{"gen.late_p50_us", "us", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"gen.shed", "count", "lower"},
	{"gen.trace_overhead_frac", "fraction", "lower"},
	{"gen.host_pingpong_per_s", "1/s", "higher"},
	{"probe.wire.create_txn_ns", "ns", "lower"},
	{"probe.wire.listing64_ns", "ns", "lower"},
	{"probe.znode.create_ns", "ns", "lower"},
	{"probe.znode.exists_ns", "ns", "lower"},
	{"probe.znode.childrendata64_ns", "ns", "lower"},
	{"probe.storage.append1_sync_us", "us", "lower"},
	{"probe.storage.append32_sync_us", "us", "lower"},
	{"probe.transport.tcp_echo_p50_us", "us", "lower"},
	{"probe.transport.inproc_echo_p50_us", "us", "lower"},
	{"probe.zab.propose_seq_p50_us", "us", "lower"},
	{"probe.zab.conc32_txns_per_frame", "count", "higher"},
	{"probe.watch.notify_p50_us", "us", "lower"},
	{"probe.cache.hit_stat_ns", "ns", "lower"},
	{"probe.cache.miss_stat_us", "us", "lower"},
}

// registryTotals sums the two server-side distributions the benchmark
// reads across every member of every ensemble.
type registryTotals struct {
	frames, frameTxns int64 // zab.proposer.batch_txns: count, sum
	syncs, syncTxns   int64 // storage.fsync_batch_txns: count, sum
}

func (d *deployment) registryTotals() registryTotals {
	var t registryTotals
	for _, e := range d.ensembles {
		for _, s := range e.Servers {
			if s == nil {
				continue
			}
			b := s.Metrics().Distribution("zab.proposer.batch_txns")
			t.frames += b.Count()
			t.frameTxns += b.Sum()
			f := s.Metrics().Distribution("storage.fsync_batch_txns")
			t.syncs += f.Count()
			t.syncTxns += f.Sum()
		}
	}
	return t
}

// gaugeSampler polls the replication gauges at 10 Hz over a window.
type gaugeSampler struct {
	stop chan struct{}
	done sync.WaitGroup

	queueSum, samples         float64
	applyLagMax, followLagMax float64
}

func startGaugeSampler(d *deployment) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{})}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			g.samples++
			for _, e := range d.ensembles {
				leader := e.Leader()
				if leader == nil {
					continue
				}
				g.queueSum += float64(leader.Metrics().Gauge("zab.proposer.queue_depth").Value())
				commit := leader.CommitZxid()
				for _, s := range e.Servers {
					g.applyLagMax = max(g.applyLagMax, float64(s.Metrics().Gauge("zab.apply.lag").Value()))
					// Same epoch, so the zxids' low halves are comparable.
					if applied := s.LastApplied(); s != leader && commit > applied && commit>>32 == applied>>32 {
						g.followLagMax = max(g.followLagMax, float64(commit-applied))
					}
				}
			}
		}
	}()
	return g
}

func (g *gaugeSampler) finish() {
	close(g.stop)
	g.done.Wait()
}

// rtSnapshot is the Go runtime's view of the process at an instant.
type rtSnapshot struct {
	mallocs, bytes uint64
	numGC          uint32
	gcCPU, allCPU  float64
	pauses         []time.Duration // most recent first
}

func readRT() rtSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	s := rtSnapshot{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC, pauses: gs.Pause}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.allCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return s
}

// rtMetrics reports allocation and GC cost per op between two
// snapshots.
func rtMetrics(out map[string]float64, a, b rtSnapshot, ops float64) {
	if ops > 0 {
		out["rt.allocs_per_op"] = float64(b.mallocs-a.mallocs) / ops
		out["rt.alloc_bytes_per_op"] = float64(b.bytes-a.bytes) / ops
	}
	if b.allCPU > a.allCPU {
		out["rt.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / (b.allCPU - a.allCPU)
	}
	pauses := make([]float64, min(int(b.numGC-a.numGC), len(b.pauses)))
	for i := range pauses {
		pauses[i] = float64(b.pauses[i]) / 1e3
	}
	sort.Float64s(pauses)
	out["rt.gc_pause_p99_us"] = quantile(pauses, 0.99)
}

// tracedWindow is everything the per-layer metrics are computed from,
// beside the tracer itself.
type tracedWindow struct {
	seconds    float64
	ops        float64 // successful ops in the window
	lats       []int64 // their end-to-end latencies
	late       []int64
	shed       int64
	reg0, reg1 registryTotals
	gauges     *gaugeSampler
	elections  uint64
	nodes      int64
	usesVFS    bool
	usesShards bool
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues turns one traced window into the per-layer metrics the
// decorators and server registries feed. rt.*, probe.*, recovery,
// heap and trace overhead are filled in by the caller.
func layerValues(t *tracer, w tracedWindow) map[string]float64 {
	out := map[string]float64{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	if w.usesVFS {
		var vfsOps int
		for _, s := range t.vfs {
			vfsOps += s.count()
		}
		out["vfs.ops"] = float64(vfsOps)
		for _, m := range []struct {
			name string
			kind opKind
			q    float64
		}{
			{"vfs.create.p50_us", opCreate, 0.5}, {"vfs.create.p99_us", opCreate, 0.99},
			{"vfs.unlink.p50_us", opUnlink, 0.5}, {"vfs.mkdir.p50_us", opMkdir, 0.5},
			{"vfs.rename.p50_us", opRename, 0.5}, {"vfs.chmod.p50_us", opChmod, 0.5},
			{"vfs.stat.p50_us", opStat, 0.5}, {"vfs.stat.p99_us", opStat, 0.99},
			{"vfs.readdir.p50_us", opReaddir, 0.5}, {"vfs.readdir.p99_us", opReaddir, 0.99},
		} {
			out[m.name] = t.vfs[m.kind].quantileUS(m.q)
		}
		n := float64(vfsOps)
		out["core.self_us_per_op"] = ratio(us(t.coreSelf.sum()), n)
		top := t.clientRPC
		if w.usesShards {
			top = t.shardRPC
		}
		out["core.rpcs_per_op"] = ratio(float64(top.count()), n)
		out["core.backend_calls_per_op"] = ratio(float64(t.backend.count()), n)
		out["backend.busy_us_per_op"] = ratio(us(t.backend.sum()), n)
	}
	out["vfs.all.p99_ms"] = quantileNS(w.lats, 0.99) / 1e6
	out["vfs.all.p999_ms"] = quantileNS(w.lats, 0.999) / 1e6

	rpcs := float64(t.clientRPC.count())
	if w.usesShards {
		routed := float64(t.shardRPC.count())
		out["shard.self_us_per_rpc"] = ratio(us(t.shardRPC.sum()-t.clientRPC.sum()), routed)
		out["shard.subcalls_per_rpc"] = ratio(rpcs, routed)
		var hits, most int64
		for i := range t.shardHits {
			h := t.shardHits[i].Load()
			hits += h
			most = max(most, h)
		}
		out["shard.max_share"] = ratio(float64(most), float64(hits))
	}

	calls := float64(t.clientCall.count())
	out["coord.client.rpcs"] = rpcs
	out["coord.client.self_us_per_rpc"] = ratio(us(t.clientRPC.sum()-t.clientCall.sum()), rpcs)
	out["coord.client.calls_per_rpc"] = ratio(calls, rpcs)
	out["coord.client.inflight_mean"] = float64(t.clientRPC.sum()) / 1e9 / w.seconds

	writes := float64(t.handleWrite.count())
	out["transport.client_calls"] = calls
	out["transport.wire_us_p50"] = t.wire.quantileUS(0.5)
	out["transport.req_bytes_per_op"] = ratio(float64(t.reqBytes.Load()), w.ops)
	out["transport.resp_bytes_per_op"] = ratio(float64(t.respBytes.Load()), w.ops)
	out["transport.peer_calls_per_write"] = ratio(float64(t.peerCall.count()), writes)
	out["transport.peer_bytes_per_write"] = ratio(float64(t.peerBytes.Load()), writes)

	out["coord.server.read_handle_p50_us"] = t.handleRead.quantileUS(0.5)
	out["coord.server.write_handle_p50_us"] = t.handleWrite.quantileUS(0.5)
	out["coord.server.busy_frac"] = ratio(float64(t.busyNS.Load())/1e9, w.seconds*float64(t.listeners.Load()))

	frames := float64(w.reg1.frames - w.reg0.frames)
	out["zab.frames"] = frames
	out["zab.txns_per_frame"] = ratio(float64(w.reg1.frameTxns-w.reg0.frameTxns), frames)
	out["zab.quorum_rtt_p50_us"] = t.peerPropose.quantileUS(0.5)
	out["zab.proposer_queue_mean"] = ratio(w.gauges.queueSum, w.gauges.samples)
	out["zab.apply_lag_max"] = w.gauges.applyLagMax
	out["zab.follower_lag_max_txns"] = w.gauges.followLagMax
	out["zab.elections"] = float64(w.elections)

	// Every replica appends and syncs each frame; report one replica's share.
	perReplica := writes * serversPerEnsemble
	out["storage.appends_per_write"] = ratio(float64(t.append.count()), perReplica)
	out["storage.syncs_per_write"] = ratio(float64(t.sync.count()), perReplica)
	out["storage.txns_per_sync"] = ratio(float64(w.reg1.syncTxns-w.reg0.syncTxns), float64(w.reg1.syncs-w.reg0.syncs))
	out["storage.append_p50_us"] = t.append.quantileUS(0.5)
	out["storage.sync_p50_us"] = t.sync.quantileUS(0.5)
	out["storage.wal_bytes_per_write"] = ratio(float64(t.walBytes.Load()), perReplica)

	out["znode.nodes"] = float64(w.nodes)
	out["gen.late_p50_us"] = quantileNS(w.late, 0.5) / 1e3
	out["gen.late_p99_us"] = quantileNS(w.late, 0.99) / 1e3
	out["gen.shed"] = float64(w.shed)
	return out
}

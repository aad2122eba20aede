// Package repro's benchmark harness: one benchmark per table/figure of
// the paper's evaluation (§V), plus real-stack micro-benchmarks and
// ablations of the design choices called out in DESIGN.md §6.
//
// The Fig benchmarks drive the calibrated discrete-event model and
// report virtual-time throughput ("vops/s") — these regenerate the
// paper's curves. The RealStack benchmarks measure the actual Go
// implementation over the in-process transport on this machine.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig10Comparison -benchtime=1x
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend/memfs"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/coord/migrate"
	"repro/internal/coord/znode"
	"repro/internal/core"
	"repro/internal/fid"
	"repro/internal/mdtest"
	"repro/internal/memacct"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// runModel executes one modelled phase per b.N iteration and reports
// the virtual throughput.
func runModel(b *testing.B, mk func(eng *sim.Engine, clients int) model.System, op model.Op, clients, opsPerClient int) {
	b.Helper()
	var last model.Result
	for i := 0; i < b.N; i++ {
		var eng sim.Engine
		sys := mk(&eng, clients)
		last = model.RunPhase(&eng, sys, op, clients, opsPerClient)
	}
	b.ReportMetric(last.Throughput, "vops/s")
}

// BenchmarkFig7CoordThroughput regenerates Fig 7a-d: raw coordination
// service throughput per basic operation and ensemble size at 256
// client processes.
func BenchmarkFig7CoordThroughput(b *testing.B) {
	p := model.DefaultParams()
	for _, op := range []model.Op{model.OpZKCreate, model.OpZKDelete, model.OpZKSet, model.OpZKGet} {
		for _, servers := range []int{1, 4, 8} {
			servers := servers
			b.Run(fmt.Sprintf("%s/servers=%d", op, servers), func(b *testing.B) {
				runModel(b, func(eng *sim.Engine, clients int) model.System {
					return model.NewRawCoord(eng, p, servers)
				}, op, 256, 100)
			})
		}
	}
}

// BenchmarkFig8ZKServers regenerates Fig 8a-f: the six mdtest
// operations with 1/4/8 coordination servers over 2 Lustre back-ends,
// at 256 processes, vs the Basic Lustre baseline.
func BenchmarkFig8ZKServers(b *testing.B) {
	p := model.DefaultParams()
	for _, op := range model.MdtestOps {
		b.Run(fmt.Sprintf("%s/BasicLustre", op), func(b *testing.B) {
			runModel(b, func(eng *sim.Engine, clients int) model.System {
				return model.NewBasicLustre(eng, p, clients)
			}, op, 256, 100)
		})
		for _, servers := range []int{1, 4, 8} {
			servers := servers
			b.Run(fmt.Sprintf("%s/zk=%d", op, servers), func(b *testing.B) {
				runModel(b, func(eng *sim.Engine, clients int) model.System {
					return model.NewDUFS(eng, p, model.DUFSConfig{
						ZKServers: servers, Backends: 2, Kind: model.DUFSOverLustre, Clients: clients,
					})
				}, op, 256, 100)
			})
		}
	}
}

// BenchmarkFig9Backends regenerates Fig 9a-c: file operations with 2
// vs 4 back-end storages at 256 processes.
func BenchmarkFig9Backends(b *testing.B) {
	p := model.DefaultParams()
	for _, op := range []model.Op{model.OpFileCreate, model.OpFileRemove, model.OpFileStat} {
		for _, backends := range []int{2, 4} {
			backends := backends
			b.Run(fmt.Sprintf("%s/backends=%d", op, backends), func(b *testing.B) {
				runModel(b, func(eng *sim.Engine, clients int) model.System {
					return model.NewDUFS(eng, p, model.DUFSConfig{
						ZKServers: 8, Backends: backends, Kind: model.DUFSOverLustre, Clients: clients,
					})
				}, op, 256, 100)
			})
		}
	}
}

// BenchmarkFig10Comparison regenerates Fig 10a-f: DUFS vs Basic Lustre
// vs Basic PVFS for all six operations at 256 processes (the paper's
// headline column).
func BenchmarkFig10Comparison(b *testing.B) {
	p := model.DefaultParams()
	for _, op := range model.MdtestOps {
		ops := 100
		if op == model.OpDirCreate || op == model.OpDirRemove {
			ops = 20 // PVFS dir mutations are ~250/s; keep runs short
		}
		b.Run(fmt.Sprintf("%s/DUFS-Lustre", op), func(b *testing.B) {
			runModel(b, func(eng *sim.Engine, clients int) model.System {
				return model.NewDUFS(eng, p, model.DUFSConfig{
					ZKServers: 8, Backends: 2, Kind: model.DUFSOverLustre, Clients: clients,
				})
			}, op, 256, 100)
		})
		b.Run(fmt.Sprintf("%s/DUFS-PVFS", op), func(b *testing.B) {
			runModel(b, func(eng *sim.Engine, clients int) model.System {
				return model.NewDUFS(eng, p, model.DUFSConfig{
					ZKServers: 8, Backends: 2, Kind: model.DUFSOverPVFS, Clients: clients,
				})
			}, op, 256, ops)
		})
		b.Run(fmt.Sprintf("%s/BasicLustre", op), func(b *testing.B) {
			runModel(b, func(eng *sim.Engine, clients int) model.System {
				return model.NewBasicLustre(eng, p, clients)
			}, op, 256, 100)
		})
		b.Run(fmt.Sprintf("%s/BasicPVFS", op), func(b *testing.B) {
			runModel(b, func(eng *sim.Engine, clients int) model.System {
				return model.NewBasicPVFS(eng, p)
			}, op, 256, ops)
		})
	}
}

// BenchmarkFig11Memory regenerates Fig 11: znode memory per directory
// created (the paper: ≈417 MB per million).
func BenchmarkFig11Memory(b *testing.B) {
	var mbPerMillion float64
	for i := 0; i < b.N; i++ {
		points := memacct.MeasureZnodeTree([]int64{50000, 100000})
		mbPerMillion = memacct.MBPerMillion(memacct.BytesPerZnode(points))
	}
	b.ReportMetric(mbPerMillion, "MB/1e6-dirs")
}

// --- Real-stack micro-benchmarks --------------------------------------

func startBenchCluster(b *testing.B, kind cluster.BackendKind, coordServers, backends int) *cluster.Cluster {
	b.Helper()
	c, err := cluster.Start(cluster.Config{
		Name:         fmt.Sprintf("bench-%s-%d-%d-%d", kind, coordServers, backends, rand.Int()),
		CoordServers: coordServers,
		Backends:     backends,
		Kind:         kind,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	return c
}

// BenchmarkRealStackDUFSCreate measures real file creation through
// the full stack: FUSE-equivalent dispatch, replicated znode create,
// MD5 placement, Lustre-like back-end create.
func BenchmarkRealStackDUFSCreate(b *testing.B) {
	c := startBenchCluster(b, cluster.Lustre, 3, 2)
	cl, err := c.NewClient(0)
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.FS.Mkdir("/bench", 0o755); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := cl.FS.Create(fmt.Sprintf("/bench/f%d", i), 0o644)
		if err != nil {
			b.Fatal(err)
		}
		h.Close()
	}
}

// BenchmarkRealStackDUFSStat measures directory stat, which never
// touches the back-end (paper §IV-A).
func BenchmarkRealStackDUFSStat(b *testing.B) {
	c := startBenchCluster(b, cluster.Lustre, 3, 2)
	cl, err := c.NewClient(0)
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.FS.Mkdir("/bench", 0o755); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.FS.Stat("/bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealStackMdtest runs a small full mdtest cycle on the real
// stack, reporting per-phase throughput once.
func BenchmarkRealStackMdtest(b *testing.B) {
	c := startBenchCluster(b, cluster.MemFS, 3, 2)
	const procs = 4
	mounts := make([]vfs.FileSystem, procs)
	for p := 0; p < procs; p++ {
		cl, err := c.NewClient(p)
		if err != nil {
			b.Fatal(err)
		}
		mounts[p] = cl.FS
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mdtest.Run(mdtest.Config{
			Mounts:          mounts,
			Processes:       procs,
			ItemsPerProcess: 20,
			Fanout:          10,
			Depth:           2,
			Root:            fmt.Sprintf("/mdt%d", i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res[mdtest.FileCreate].Throughput(), "create-ops/s")
			b.ReportMetric(res[mdtest.FileStat].Throughput(), "stat-ops/s")
		}
	}
}

// BenchmarkRealStackCoordWriteQuorum quantifies the quorum write cost
// as the real ensemble grows — the Fig 7a effect on the real stack.
func BenchmarkRealStackCoordWriteQuorum(b *testing.B) {
	for _, servers := range []int{1, 3, 5} {
		servers := servers
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			c := startBenchCluster(b, cluster.MemFS, servers, 1)
			cl, err := c.NewClient(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.FS.Mkdir(fmt.Sprintf("/w%d", i), 0o755); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardScaling sweeps the number of coordination shards over
// a mixed create/get metadata workload and reports aggregate
// throughput. One ensemble serializes every write through a single
// ZAB leader's replication round (Fig 7a); partitioning the namespace
// across independent ensembles multiplies the write pipelines, so
// aggregate vops/s climbs near-linearly from 1 to 4 shards
// (DESIGN.md §7.5).
//
// The transport.Latency wrapper stands in for the interconnect: on
// real hardware a quorum write is bound by network RTT and log flush,
// not CPU, and that per-ensemble serialization is exactly what
// sharding relieves. Without it the in-process write path is a few
// microseconds of CPU and any shard count just shares one core.
func BenchmarkShardScaling(b *testing.B) {
	const (
		workers      = 24
		opsPerWorker = 40
		createFrac   = 7 // out of 10 ops; the rest are gets
		netRTT       = 500 * time.Microsecond
	)
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := cluster.Start(cluster.Config{
				Name: fmt.Sprintf("bench-shard-%d-%d", shards, rand.Int()),
				Net: &transport.Latency{
					Inner: transport.NewInProc(),
					Delay: func() time.Duration { return netRTT },
				},
				CoordServers: 3,
				CoordShards:  shards,
				Backends:     1,
				Kind:         cluster.MemFS,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Stop)
			sessions := make([]coord.Client, workers)
			for w := 0; w < workers; w++ {
				cl, err := c.NewClient(w)
				if err != nil {
					b.Fatal(err)
				}
				sessions[w] = cl.Session
			}
			if _, err := sessions[0].Create("/bench", nil, znode.ModePersistent); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						sess := sessions[w]
						// Per-worker directories spread across shards:
						// each directory's children colocate, distinct
						// directories hash to distinct ensembles.
						dir := fmt.Sprintf("/bench/i%d-w%d", i, w)
						if _, err := sess.Create(dir, nil, znode.ModePersistent); err != nil {
							errs[w] = err
							return
						}
						last := dir
						for j := 0; j < opsPerWorker; j++ {
							if j%10 < createFrac {
								p := fmt.Sprintf("%s/f%d", dir, j)
								if _, err := sess.Create(p, nil, znode.ModePersistent); err != nil {
									errs[w] = err
									return
								}
								last = p
							} else if _, _, err := sess.Get(last); err != nil {
								errs[w] = err
								return
							}
						}
					}(w)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			total := float64(b.N) * workers * (opsPerWorker + 1)
			b.ReportMetric(total/b.Elapsed().Seconds(), "vops/s")
		})
	}
}

// BenchmarkObserverReadScaling measures read throughput as non-voting
// observers join a fixed 3-voter ensemble (DESIGN.md §13). Under
// injected network latency each replica is connection-capacity bound,
// so the client population scales with the replica count
// (workersPerReplica × (voters + observers), each worker one session
// homed on the w-th replica of the whole list — the paper's clients,
// each attached to one server): adding observers should grow read
// throughput near-linearly — the paper's Fig 7d read curve extended
// past the voting ensemble — because observers never touch quorum
// math. observers=0 is the baseline: the same sessions spread across
// voters only.
func BenchmarkObserverReadScaling(b *testing.B) {
	const (
		workersPerReplica = 6
		voters            = 3
		opsPerWorker      = 30
		paths             = 64
		netRTT            = 500 * time.Microsecond
	)
	for _, observers := range []int{0, 1, 2, 4} {
		observers := observers
		b.Run(fmt.Sprintf("observers=%d", observers), func(b *testing.B) {
			c, err := cluster.Start(cluster.Config{
				Name: fmt.Sprintf("bench-obs-%d-%d", observers, rand.Int()),
				Net: &transport.Latency{
					Inner: transport.NewInProc(),
					Delay: func() time.Duration { return netRTT },
				},
				CoordServers:   voters,
				CoordObservers: observers,
				Backends:       1,
				Kind:           cluster.MemFS,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Stop)
			seed, err := c.ConnectCoord("", 0)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { seed.Close() })
			if _, err := seed.Create("/bench", nil, znode.ModePersistent); err != nil {
				b.Fatal(err)
			}
			for p := 0; p < paths; p++ {
				if _, err := seed.Create(fmt.Sprintf("/bench/f%02d", p), []byte("obs-bench"), znode.ModePersistent); err != nil {
					b.Fatal(err)
				}
			}
			workers := workersPerReplica * (voters + observers)
			sessions := make([]coord.Client, workers)
			for w := 0; w < workers; w++ {
				s, err := c.ConnectCoord("any", w)
				if err != nil {
					b.Fatal(err)
				}
				sessions[w] = s
				b.Cleanup(func() { s.Close() })
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for j := 0; j < opsPerWorker; j++ {
							p := fmt.Sprintf("/bench/f%02d", (w*opsPerWorker+j)%paths)
							if _, _, err := sessions[w].Get(p); err != nil {
								errs[w] = err
								return
							}
						}
					}(w)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			total := float64(b.N) * float64(workers) * opsPerWorker
			b.ReportMetric(total/b.Elapsed().Seconds(), "vops/s")
		})
	}
}

// startSaturatedEnsemble boots the ensemble of a benchmark whose
// sessions saturate every core. Its heartbeat/election pair is 50 ms /
// 1 s: with the 5 ms / 50 ms pair the unit tests use, a scheduler stall
// under 16 busy sessions on two cores outlasts the election timeout and
// the ensemble deposes its own leader mid-measurement. MaxLogEntries is
// 2^20 (as in bench/): at the default 8192 every member serializes its
// whole tree every ~8k frames, and a long -benchtime would measure the
// fuzzy snapshotter instead of the write pipeline.
func startSaturatedEnsemble(b *testing.B, cfg coord.EnsembleConfig) *coord.Ensemble {
	b.Helper()
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.ElectionTimeout = time.Second
	cfg.MaxLogEntries = 1 << 20
	ens, err := coord.StartEnsemble(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ens.Stop)
	return ens
}

// guardEpoch records the ensemble's epoch before a timed section and
// returns the check to run after it: a moved epoch means an election
// happened inside the measurement, and the number must not be
// published.
func guardEpoch(b *testing.B, sess *coord.Session) (check func()) {
	b.Helper()
	epoch := func() uint64 {
		st, err := sess.Status()
		if err != nil {
			b.Fatal(err)
		}
		return st.Epoch
	}
	before := epoch()
	return func() {
		b.Helper()
		if after := epoch(); after != before {
			b.Fatalf("leader election during the timed section (epoch %d -> %d); result discarded", before, after)
		}
	}
}

// benchLeaderWrites is the timed body the write-pipeline benchmarks
// share: one leader-pinned session per entry of dirs (so the leader
// write pipeline itself is measured, not follower-forwarding hops),
// each creating opsPerClient znodes under its directory per b.N
// iteration, all sessions concurrently. It reports writes/s.
func benchLeaderWrites(b *testing.B, ens *coord.Ensemble, dirs []string, opsPerClient int, payload []byte) {
	b.Helper()
	leaderIdx := 0
	for i, s := range ens.Servers {
		if s.IsLeader() {
			leaderIdx = i
		}
	}
	sessions := make([]*coord.Session, len(dirs))
	paths := make([][]string, len(dirs))
	made := make(map[string]bool)
	for c, dir := range dirs {
		sess, err := ens.Connect(leaderIdx)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sess.Close() })
		sessions[c] = sess
		if !made[dir] {
			if _, err := sess.Create(dir, nil, znode.ModePersistent); err != nil {
				b.Fatal(err)
			}
			made[dir] = true
		}
		// Pre-format every path so the timed section measures the
		// write pipeline, not fmt.Sprintf.
		paths[c] = make([]string, b.N*opsPerClient)
		for i := range paths[c] {
			paths[c][i] = fmt.Sprintf("%s/c%d-%d", dir, c, i)
		}
	}
	check := guardEpoch(b, sessions[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, len(dirs))
		for c := range dirs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, p := range paths[c][i*opsPerClient : (i+1)*opsPerClient] {
					if _, err := sessions[c].Create(p, payload, znode.ModePersistent); err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	check()
	total := float64(b.N) * float64(len(dirs)) * float64(opsPerClient)
	b.ReportMetric(total/b.Elapsed().Seconds(), "writes/s")
}

// sameDir returns n copies of dir: n sessions writing into one
// directory.
func sameDir(dir string, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = dir
	}
	return dirs
}

// BenchmarkDurableGroupCommit measures what durability costs the
// group-commit pipeline (DESIGN.md §11): the same 3-server ensemble
// and concurrent-session workload as internal/coord's
// BenchmarkGroupCommit, on
// zab.MemStorage versus on the storage engine, where every
// acknowledgement waits on an fsync. Because the fsync rides whole
// group-commit frames — a follower syncs once per propose window, the
// leader's sync loop covers every frame appended since the previous
// fsync — one sync amortizes across the batch, and durable throughput
// at 16 sessions must stay within a small factor (the acceptance bar
// is ≥25%) of the in-memory path rather than collapsing to one fsync
// per write.
func BenchmarkDurableGroupCommit(b *testing.B) {
	const (
		netRTT       = 500 * time.Microsecond
		opsPerClient = 25
	)
	for _, mode := range []string{"memory", "durable"} {
		for _, clients := range []int{1, 16} {
			mode, clients := mode, clients
			b.Run(fmt.Sprintf("%s/clients=%d", mode, clients), func(b *testing.B) {
				cfg := coord.EnsembleConfig{
					Servers: 3,
					Net: &transport.Latency{
						Inner: transport.NewInProc(),
						Delay: func() time.Duration { return netRTT },
					},
					AddrPrefix: fmt.Sprintf("dgc-%s-%d-%d", mode, clients, rand.Int()),
				}
				if mode == "durable" {
					cfg.DataDir = b.TempDir()
				}
				ens := startSaturatedEnsemble(b, cfg)
				benchLeaderWrites(b, ens, sameDir("/dgc", clients), opsPerClient, nil)
			})
		}
	}
}

// BenchmarkApplyPipeline measures the commit→apply decoupling
// (DESIGN.md §16) with the network taken out of the picture: a
// 3-server ensemble over the raw in-process transport (no injected
// RTT), 16 leader-pinned sessions creating 256-byte nodes, each in its
// own top-level subtree. With no round trip to hide behind, throughput
// is set by how well the proposer, the senders and the apply loop
// overlap off the node mutex — what BenchmarkGroupCommit shows under
// RTT, this shows CPU-bound.
func BenchmarkApplyPipeline(b *testing.B) {
	const (
		clients      = 16
		opsPerClient = 25
	)
	b.Run(fmt.Sprintf("nonet/clients=%d", clients), func(b *testing.B) {
		ens := startSaturatedEnsemble(b, coord.EnsembleConfig{
			Servers:    3,
			Net:        transport.NewInProc(),
			AddrPrefix: fmt.Sprintf("apipe-%d", rand.Int()),
		})
		dirs := make([]string, clients)
		for c := range dirs {
			dirs[c] = fmt.Sprintf("/ap%d", c)
		}
		benchLeaderWrites(b, ens, dirs, opsPerClient, make([]byte, 256))
	})
}

// BenchmarkAsyncPipeline measures the client-side half of the write
// pipeline (DESIGN.md §10): ONE goroutine issuing znode creates under
// injected network latency, synchronously (one blocking round trip per
// create — the paper's client model) versus through Begin/Pipeline
// (dozens of tagged requests in flight over the same session). The
// server side is identical group-commit ZAB in both modes; the only
// variable is whether the client waits out each round trip before
// submitting the next. The acceptance bar is ≥4x; with a 48-deep
// pipeline over a 500µs RTT the expected gap is an order of magnitude.
func BenchmarkAsyncPipeline(b *testing.B) {
	const (
		netRTT   = 500 * time.Microsecond
		pipeline = 48 // outstanding futures before a Wait
	)
	setup := func(b *testing.B, tag string) *coord.Session {
		ens := startSaturatedEnsemble(b, coord.EnsembleConfig{
			Servers: 1,
			Net: &transport.Latency{
				Inner: transport.NewInProc(),
				Delay: func() time.Duration { return netRTT },
			},
			AddrPrefix: fmt.Sprintf("apipe-%s-%d", tag, rand.Int()),
		})
		sess, err := ens.Connect(-1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sess.Close() })
		if _, err := sess.Create("/ap", nil, znode.ModePersistent); err != nil {
			b.Fatal(err)
		}
		return sess
	}
	// Paths are formatted outside the timed loops so allocs/op counts
	// the write path, not fmt.Sprintf.
	prePaths := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	b.Run("sync", func(b *testing.B) {
		sess := setup(b, "sync")
		paths := prePaths("/ap/s", b.N)
		check := guardEpoch(b, sess)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Create(paths[i], nil, znode.ModePersistent); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		check()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/s")
	})
	b.Run("pipelined", func(b *testing.B) {
		sess := setup(b, "pipe")
		pl := coord.NewPipeline(context.Background(), sess)
		paths := prePaths("/ap/p", b.N)
		check := guardEpoch(b, sess)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl.Create(paths[i], nil, znode.ModePersistent)
			if pl.Outstanding() >= pipeline {
				if err := pl.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := pl.Wait(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		check()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/s")
	})
}

// --- Batched-API round-trip benchmarks (DESIGN.md §8) ------------------

// rpcCountingClient is a Do decorator that counts the operations that
// cross the network, so the round-trip benchmarks can report rpcs/op
// alongside wall-clock time. Every typed and asynchronous form reaches
// it through coord.Wrap, one Do each. Atomic is pure client-side math
// and stays uncounted.
type rpcCountingClient struct {
	coord.Doer
	calls atomic.Int64
}

func (c *rpcCountingClient) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	c.calls.Add(1)
	return c.Doer.Do(ctx, op)
}

// startLatencyDUFS boots a single-server ensemble behind an injected
// per-call network delay — the round trips ARE the cost, as on real
// hardware — and mounts a DUFS over a counting session.
func startLatencyDUFS(b *testing.B, name string, rtt time.Duration) (*core.DUFS, *rpcCountingClient) {
	b.Helper()
	net := &transport.Latency{
		Inner: transport.NewInProc(),
		Delay: func() time.Duration { return rtt },
	}
	ens, err := coord.StartEnsemble(coord.EnsembleConfig{
		Servers:           1,
		Net:               net,
		AddrPrefix:        name,
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ens.Stop)
	sess, err := ens.Connect(-1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sess.Close() })
	counter := &rpcCountingClient{Doer: sess}
	fs, err := core.New(core.Config{Session: coord.Wrap(counter), Backends: []vfs.FileSystem{memfs.New()}})
	if err != nil {
		b.Fatal(err)
	}
	return fs, counter
}

// BenchmarkReaddirFanout measures listing a K-entry directory under
// injected network latency: the batched ChildrenData readdir (1 RPC)
// against the per-op baseline this repository shipped before —
// Get(dir) + Children(dir) + Get(child) per entry, K+2 RPCs. The
// rpcs/readdir metric is exact; ns/op shows the same ratio because
// with latency injected the round trips dominate.
func BenchmarkReaddirFanout(b *testing.B) {
	const netRTT = 200 * time.Microsecond
	for _, entries := range []int{8, 32} {
		entries := entries
		setup := func(b *testing.B, tag string) (*core.DUFS, *rpcCountingClient) {
			fs, counter := startLatencyDUFS(b, fmt.Sprintf("readdirfan-%s-%d-%d", tag, entries, rand.Int()), netRTT)
			if err := fs.Mkdir("/fan", 0o755); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < entries; i++ {
				h, err := fs.Create(fmt.Sprintf("/fan/f%d", i), 0o644)
				if err != nil {
					b.Fatal(err)
				}
				h.Close()
			}
			counter.calls.Store(0)
			return fs, counter
		}
		b.Run(fmt.Sprintf("entries=%d/batched", entries), func(b *testing.B) {
			fs, counter := setup(b, "batched")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				es, err := fs.Readdir("/fan")
				if err != nil || len(es) != entries {
					b.Fatalf("readdir = %d entries, %v", len(es), err)
				}
			}
			b.ReportMetric(float64(counter.calls.Load())/float64(b.N), "rpcs/readdir")
		})
		b.Run(fmt.Sprintf("entries=%d/per-op", entries), func(b *testing.B) {
			_, counter := setup(b, "perop")
			sess := coord.Wrap(counter)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The pre-batching Readdir: type-check the directory,
				// list names, then fetch each child to learn its kind.
				if _, _, err := sess.Get("/dufs/fan"); err != nil {
					b.Fatal(err)
				}
				names, err := sess.Children("/dufs/fan")
				if err != nil || len(names) != entries {
					b.Fatalf("children = %d, %v", len(names), err)
				}
				for _, name := range names {
					if _, _, err := sess.Get("/dufs/fan/" + name); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(counter.calls.Load())/float64(b.N), "rpcs/readdir")
		})
	}
}

// BenchmarkMultiRename measures a same-directory file rename under
// injected network latency: the atomic Multi path (get + dest probe +
// one transaction = 3 RPCs, nothing for a crash to interrupt) against
// the durable-intent baseline (6 RPCs: two lookups, intent create,
// dest create, source delete, intent delete).
func BenchmarkMultiRename(b *testing.B) {
	const netRTT = 200 * time.Microsecond
	b.Run("multi", func(b *testing.B) {
		fs, counter := startLatencyDUFS(b, fmt.Sprintf("multirename-%d", rand.Int()), netRTT)
		if err := fs.Mkdir("/r", 0o755); err != nil {
			b.Fatal(err)
		}
		h, err := fs.Create("/r/a", 0o644)
		if err != nil {
			b.Fatal(err)
		}
		h.Close()
		counter.calls.Store(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := "/r/a", "/r/b"
			if i%2 == 1 {
				src, dst = dst, src
			}
			if err := fs.Rename(src, dst); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(counter.calls.Load())/float64(b.N), "rpcs/rename")
	})
	b.Run("per-op", func(b *testing.B) {
		fs, counter := startLatencyDUFS(b, fmt.Sprintf("oprename-%d", rand.Int()), netRTT)
		if err := fs.Mkdir("/r", 0o755); err != nil {
			b.Fatal(err)
		}
		h, err := fs.Create("/r/a", 0o644)
		if err != nil {
			b.Fatal(err)
		}
		h.Close()
		sess := coord.Wrap(counter)
		counter.calls.Store(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := "/dufs/r/a", "/dufs/r/b"
			if i%2 == 1 {
				src, dst = dst, src
			}
			// The pre-Multi protocol: lookup src, probe dst, then the
			// intent-bracketed create+delete pair.
			data, _, err := sess.Get(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sess.Get(dst); err == nil {
				b.Fatal("dst should not exist")
			}
			intent, err := sess.Create("/dufs.renames/op-", data, znode.ModeSequential)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Create(dst, data, znode.ModePersistent); err != nil {
				b.Fatal(err)
			}
			if err := sess.Delete(src, -1); err != nil {
				b.Fatal(err)
			}
			if err := sess.Delete(intent, -1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(counter.calls.Load())/float64(b.N), "rpcs/rename")
	})
}

// --- Ablations (DESIGN.md §6) ------------------------------------------

// BenchmarkAblationMappingFunction compares the paper's MD5 mod N
// against the consistent-hash ring on pure lookup cost.
func BenchmarkAblationMappingFunction(b *testing.B) {
	fids := make([]fid.FID, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range fids {
		fids[i] = fid.FID{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	b.Run("md5-mod-n", func(b *testing.B) {
		m, _ := placement.NewModN(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = m.Locate(fids[i%len(fids)])
		}
	})
	b.Run("consistent-hash", func(b *testing.B) {
		r, _ := placement.NewRing([]int{0, 1, 2, 3, 4, 5, 6, 7}, placement.DefaultReplicas)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = r.Locate(fids[i%len(fids)])
		}
	})
}

// BenchmarkConsistentHashRelocation measures the §VII future-work
// claim: relocation fraction when adding one back-end.
func BenchmarkConsistentHashRelocation(b *testing.B) {
	fids := make([]fid.FID, 20000)
	rng := rand.New(rand.NewSource(2))
	for i := range fids {
		fids[i] = fid.FID{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	var modFrac, ringFrac float64
	for i := 0; i < b.N; i++ {
		m4, _ := placement.NewModN(4)
		m5, _ := placement.NewModN(5)
		r4, _ := placement.NewRing([]int{0, 1, 2, 3}, placement.DefaultReplicas)
		r5, _ := placement.NewRing([]int{0, 1, 2, 3, 4}, placement.DefaultReplicas)
		modFrac = float64(placement.RelocationReport(m4, m5, fids)) / float64(len(fids))
		ringFrac = float64(placement.RelocationReport(r4, r5, fids)) / float64(len(fids))
	}
	b.ReportMetric(modFrac*100, "modN-%moved")
	b.ReportMetric(ringFrac*100, "ring-%moved")
}

// BenchmarkAblationFIDPathFanout compares creation under the paper's
// FID-derived multi-level hierarchy (Fig 4) against a single flat
// directory — the congestion the hierarchy exists to avoid (§IV-G).
func BenchmarkAblationFIDPathFanout(b *testing.B) {
	b.Run("fid-hierarchy", func(b *testing.B) {
		fs := newBenchMemfs(b)
		g, _ := fid.NewGenerator(7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := g.Next()
			p := "/" + f.PhysicalPath()
			mkAll(b, fs, f)
			h, err := fs.Create(p, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			h.Close()
		}
	})
	b.Run("flat-directory", func(b *testing.B) {
		fs := newBenchMemfs(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := fs.Create(fmt.Sprintf("/f%d", i), 0o644)
			if err != nil {
				b.Fatal(err)
			}
			h.Close()
		}
	})
}

// BenchmarkAblationClientCache compares directory stat on the plain
// DUFS client (every stat is a coordination-service round trip, as in
// the paper's prototype) against the watch-coherent client cache this
// repository adds.
func BenchmarkAblationClientCache(b *testing.B) {
	run := func(b *testing.B, cached bool) {
		c := startBenchCluster(b, cluster.MemFS, 3, 2)
		cl, err := c.NewClient(0)
		if err != nil {
			b.Fatal(err)
		}
		var fs vfs.FileSystem = cl.FS
		if cached {
			cc := core.NewCached(cl.FS, nil)
			defer cc.Close()
			fs = cc
		}
		if err := fs.Mkdir("/hot", 0o755); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fs.Stat("/hot"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, false) })
	b.Run("cached", func(b *testing.B) { run(b, true) })
}

func newBenchMemfs(b *testing.B) vfs.FileSystem {
	b.Helper()
	return memfs.New()
}

// mkAll creates the FID's directory chain, ignoring "exists".
func mkAll(b *testing.B, fs vfs.FileSystem, f fid.FID) {
	b.Helper()
	cur := ""
	for _, seg := range f.PhysicalDirs() {
		cur += "/" + seg
		if err := fs.Mkdir(cur, 0o755); err != nil && err != vfs.ErrExist {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationZnodeTreeOps isolates the replicated state
// machine's data structure costs (no network, no consensus).
func BenchmarkAblationZnodeTreeOps(b *testing.B) {
	b.Run("create", func(b *testing.B) {
		tr := znode.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.Create(fmt.Sprintf("/n%d", i), nil, znode.ModePersistent, 0, uint64(i+1), int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		tr := znode.New()
		for i := 0; i < 1024; i++ {
			if _, err := tr.Create(fmt.Sprintf("/n%d", i), []byte("x"), znode.ModePersistent, 0, uint64(i+1), int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := tr.Get(fmt.Sprintf("/n%d", i%1024)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadPathContention measures read throughput of the znode
// tree under a live writer: N reader goroutines probe disjoint subtrees
// (Exists-dominated, with periodic Get and Children) while one writer
// tight-loops Sets over its own subtree. Under a whole-tree RWMutex
// every Set parks every concurrent reader; with striped locking the
// writer's stripe is disjoint from the readers', so reads proceed
// without ever blocking. Paths and values are precomputed so the timed
// loops measure locking, not formatting or allocation.
func BenchmarkReadPathContention(b *testing.B) {
	const (
		subtrees = 16
		children = 32
	)
	for _, readers := range []int{1, 4, 16} {
		readers := readers
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			tr := znode.New()
			zxid := uint64(1)
			mk := func(path string, data []byte) {
				if _, err := tr.Create(path, data, znode.ModePersistent, 0, zxid, 1); err != nil {
					b.Fatal(err)
				}
				zxid++
			}
			mk("/w", nil)
			wpaths := make([]string, 64)
			for i := range wpaths {
				wpaths[i] = fmt.Sprintf("/w/k%d", i)
				mk(wpaths[i], []byte("v"))
			}
			roots := make([]string, subtrees)
			paths := make([][]string, subtrees)
			for s := 0; s < subtrees; s++ {
				roots[s] = fmt.Sprintf("/r%d", s)
				mk(roots[s], nil)
				paths[s] = make([]string, children)
				for c := 0; c < children; c++ {
					paths[s][c] = fmt.Sprintf("/r%d/c%d", s, c)
					mk(paths[s][c], []byte("payload"))
				}
			}
			vals := [2][]byte{[]byte("ping"), []byte("pong")}

			stop := make(chan struct{})
			var writerDone sync.WaitGroup
			writerDone.Add(1)
			go func() {
				defer writerDone.Done()
				wz := zxid
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					wz++
					if _, err := tr.Set(wpaths[i&63], vals[i&1], -1, wz, 1); err != nil {
						return
					}
				}
			}()

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / readers
			if per == 0 {
				per = 1
			}
			total := int64(0)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					sub := paths[id%subtrees]
					root := roots[id%subtrees]
					ops := 0
					for i := 0; i < per; i++ {
						if _, ok := tr.Exists(sub[i%children]); !ok {
							b.Error("reader lost a static node")
							return
						}
						ops++
						if i%128 == 0 {
							if _, _, err := tr.Get(sub[i%children]); err != nil {
								b.Error(err)
								return
							}
							ops++
						}
						if i%1024 == 0 {
							if _, err := tr.Children(root); err != nil {
								b.Error(err)
								return
							}
							ops++
						}
					}
					atomic.AddInt64(&total, int64(ops))
				}(r)
			}
			wg.Wait()
			elapsed := b.Elapsed()
			b.StopTimer()
			close(stop)
			writerDone.Wait()
			if s := elapsed.Seconds(); s > 0 {
				b.ReportMetric(float64(atomic.LoadInt64(&total))/s, "reads/s")
			}
		})
	}
}

// BenchmarkMigrationUnderLoad measures what the live-migration
// subsystem (DESIGN.md §15) costs the ops that fly through it: a
// 2-shard cluster with a fixed writer population hammering a hot
// directory while the coordinator migrates that directory's hash range
// back and forth between the shards. Every write goes through the
// shard router, so fenced bounces retry in place and moved bounces
// chase the epoch bump — the benchmark fails if a single acked op
// errors. Reported metrics split client latency into steady-state vs
// mid-migration, alongside the mean write-unavailability window (the
// fence) per migration.
func BenchmarkMigrationUnderLoad(b *testing.B) {
	const workers = 8
	c, err := cluster.Start(cluster.Config{
		Name:         fmt.Sprintf("bench-mig-%d", rand.Int()),
		CoordServers: 3,
		CoordShards:  2,
		Backends:     1,
		Kind:         cluster.MemFS,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)

	clients := make([]coord.Client, workers)
	for w := range clients {
		cl, err := c.NewClient(w)
		if err != nil {
			b.Fatal(err)
		}
		clients[w] = cl.Session
	}
	if _, err := clients[0].Create("/hot", nil, znode.ModePersistent); err != nil {
		b.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if _, err := clients[w].Create(fmt.Sprintf("/hot/w%d", w), nil, znode.ModePersistent); err != nil {
			b.Fatal(err)
		}
	}

	direct := make([]*coord.Session, len(c.Ensembles))
	for s, ens := range c.Ensembles {
		sess, err := ens.Connect(-1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sess.Close() })
		direct[s] = sess
	}
	co, err := migrate.New(migrate.Config{Sessions: direct})
	if err != nil {
		b.Fatal(err)
	}
	rng := migrate.RangeForDir("/hot")
	ctx := context.Background()

	var (
		migrating      atomic.Bool
		mu             sync.Mutex
		steady, during []time.Duration
	)
	stop := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := clients[w]
			path := fmt.Sprintf("/hot/w%d", w)
			payload := []byte("payload")
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				_, err := sess.Set(path, payload, -1)
				d := time.Since(t0)
				if err != nil {
					errs[w] = err
					return
				}
				mu.Lock()
				if migrating.Load() {
					during = append(during, d)
				} else {
					steady = append(steady, d)
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // settle into steady state

	b.ResetTimer()
	var fenceTotal time.Duration
	for i := 0; i < b.N; i++ {
		owner, err := co.Owner(ctx, rng)
		if err != nil {
			b.Fatal(err)
		}
		migrating.Store(true)
		rep, err := co.Migrate(ctx, rng, 1-owner)
		migrating.Store(false)
		if err != nil {
			b.Fatalf("migration %d: %v", i, err)
		}
		fenceTotal += rep.FenceDuration
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			b.Fatalf("worker %d lost an op mid-migration: %v", w, err)
		}
	}

	p99 := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		sorted := append([]time.Duration(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return float64(sorted[len(sorted)*99/100].Microseconds())
	}
	b.ReportMetric(float64(fenceTotal.Microseconds())/float64(b.N), "fence_us/op")
	b.ReportMetric(p99(steady), "steady_p99_us")
	b.ReportMetric(p99(during), "migrating_p99_us")
}

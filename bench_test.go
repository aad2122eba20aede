// Package repro's go-benchmarks: one benchmark per table/figure of the
// paper's evaluation (§V), the real-stack sweeps bench/ cannot run yet,
// and the ablations of DESIGN.md §6 nothing else measures.
//
// The Fig benchmarks drive the calibrated discrete-event model and
// report virtual-time throughput ("vops/s") — these regenerate the
// paper's curves. The real-stack benchmarks sweep a deployment axis
// (ensemble size, shard count, observer count, a live migration) over
// the in-process transport; each goes once bench/ has that arm.
// Performance questions about the running system — throughput,
// latency, where an op's time goes — are answered by bench/
// (bench/README.md), exact costs per op by the tier-1 count tests.
//
//	go test -run xxx -bench . -benchtime 1x .
//	go test -run xxx -bench BenchmarkFig10Comparison -benchtime 1x .
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

	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/coord/migrate"
	"repro/internal/coord/znode"
	"repro/internal/fid"
	"repro/internal/memacct"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/transport"
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

// --- Real-stack sweeps bench/ has no arm for yet ----------------------

// BenchmarkRealStackCoordWriteQuorum quantifies the quorum write cost
// as the real ensemble grows — the Fig 7a effect on the real stack.
func BenchmarkRealStackCoordWriteQuorum(b *testing.B) {
	for _, servers := range []int{1, 3, 5} {
		servers := servers
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			c, err := cluster.Start(cluster.Config{
				Name:         fmt.Sprintf("bench-quorum-%d-%d", servers, rand.Int()),
				CoordServers: servers,
				Backends:     1,
				Kind:         cluster.MemFS,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Stop)
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
// across independent ensembles multiplies the write pipelines. Whether
// aggregate vops/s rises with the shard count on a given machine is
// what this measures, not what it assumes (DESIGN.md §7.5 prints a
// run).
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

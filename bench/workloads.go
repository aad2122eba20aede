package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/coord"
)

// workload is one row of the benchmark's workload table.
type workload struct {
	name string
	why  string
	// The part of the deployment the workload varies.
	shards int
	wan    bool
	noVFS  bool
	// sloP90ms, when set, is the latency limit an end-to-end run must
	// meet; coldRestart makes the traced run restart the ensembles from
	// their WAL afterwards and check the outputs again.
	sloP90ms    float64
	coldRestart bool
	// hostBound marks a closed loop over TCP loopback: it runs at the
	// speed of the host's loopback round trip, so its throughput and
	// latency are reported scaled to the reference host speed (calib.go).
	hostBound bool
	// populate builds the namespace the run starts from and records it
	// in the model.
	populate func(d *deployment, rc runConfig, m *model) error
	// run drives the load over the window. traced runs keep one op in
	// flight per mount.
	run func(d *deployment, rc runConfig, w window, traced bool) *recorder
}

var workloads = []*workload{
	{
		name:        "meta-write",
		why:         "mdtest create/remove phases: every op is a coordination write through ZAB quorum, WAL fsync and apply; closed loop, 2 blocking workers over TCP",
		shards:      1,
		coldRestart: true,
		hostBound:   true,
		populate:    populateMetaWrite,
		run: func(d *deployment, rc runConfig, w window, _ bool) *recorder {
			return runClosed(d, perWorker(func(k int) generator { return newMetaWriteGen(rc.seed, k) }), w)
		},
	},
	{
		name:      "meta-read",
		why:       "mdtest stat phases: reads served from the contacted server's tree, so zab, storage and apply are bypassed and client, wire, transport, dispatch and znode reads are the whole op",
		shards:    1,
		hostBound: true,
		populate:  populateMetaRead,
		run: func(d *deployment, rc runConfig, w window, _ bool) *recorder {
			return runClosed(d, perWorker(func(k int) generator { return newMetaReadGen(rc.seed, k, rc.readShape()) }), w)
		},
	},
	{
		name:     "mixed-open",
		why:      "independent users on a schedule: 2000 ops/s Poisson, writes beside reads on the same directories over 2 shards; shows a write-path change that stalls reads; the only workload through shard.Router",
		shards:   2,
		sloP90ms: 5,
		populate: populateMixed,
		run: func(d *deployment, rc runConfig, w window, traced bool) *recorder {
			return runOpen(d, newMixedGen(rc.seed, clientMounts), w, traced)
		},
	},
	{
		name:     "wan-pipeline",
		why:      "many clients on a real interconnect: 2 sessions x 16 futures in flight with 500us injected per call; throughput set by async window, txns per frame and group fsync, not one op's critical path",
		shards:   1,
		wan:      true,
		noVFS:    true,
		populate: populateWan,
		run: func(d *deployment, rc runConfig, w window, _ bool) *recorder {
			return runPipelined(d, perWorker(func(k int) generator { return newWanGen(rc.seed, k) }), w)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func perWorker(mk func(k int) generator) []generator {
	gens := make([]generator, clientMounts)
	for k := range gens {
		gens[k] = mk(k)
	}
	return gens
}

// runConfig is what one invocation fixes for all its runs.
type runConfig struct {
	seed      int64
	measured  time.Duration // the measured window of an end-to-end run
	warmup    time.Duration
	traceWarm time.Duration // warm-up of each window of a traced run
	calibrate time.Duration // length of each host-speed sample
	setups    int           // how many times an end-to-end run sets up (median reported)
	quick     bool          // smoke sizes: small populations
	walRoot   string
	outDir    string // trace files
}

func (rc runConfig) readShape() readShape {
	if rc.quick {
		return metaReadShapeQuick
	}
	return metaReadShape
}

// --- population --------------------------------------------------------

const populateWorkers = 8 // goroutines per mount while populating

// populateVFS creates dirs (parents first, one after the other) and
// then files, spread over every mount.
func populateVFS(d *deployment, m *model, dirs, files []string) error {
	for _, p := range dirs {
		if err := d.mounts[0].fs.Mkdir(p, 0o755); err != nil {
			return fmt.Errorf("populate mkdir %s: %w", p, err)
		}
		m.add(p, true)
	}
	lanes := len(d.mounts) * populateWorkers
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			fs := d.mounts[lane%len(d.mounts)].fs
			for i := lane; i < len(files); i += lanes {
				if errs[lane] = execVFS(fs, op{kind: opCreate, path: files[i], perm: 0o644}); errs[lane] != nil {
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("populate create: %w", err)
		}
	}
	for _, p := range files {
		m.add(p, false)
	}
	return nil
}

func populateMetaWrite(d *deployment, rc runConfig, m *model) error {
	root := rootName("mw", rc.seed)
	dirs := []string{root}
	for k := range d.mounts {
		dirs = append(dirs, fmt.Sprintf("%s/w%d", root, k))
	}
	return populateVFS(d, m, dirs, nil)
}

func populateMetaRead(d *deployment, rc runConfig, m *model) error {
	root, shape := rootName("mr", rc.seed), rc.readShape()
	dirs, files := []string{root}, []string(nil)
	for i := 0; i < shape.dirs; i++ {
		dirs = append(dirs, metaReadDir(root, i))
		for f := 0; f < shape.files; f++ {
			files = append(files, metaReadFile(root, i, f))
		}
	}
	return populateVFS(d, m, dirs, files)
}

func populateMixed(d *deployment, rc runConfig, m *model) error {
	root := rootName("mx", rc.seed)
	dirs, files := []string{root}, []string(nil)
	for i := 0; i < mixedDirs; i++ {
		dirs = append(dirs, mixedDir(root, i))
		for f := 0; f < mixedStatic; f++ {
			files = append(files, mixedStaticFile(root, i, f))
		}
		for f := 0; f < mixedDynamic; f++ {
			files = append(files, mixedDynFile(root, i, f))
		}
	}
	for t := 0; t < mixedTokens; t++ {
		files = append(files, mixedToken(root, t))
	}
	return populateVFS(d, m, dirs, files)
}

func populateWan(d *deployment, rc runConfig, m *model) error {
	root := rootName("wan", rc.seed)
	if _, err := d.mounts[0].sess.Create(root, nil, 0); err != nil {
		return fmt.Errorf("populate %s: %w", root, err)
	}
	m.add(root, true)
	for k, mt := range d.mounts {
		g := newWanGen(rc.seed, k)
		if _, err := mt.sess.Create(g.base, nil, 0); err != nil {
			return fmt.Errorf("populate %s: %w", g.base, err)
		}
		m.add(g.base, true)
		p := coord.NewPipeline(context.Background(), mt.sess)
		for _, node := range g.fifo {
			if p.Outstanding() >= 2*wanWindow {
				if err := p.WaitOne(); err != nil {
					return fmt.Errorf("populate %s: %w", g.base, err)
				}
			}
			p.Create(node, g.payload(), 0)
			m.add(node, false)
		}
		if err := p.Wait(); err != nil {
			return fmt.Errorf("populate %s: %w", g.base, err)
		}
	}
	return nil
}

// --- one pass: set up, load, check --------------------------------------

// pass is one deployment taken through set-up, a load window and the
// output check.
type pass struct {
	d           *deployment
	rec         *recorder
	cpu         [numSlices]time.Duration
	setup       time.Duration
	heapPerNode float64 // live heap growth per populated znode replica
	nodes       int64   // znodes on one replica of every shard, after the run
	elections   uint64
	lost        int
	problems    []string
	model       *model
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (d *deployment) znodes() int64 {
	var n int64
	for _, e := range d.ensembles {
		n += e.Servers[0].Tree().Count()
	}
	return n
}

// setUp boots the deployment and populates the namespace; the elapsed
// time is the workload's setup_s. With heap set it also measures the
// live heap the population cost.
func setUp(w *workload, rc runConfig, tr *tracer, heap bool) (*pass, error) {
	start := time.Now()
	d, err := deploy(deployConfig{shards: w.shards, wan: w.wan, noVFS: w.noVFS, walRoot: rc.walRoot, tr: tr, quick: rc.quick})
	if err != nil {
		return nil, fmt.Errorf("%s: deploy: %w", w.name, err)
	}
	p := &pass{d: d, model: newModel()}
	var heap0 uint64
	var nodes0 int64
	if heap {
		heap0, nodes0 = liveHeap(), d.znodes()
	}
	if err := w.populate(d, rc, p.model); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// The population was written through whichever mount was at hand;
	// the barrier makes all of it visible to every mount.
	for _, m := range d.mounts {
		if err := m.sess.Sync(); err != nil {
			d.stop()
			return nil, fmt.Errorf("%s: sync after populate: %w", w.name, err)
		}
	}
	p.setup = time.Since(start)
	if heap {
		// Below this many nodes the difference is lost in the noise of
		// everything else on the heap.
		if grown := d.znodes() - nodes0; grown >= 1000 {
			if h := liveHeap(); h > heap0 {
				p.heapPerNode = float64(h-heap0) / float64(grown*serversPerEnsemble)
			}
		}
	}
	return p, nil
}

// load runs the workload over a fresh window and then checks the
// outputs. atStart and atEnd, when set, are called as the warm-up ends
// and as soon as the load has stopped.
func (p *pass) load(w *workload, rc runConfig, warmup, measured time.Duration, traced bool, atStart, atEnd func()) error {
	epoch0, err := p.d.epochs()
	if err != nil {
		return err
	}
	win := newWindow(warmup, measured)
	var cpuErr error
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		p.cpu, cpuErr = sampleCPU(win)
	}()
	if atStart != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			time.Sleep(time.Until(win.t0))
			atStart()
		}()
	}
	p.rec = w.run(p.d, rc, win, traced)
	side.Wait()
	if atEnd != nil {
		atEnd()
	}
	if cpuErr != nil {
		return cpuErr
	}
	epoch1, err := p.d.epochs()
	if err != nil {
		return err
	}
	p.elections = epoch1 - epoch0
	p.nodes = p.d.znodes()
	for _, mu := range p.rec.muts {
		p.model.apply(mu)
	}
	return p.check(rc)
}

// check runs the output check: a Sync barrier on the checking client,
// then the model comparison through the mount the writers did not use
// last (or a bare session below vfs).
func (p *pass) check(rc runConfig) error {
	checker := p.d.mounts[len(p.d.mounts)-1]
	if err := checker.sess.Sync(); err != nil {
		return fmt.Errorf("sync barrier: %w", err)
	}
	lk := coordLookup(checker.sess)
	if checker.fs != nil {
		lk = vfsLookup(checker.fs)
	}
	p.lost, p.problems = p.model.check(lk, rc.seed)
	return nil
}

// cpuPerKop is the process's CPU time over the measured window per
// thousand successful ops, in milliseconds.
func cpuPerKop(p *pass) float64 {
	var cpu time.Duration
	for _, c := range p.cpu {
		cpu += c
	}
	attempted, failed := p.rec.totals()
	return ratio(float64(cpu)/1e6, float64(attempted-failed)/1000)
}

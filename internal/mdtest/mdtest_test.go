package mdtest

import (
	"path"
	"strings"
	"testing"
	"time"

	"repro/internal/backend/memfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vfs"
)

func TestRunAllPhasesOnMemFS(t *testing.T) {
	fs := memfs.New()
	res, err := Run(Config{
		Mounts:          []vfs.FileSystem{fs},
		Processes:       4,
		ItemsPerProcess: 25,
		Fanout:          10,
		Depth:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("phases = %d", len(res))
	}
	for _, ph := range Phases {
		sum, ok := res[ph]
		if !ok {
			t.Fatalf("phase %s missing", ph)
		}
		if sum.Ops != 100 {
			t.Fatalf("phase %s ops = %d, want 100", ph, sum.Ops)
		}
		if sum.Throughput() <= 0 {
			t.Fatalf("phase %s throughput = %f", ph, sum.Throughput())
		}
	}
	// After a full cycle nothing the phases created should survive.
	if files := countFiles(t, fs, "/"); files != 0 {
		t.Fatalf("files left behind: %d", files)
	}
}

// TestConcurrentClientsPerProcess runs the harness with several
// concurrent client goroutines per process: every item must still be
// executed exactly once (full op counts) and a full cycle must leave
// the filesystem empty, whichever worker handled which item.
func TestConcurrentClientsPerProcess(t *testing.T) {
	fs := memfs.New()
	res, err := Run(Config{
		Mounts:          []vfs.FileSystem{fs},
		Processes:       3,
		Clients:         4,
		ItemsPerProcess: 26, // deliberately not divisible by Clients
		Fanout:          10,
		Depth:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range Phases {
		if res[ph].Ops != 3*26 {
			t.Fatalf("phase %s ops = %d, want %d", ph, res[ph].Ops, 3*26)
		}
		if res[ph].Latency.Count() != 3*26 {
			t.Fatalf("phase %s latency samples = %d, want %d", ph, res[ph].Latency.Count(), 3*26)
		}
	}
	if files := countFiles(t, fs, "/"); files != 0 {
		t.Fatalf("files left behind: %d", files)
	}
}

// countFiles walks dir and counts everything in it that is not a
// directory.
func countFiles(t *testing.T, fs vfs.FileSystem, dir string) int {
	t.Helper()
	entries, err := fs.Readdir(dir)
	if err != nil {
		t.Fatalf("Readdir(%s): %v", dir, err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir {
			n += countFiles(t, fs, path.Join(dir, e.Name))
		} else {
			n++
		}
	}
	return n
}

func TestLeafPathsSpreadAndAreStable(t *testing.T) {
	seen := map[string]bool{}
	for p := 0; p < 30; p++ {
		lp := leafPath("/r", p, 10, 5)
		if !strings.HasPrefix(lp, "/r/") {
			t.Fatalf("leafPath = %q", lp)
		}
		if strings.Count(lp, "/") != 6 { // /r + 5 levels
			t.Fatalf("leafPath depth wrong: %q", lp)
		}
		seen[lp] = true
		if lp != leafPath("/r", p, 10, 5) {
			t.Fatal("leafPath not deterministic")
		}
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct leaves for 30 procs", len(seen))
	}
}

func TestSharedDirMode(t *testing.T) {
	fs := memfs.New()
	res, err := Run(Config{
		Mounts:          []vfs.FileSystem{fs},
		Processes:       8,
		ItemsPerProcess: 10,
		SharedDir:       true,
		Phases:          []Phase{FileCreate, FileStat, FileRemove},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[FileCreate].Ops != 80 {
		t.Fatalf("ops = %d", res[FileCreate].Ops)
	}
	es, err := fs.Readdir("/mdtest/shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 0 {
		t.Fatalf("shared dir not drained: %d entries", len(es))
	}
}

func TestSubsetOfPhasesValidatesOrder(t *testing.T) {
	fs := memfs.New()
	// stat without create must fail and report a useful error.
	_, err := Run(Config{
		Mounts:          []vfs.FileSystem{fs},
		Processes:       1,
		ItemsPerProcess: 1,
		Phases:          []Phase{FileStat},
	})
	if err == nil {
		t.Fatal("stat of never-created files succeeded")
	}
}

func TestRunRequiresMounts(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run without mounts succeeded")
	}
}

func TestRunOnDUFSCluster(t *testing.T) {
	// End-to-end: the paper's workload against the real DUFS stack
	// (coordination ensemble + 2 memfs mounts), one DUFS client per
	// process like the paper's per-node DUFS instances.
	c, err := cluster.Start(cluster.Config{
		Name:              "mdtest-e2e",
		CoordServers:      3,
		Backends:          2,
		Kind:              cluster.MemFS,
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	const procs = 4
	mounts := make([]vfs.FileSystem, procs)
	for p := 0; p < procs; p++ {
		cl, err := c.NewClient(p)
		if err != nil {
			t.Fatal(err)
		}
		mounts[p] = cl.FS
	}
	res, err := Run(Config{
		Mounts:          mounts,
		Processes:       procs,
		ItemsPerProcess: 10,
		Fanout:          10,
		Depth:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range Phases {
		if res[ph].Ops != procs*10 {
			t.Fatalf("phase %s ops = %d", ph, res[ph].Ops)
		}
	}
}

// TestStatHeavyPhasesOverCachedDUFS runs the stat-dominated workload
// over core.Cached mounts on a real cluster: the hot phase must be
// served overwhelmingly from the client cache (its watch-coherent
// entries), demonstrating the push-invalidation stream under the
// paper-style harness.
func TestStatHeavyPhasesOverCachedDUFS(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		Name:         "mdtest-stat",
		CoordServers: 1,
		Backends:     1,
		Kind:         cluster.MemFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const procs = 2
	mounts := make([]vfs.FileSystem, procs)
	var caches []*core.Cached
	for p := 0; p < procs; p++ {
		cl, err := c.NewClient(p)
		if err != nil {
			t.Fatal(err)
		}
		cc := core.NewCached(cl.FS, cl.Metrics)
		defer cc.Close()
		caches = append(caches, cc)
		mounts[p] = cc
	}
	res, err := Run(Config{
		Mounts:          mounts,
		Processes:       procs,
		ItemsPerProcess: 30,
		Depth:           2,
		Phases:          StatHeavyPhases,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range StatHeavyPhases {
		if res[ph].Ops != procs*30 {
			t.Fatalf("phase %s ops = %d, want %d", ph, res[ph].Ops, procs*30)
		}
	}
	var hits int64
	for _, cc := range caches {
		h, _ := cc.CacheStats()
		hits += h
	}
	// The hot phase alone is procs*30 stats of an unchanging
	// directory; all but the cold first one per mount must hit.
	if hits < int64(procs*30)/2 {
		t.Fatalf("cache hits = %d over the hot-stat phase, want the phase served from cache", hits)
	}
}

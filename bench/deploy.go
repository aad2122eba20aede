package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/backend/memfs"
	"repro/internal/coord"
	"repro/internal/coord/shard"
	"repro/internal/coord/zab"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// The deployment under test, identical for every workload except for
// what the workload table varies (shards, transport, vfs or not).
const (
	serversPerEnsemble = 3
	clientMounts       = 2 // = sessions generating load; never more than nproc
	backendsPerMount   = 2
	heartbeatInterval  = 50 * time.Millisecond
	electionTimeout    = time.Second
	// With the default of 8192 a member takes a fuzzy snapshot and cuts
	// its log about once a second under meta-write; that costs a quarter
	// of the throughput and, worse for a benchmark, triples the
	// run-to-run spread (README, sizing). ZooKeeper's own default is a
	// snapshot per 100k transactions; this bound keeps truncation out of
	// a run altogether. storage.recovery_s covers the snapshot-less
	// recovery path.
	maxLogEntries = 1 << 20
	wanDelay      = 500 * time.Microsecond
)

type deployConfig struct {
	shards  int
	wan     bool // in-proc transport with wanDelay per call instead of TCP loopback
	noVFS   bool // coordination-level workload: sessions only
	walRoot string
	tr      *tracer // nil: no decorator anywhere
	quick   bool    // smoke runs: elect sooner, so that booting is not most of the run
}

// mount is one client: a DUFS instance over its own session(s).
type mount struct {
	fs     vfs.FileSystem // nil when noVFS
	sess   coord.Client   // what fs runs on: the session, or the router over them
	shards []coord.Client // the per-shard sessions
}

type deployment struct {
	cfg       deployConfig
	ensembles []*coord.Ensemble
	mounts    []*mount
	walDir    string
}

// walRoot picks the filesystem for the write-ahead logs: tmpfs when the
// box has one, so that flush time is the program's syscall path and not
// a shared disk; otherwise the build directory of the checkout, then
// the system's temporary directory.
func walRoot() string {
	for _, dir := range []string{"/dev/shm", ".bench_build"} {
		if f, err := os.CreateTemp(dir, "dufs-bench-probe"); err == nil {
			f.Close()
			os.Remove(f.Name())
			return dir
		}
	}
	return os.TempDir()
}

// fsTypeName names the filesystem a path lives on, for the run header.
func fsTypeName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// The ports the deployment listens on are drawn from [firstPort,
// ephemeralLow()): below the range the kernel serves bind(0) and
// outgoing connections from.
const firstPort = 10000

var portCursor atomic.Uint32

func init() { portCursor.Store(uint32(os.Getpid()) * 64) } // keeps two processes apart

// ephemeralLow returns the lower end of the kernel's ephemeral port
// range (Linux's default when it cannot be read).
func ephemeralLow() int {
	lo := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		_, _ = fmt.Sscan(string(b), &lo) // lo keeps the default when the file does not parse
	}
	return lo
}

// freePort reserves a loopback port by binding and releasing it: the
// members of an ensemble must know each other's addresses before any of
// them listens. A port from bind(0) would not do: between the release
// here and the member's own bind, any connection this process dials
// (members dial each other while they boot) can be given that very port,
// and the deployment fails with "address already in use".
func freePort() (string, error) {
	span := ephemeralLow() - firstPort
	if span < 1024 {
		return "", fmt.Errorf("no room for listen ports between %d and the ephemeral range at %d", firstPort, firstPort+span)
	}
	var err error
	for tries := 0; tries < span; tries++ {
		addr := fmt.Sprintf("127.0.0.1:%d", firstPort+int(portCursor.Add(1)%uint32(span)))
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			ln.Close()
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free listen port: %w", err)
}

// deploy boots the ensembles and the two client mounts.
func deploy(cfg deployConfig) (_ *deployment, err error) {
	d := &deployment{cfg: cfg}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	if d.walDir, err = os.MkdirTemp(cfg.walRoot, "dufs-bench-wal-"); err != nil {
		return nil, err
	}

	var network transport.Network = transport.TCP{}
	if cfg.wan {
		network = &transport.Latency{Inner: transport.NewInProc(), Delay: func() time.Duration { return wanDelay }}
	}
	var traced *tracedNet
	if cfg.tr != nil {
		traced = newTracedNet(cfg.tr, network)
		network = traced
	}

	timeout := electionTimeout
	if cfg.quick {
		timeout = 6 * heartbeatInterval
	}
	ecfgs := make([]coord.EnsembleConfig, cfg.shards)
	for s := range ecfgs {
		addrs := map[string]string{}
		for id := 1; id <= serversPerEnsemble; id++ {
			for _, kind := range []string{"peer", "client"} {
				key := fmt.Sprintf("%s-%d", kind, id)
				if cfg.wan {
					addrs[key] = fmt.Sprintf("%s-shard%d-%s", filepath.Base(d.walDir), s, key) // unique per deployment
				} else if addrs[key], err = freePort(); err != nil {
					return nil, err
				}
				if traced != nil && kind == "peer" {
					traced.peers.Store(addrs[key], true)
				}
			}
		}
		ecfgs[s] = coord.EnsembleConfig{
			Servers:           serversPerEnsemble,
			Net:               network,
			AddrFor:           func(id uint64, kind string) string { return addrs[fmt.Sprintf("%s-%d", kind, id)] },
			HeartbeatInterval: heartbeatInterval,
			ElectionTimeout:   timeout,
			MaxLogEntries:     maxLogEntries,
			DataDir:           fmt.Sprintf("%s/shard%d", d.walDir, s),
		}
		if cfg.tr != nil {
			ecfgs[s].WrapStorage = func(_ uint64, st zab.Storage) zab.Storage { return wrapStorage(cfg.tr, st) }
		}
	}
	// Ensembles elect independently; boot them side by side.
	d.ensembles = make([]*coord.Ensemble, cfg.shards)
	errs := make([]error, cfg.shards)
	var wg sync.WaitGroup
	for s := range ecfgs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			d.ensembles[s], errs[s] = coord.StartEnsemble(ecfgs[s])
		}(s)
	}
	wg.Wait()
	for s, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("ensemble %d: %w", s, e)
		}
	}

	backends := make([]vfs.FileSystem, backendsPerMount)
	for i := range backends {
		backends[i] = memfs.New()
	}
	for k := 0; k < clientMounts; k++ {
		m, err := d.newMount(k, network, traced, backends)
		if err != nil {
			return nil, fmt.Errorf("mount %d: %w", k, err)
		}
		d.mounts = append(d.mounts, m)
	}
	return d, nil
}

// newMount opens mount k's session on every shard (preferring server k,
// as the paper co-locates each client with one ZooKeeper server), joins
// them behind a shard.Router when there are several, and builds DUFS on
// top. In a traced deployment each boundary gets its decorator.
func (d *deployment) newMount(k int, network transport.Network, traced *tracedNet, backends []vfs.FileSystem) (*mount, error) {
	tr := d.cfg.tr
	var mc *mountCtx
	if tr != nil && !d.cfg.noVFS {
		mc = &mountCtx{t: tr, idx: uint64(k + 1)}
	}
	sessions := make([]coord.Client, len(d.ensembles))
	closeAll := func() {
		for _, s := range sessions {
			if s != nil {
				s.Close()
			}
		}
	}
	for s, ens := range d.ensembles {
		addrs := append([]string(nil), ens.ClientAddrs...)
		p := k % len(addrs)
		addrs[0], addrs[p] = addrs[p], addrs[0]
		var sc *sessCtx
		net := network
		if tr != nil {
			sc = &sessCtx{}
			net = traced.view(mc, sc)
		}
		sess, err := coord.Connect(net, addrs)
		if err != nil {
			closeAll()
			return nil, err
		}
		sessions[s] = sess
		if tr != nil {
			sessions[s] = &tracedClient{Client: sess, t: tr, m: mc, s: tr.clientRPC,
				nested: len(d.ensembles) > 1, sess: sc, shard: s}
		}
	}
	m := &mount{sess: sessions[0], shards: sessions}
	if len(sessions) > 1 {
		router, err := shard.New(sessions)
		if err != nil {
			closeAll()
			return nil, err
		}
		m.sess = router
		if tr != nil {
			m.sess = &tracedClient{Client: router, t: tr, m: mc, s: tr.shardRPC, router: true}
		}
	}
	if d.cfg.noVFS {
		return m, nil
	}
	if tr != nil {
		wrapped := make([]vfs.FileSystem, len(backends))
		for i, b := range backends {
			wrapped[i] = &tracedBackend{inner: b, m: mc}
		}
		backends = wrapped
	}
	dufs, err := core.New(core.Config{Session: m.sess, Backends: backends})
	if err != nil {
		m.sess.Close()
		return nil, err
	}
	m.fs = dufs
	if tr != nil {
		m.fs = &tracedFS{inner: dufs, m: mc}
	}
	return m, nil
}

// stop closes the mounts, stops every server and removes the WAL.
func (d *deployment) stop() {
	for _, m := range d.mounts {
		m.sess.Close()
	}
	for _, e := range d.ensembles {
		if e != nil {
			e.Stop()
		}
	}
	if d.walDir != "" {
		os.RemoveAll(d.walDir)
	}
}

// epochs sums the ensembles' leader epochs; a change across a window
// means an election happened inside it.
func (d *deployment) epochs() (uint64, error) {
	var total uint64
	for s, sess := range d.mounts[0].shards {
		st, err := sess.Status()
		if err != nil {
			return 0, fmt.Errorf("status of shard %d: %w", s, err)
		}
		total += st.Epoch
	}
	return total, nil
}

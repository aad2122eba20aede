// Package cluster boots a complete DUFS deployment inside one process:
// a coordination ensemble, N back-end parallel filesystem instances
// (Lustre-like, PVFS-like or plain memfs), and K DUFS client mounts —
// the paper's experimental setup (§V: "Each client node mounts
// multiple instances of Lustre and PVFS2 filesystems and uses DUFS to
// merge these distinct physical partitions into one logically
// uniformed partition").
package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/backend/lustre"
	"repro/internal/backend/memfs"
	"repro/internal/backend/pvfs"
	"repro/internal/coord"
	"repro/internal/coord/shard"
	"repro/internal/coord/zab"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// BackendKind selects the parallel filesystem used for the physical
// mounts.
type BackendKind string

// Supported back-end kinds.
const (
	Lustre BackendKind = "lustre"
	PVFS   BackendKind = "pvfs"
	MemFS  BackendKind = "memfs"
)

// Config sizes the deployment.
type Config struct {
	// Name namespaces transport addresses so several clusters can
	// share one in-process network.
	Name string
	// Net defaults to a fresh in-process network.
	Net transport.Network

	// CoordServers is the size of each coordination ensemble
	// (paper: 1–8).
	CoordServers int
	// CoordShards is the number of independent coordination ensembles
	// the namespace is partitioned across (default 1 — the paper's
	// configuration). With more than one, every client talks through a
	// shard.Router that consistent-hashes znode paths by parent
	// directory.
	CoordShards int
	// Backends is the number of filesystem instances DUFS unions
	// (paper: 2 or 4).
	Backends int
	// Kind picks the back-end filesystem. Default Lustre.
	Kind BackendKind
	// ServersPerBackend sizes each back-end instance: OSS count for
	// Lustre, metadata+data server count for PVFS. Default 2.
	ServersPerBackend int

	// LustreDelay / PVFSDelay inject per-op service time into the
	// back-end metadata servers (real-stack shaping).
	LustreDelay func(op uint8) time.Duration
	PVFSDelay   func(op uint8) time.Duration

	// CoordObservers is the size of each shard's non-voting observer
	// tier (default 0): replicas streamed the log like followers that
	// serve reads but never vote, so they scale read throughput without slowing writes. Use
	// ConnectCoord("observer", i) to open a handle that reads from them.
	CoordObservers int

	// Coord tunables (zero = package defaults).
	HeartbeatInterval time.Duration
	ElectionTimeout   time.Duration
	// CoordMaxLogEntries caps each member's in-memory log before
	// truncation (zero = the zab default). Chaos scenarios shrink it to
	// force lagging replicas through the snapshot catch-up path.
	CoordMaxLogEntries int

	// CoordDataDir, when non-empty, gives every coordination server a
	// durable storage engine under CoordDataDir/shard<k>/node<id>,
	// making acknowledged metadata writes survive the crash of the
	// process too. Empty keeps each member's state in memory, where it
	// still survives member restarts and whole-cluster cold restarts
	// (RestartCoord).
	CoordDataDir string
	// CoordWrapStorage, when non-nil, wraps coordination member
	// (shard, member)'s store — the slow-disk injection seam the chaos
	// scenarios use (see coord.EnsembleConfig.WrapStorage for restart
	// semantics). member is the 0-based Ensemble.Servers index,
	// matching StopServer / LeaderIndex.
	CoordWrapStorage func(shard, member int, s zab.Storage) zab.Storage
}

// Cluster is a running deployment.
type Cluster struct {
	cfg Config
	net transport.Network
	// Ensemble is the first (or only) coordination ensemble, kept as a
	// field so single-shard callers read naturally.
	Ensemble *coord.Ensemble
	// Ensembles holds every coordination shard, Ensembles[0] ==
	// Ensemble.
	Ensembles []*coord.Ensemble

	// observers[shard] is that shard's observer tier; a stopped slot
	// keeps its config (and address) so StartObserver can revive it.
	observers [][]*observerSlot

	lustres []*lustre.Instance
	pvfses  []*pvfs.Instance
	memfses []*memfs.FS

	clients []*Client
}

// Client is one DUFS mount: its coordination handle, its per-backend
// filesystem clients and the DUFS instance built on them.
type Client struct {
	FS *core.DUFS
	// Session is the coordination handle: a *coord.Session on a
	// single-shard cluster, a *shard.Router when CoordShards > 1.
	Session  coord.Client
	Metrics  *metrics.Registry
	backends []vfs.FileSystem
	closers  []interface{ Close() error }
}

// Close tears the client down (session close expires its ephemerals).
func (c *Client) Close() error {
	err := c.Session.Close()
	for _, cl := range c.closers {
		cl.Close()
	}
	return err
}

// Start boots the deployment and waits for a coordination leader.
func Start(cfg Config) (*Cluster, error) {
	if cfg.CoordServers <= 0 {
		cfg.CoordServers = 3
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 2
	}
	if cfg.ServersPerBackend <= 0 {
		cfg.ServersPerBackend = 2
	}
	if cfg.Kind == "" {
		cfg.Kind = Lustre
	}
	if cfg.Net == nil {
		cfg.Net = transport.NewInProc()
	}
	if cfg.Name == "" {
		cfg.Name = "cluster"
	}
	if cfg.CoordShards <= 0 {
		cfg.CoordShards = 1
	}
	c := &Cluster{cfg: cfg, net: cfg.Net}

	for s := 0; s < cfg.CoordShards; s++ {
		ecfg := coord.EnsembleConfig{
			Servers:           cfg.CoordServers,
			Net:               cfg.Net,
			AddrPrefix:        fmt.Sprintf("%s-coord%d", cfg.Name, s),
			HeartbeatInterval: cfg.HeartbeatInterval,
			ElectionTimeout:   cfg.ElectionTimeout,
			MaxLogEntries:     cfg.CoordMaxLogEntries,
		}
		if cfg.CoordDataDir != "" {
			ecfg.DataDir = filepath.Join(cfg.CoordDataDir, fmt.Sprintf("shard%d", s))
		}
		if cfg.CoordWrapStorage != nil {
			shard := s
			// The ensemble hands out 1-based wire IDs; the cluster API
			// speaks 0-based member indexes throughout.
			ecfg.WrapStorage = func(id uint64, st zab.Storage) zab.Storage {
				return cfg.CoordWrapStorage(shard, int(id)-1, st)
			}
		}
		ens, err := coord.StartEnsemble(ecfg)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: coordination ensemble %d: %w", s, err)
		}
		c.Ensembles = append(c.Ensembles, ens)
	}
	c.Ensemble = c.Ensembles[0]

	c.observers = make([][]*observerSlot, cfg.CoordShards)
	for s := 0; s < cfg.CoordShards; s++ {
		for o := 0; o < cfg.CoordObservers; o++ {
			if _, err := c.AddObserver(s); err != nil {
				c.Stop()
				return nil, fmt.Errorf("cluster: observer %d of shard %d: %w", o, s, err)
			}
		}
	}

	for b := 0; b < cfg.Backends; b++ {
		switch cfg.Kind {
		case Lustre:
			var ossAddrs []string
			for i := 0; i < cfg.ServersPerBackend; i++ {
				ossAddrs = append(ossAddrs, fmt.Sprintf("%s-l%d-oss%d", cfg.Name, b, i))
			}
			inst, err := lustre.Start(lustre.Config{
				Net:          cfg.Net,
				MDSAddr:      fmt.Sprintf("%s-l%d-mds", cfg.Name, b),
				OSSAddrs:     ossAddrs,
				ServiceDelay: cfg.LustreDelay,
			})
			if err != nil {
				c.Stop()
				return nil, fmt.Errorf("cluster: lustre %d: %w", b, err)
			}
			c.lustres = append(c.lustres, inst)
		case PVFS:
			var metaAddrs, dataAddrs []string
			for i := 0; i < cfg.ServersPerBackend; i++ {
				metaAddrs = append(metaAddrs, fmt.Sprintf("%s-p%d-meta%d", cfg.Name, b, i))
				dataAddrs = append(dataAddrs, fmt.Sprintf("%s-p%d-data%d", cfg.Name, b, i))
			}
			inst, err := pvfs.Start(pvfs.Config{
				Net:          cfg.Net,
				MetaAddrs:    metaAddrs,
				DataAddrs:    dataAddrs,
				ServiceDelay: cfg.PVFSDelay,
			})
			if err != nil {
				c.Stop()
				return nil, fmt.Errorf("cluster: pvfs %d: %w", b, err)
			}
			c.pvfses = append(c.pvfses, inst)
		case MemFS:
			c.memfses = append(c.memfses, memfs.New())
		default:
			c.Stop()
			return nil, fmt.Errorf("cluster: unknown backend kind %q", cfg.Kind)
		}
	}
	return c, nil
}

// NewClient attaches a fresh DUFS client (session + back-end mounts).
// preferred picks which coordination server each session favors, so
// clients spread across the ensemble like the paper's co-located
// DUFS/ZooKeeper pairs. On a sharded cluster the client holds one
// session per shard behind a shard.Router.
func (c *Cluster) NewClient(preferred int) (*Client, error) {
	sess, err := c.ConnectCoord("", preferred)
	if err != nil {
		return nil, err
	}
	cl := &Client{Session: sess, Metrics: metrics.NewRegistry()}
	for b := 0; b < c.cfg.Backends; b++ {
		switch c.cfg.Kind {
		case Lustre:
			var ossAddrs []string
			for i := 0; i < c.cfg.ServersPerBackend; i++ {
				ossAddrs = append(ossAddrs, fmt.Sprintf("%s-l%d-oss%d", c.cfg.Name, b, i))
			}
			lc := lustre.NewClient(c.net, fmt.Sprintf("%s-l%d-mds", c.cfg.Name, b), ossAddrs)
			cl.backends = append(cl.backends, lc)
			cl.closers = append(cl.closers, lc)
		case PVFS:
			var metaAddrs, dataAddrs []string
			for i := 0; i < c.cfg.ServersPerBackend; i++ {
				metaAddrs = append(metaAddrs, fmt.Sprintf("%s-p%d-meta%d", c.cfg.Name, b, i))
				dataAddrs = append(dataAddrs, fmt.Sprintf("%s-p%d-data%d", c.cfg.Name, b, i))
			}
			pc := pvfs.NewClient(c.net, metaAddrs, dataAddrs)
			cl.backends = append(cl.backends, pc)
			cl.closers = append(cl.closers, pc)
		case MemFS:
			cl.backends = append(cl.backends, c.memfses[b])
		}
	}
	dufs, err := core.New(core.Config{
		Session:  sess,
		Backends: cl.backends,
		Metrics:  cl.Metrics,
	})
	if err != nil {
		sess.Close()
		return nil, err
	}
	cl.FS = dufs
	c.clients = append(c.clients, cl)
	return cl, nil
}

// ConnectCoord opens client i's coordination handle without mounting
// DUFS — load generators and scenario verification drive the metadata
// service through it directly: a session per coordination shard, behind a
// shard.Router when there is more than one. Which replica answers a
// session's reads is the order of its address list — home is the first
// address that accepts it, the rest are where it fails over to — so
// readFrom names a list:
//
//	""         the voters, rotated by i
//	"observer" the shard's observers rotated by i, the voters behind them
//	"any"      observers and voters as one list rotated by i: clients
//	           spread over every replica
//	"leader"   as "", every unwatched read a lease read: answered by
//	           the leader, linearizable (coord.Op.Lease)
//
// A negative i keeps the natural order.
func (c *Cluster) ConnectCoord(readFrom string, i int) (coord.Client, error) {
	sessions := make([]coord.Client, 0, len(c.Ensembles))
	for s, ens := range c.Ensembles {
		var observers, addrs []string
		for _, slot := range c.observers[s] {
			// Stopped slots too: a dead address costs one failed dial.
			observers = append(observers, slot.cfg.ClientAddr)
		}
		switch readFrom {
		case "", "leader":
			addrs = rotate(ens.ClientAddrs, i)
		case "observer":
			addrs = append(rotate(observers, i), rotate(ens.ClientAddrs, i)...)
		case "any":
			addrs = rotate(append(observers, ens.ClientAddrs...), i)
		default:
			return nil, fmt.Errorf("cluster: unknown read placement %q (want leader, observer or any)", readFrom)
		}
		sess, err := coord.Connect(c.net, addrs)
		if err != nil {
			for _, open := range sessions {
				open.Close()
			}
			return nil, err
		}
		if readFrom == "leader" {
			sessions = append(sessions, coord.Wrap(leaseReads{sess}))
		} else {
			sessions = append(sessions, sess)
		}
	}
	if len(sessions) == 1 {
		return sessions[0], nil
	}
	return shard.New(sessions)
}

// rotate returns addrs starting at its i-th element, wrapping around.
func rotate(addrs []string, i int) []string {
	if len(addrs) == 0 || i < 0 {
		return addrs
	}
	i %= len(addrs)
	return append(append([]string(nil), addrs[i:]...), addrs[:i]...)
}

// leaseReads is the "leader" read placement: a Do decorator that asks
// for every unwatched read of the session beneath it under the leader's
// read lease.
type leaseReads struct{ coord.Doer }

func (l leaseReads) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	switch op.Kind {
	case coord.OpGet, coord.OpExists, coord.OpChildren, coord.OpChildrenData:
		op.Lease = !op.Watch
	}
	return l.Doer.Do(ctx, op)
}

// BasicLustreClient returns a plain Lustre client against back-end 0 —
// the paper's "Basic Lustre" baseline, bypassing DUFS entirely.
func (c *Cluster) BasicLustreClient() (*lustre.Client, error) {
	if c.cfg.Kind != Lustre {
		return nil, fmt.Errorf("cluster: backend kind is %q, not lustre", c.cfg.Kind)
	}
	var ossAddrs []string
	for i := 0; i < c.cfg.ServersPerBackend; i++ {
		ossAddrs = append(ossAddrs, fmt.Sprintf("%s-l0-oss%d", c.cfg.Name, i))
	}
	return lustre.NewClient(c.net, c.cfg.Name+"-l0-mds", ossAddrs), nil
}

// BasicPVFSClient returns a plain PVFS client against back-end 0 — the
// paper's "Basic PVFS" baseline.
func (c *Cluster) BasicPVFSClient() (*pvfs.Client, error) {
	if c.cfg.Kind != PVFS {
		return nil, fmt.Errorf("cluster: backend kind is %q, not pvfs", c.cfg.Kind)
	}
	var metaAddrs, dataAddrs []string
	for i := 0; i < c.cfg.ServersPerBackend; i++ {
		metaAddrs = append(metaAddrs, fmt.Sprintf("%s-p0-meta%d", c.cfg.Name, i))
		dataAddrs = append(dataAddrs, fmt.Sprintf("%s-p0-data%d", c.cfg.Name, i))
	}
	return pvfs.NewClient(c.net, metaAddrs, dataAddrs), nil
}

// RestartCoord cold-restarts every coordination ensemble, each member
// on its own store — the paper's §IV-I scenario of all metadata servers
// failing and being brought back. Client sessions ride their normal
// failover/retry paths across the outage; the recovered ensembles hold
// every write they acknowledged, including the session table, so
// existing mounts keep working.
func (c *Cluster) RestartCoord() error {
	for s, ens := range c.Ensembles {
		if err := ens.Restart(); err != nil {
			return fmt.Errorf("cluster: restarting coordination shard %d: %w", s, err)
		}
	}
	return nil
}

// LustreInstances exposes the running Lustre back-ends (tests).
func (c *Cluster) LustreInstances() []*lustre.Instance { return c.lustres }

// --- observer tier ----------------------------------------------------

// observerSlot is one observer position in a shard's tier. The config
// survives StopObserver so the slot can be revived in place — the
// kill-and-restart path of the chaos matrix.
type observerSlot struct {
	cfg coord.ServerConfig
	srv *coord.Server // nil while stopped
}

// observerBaseID keeps observer IDs disjoint from voter IDs
// (voters are 1..CoordServers; no practical ensemble reaches 100).
const observerBaseID = 100

// AddObserver boots one more observer replica on shard s and returns
// its 0-based index within the tier. The observer joins the leader and
// starts catching up (snapshot first, then streamed frames) at once.
func (c *Cluster) AddObserver(s int) (int, error) {
	idx := len(c.observers[s])
	id := uint64(observerBaseID + idx + 1)
	peers := c.Ensembles[s].PeerAddrs()
	peers[id] = fmt.Sprintf("%s-coord%d-obs-peer-%d", c.cfg.Name, s, idx+1)
	c.observers[s] = append(c.observers[s], &observerSlot{cfg: coord.ServerConfig{
		ID:                id,
		PeerAddrs:         peers,
		Observer:          true,
		ClientAddr:        fmt.Sprintf("%s-coord%d-obs-client-%d", c.cfg.Name, s, idx+1),
		Net:               c.net,
		HeartbeatInterval: c.cfg.HeartbeatInterval,
		ElectionTimeout:   c.cfg.ElectionTimeout,
		MaxLogEntries:     c.cfg.CoordMaxLogEntries,
	}})
	return idx, c.StartObserver(s, idx)
}

// StopObserver kills observer (s, idx), keeping its slot for
// StartObserver. Clients reading from it fail over to other replicas;
// nothing replicated is lost — the replica was a read-only copy.
func (c *Cluster) StopObserver(s, idx int) {
	if slot := c.observers[s][idx]; slot.srv != nil {
		slot.srv.Stop()
		slot.srv = nil
	}
}

// StartObserver revives observer (s, idx) at its original addresses.
// Unlike a voter, an observer keeps no store across a stop: it comes
// back with a fresh one and catches up from the leader by snapshot,
// which is safe because it never votes.
func (c *Cluster) StartObserver(s, idx int) error {
	slot := c.observers[s][idx]
	if slot.srv != nil {
		return fmt.Errorf("cluster: observer %d/%d already running", s, idx)
	}
	srv, err := coord.NewServer(slot.cfg)
	if err != nil {
		return err
	}
	slot.srv = srv
	return nil
}

// Observer returns the running observer server (s, idx), or nil while
// the slot is stopped.
func (c *Cluster) Observer(s, idx int) *coord.Server {
	return c.observers[s][idx].srv
}

// ObserverAddr returns observer (s, idx)'s client address — what a
// fault injector blocks to partition the observer from its readers
// (observerPeerAddr is the one that cuts it off the log stream).
func (c *Cluster) ObserverAddr(s, idx int) string {
	return c.observers[s][idx].cfg.ClientAddr
}

// observerPeerAddr returns the address the leader streams the log to
// observer (s, idx) at. Replication is push, so blocking it stalls the
// replica while its own outbound calls (joins, sync pulls) still land.
func (c *Cluster) observerPeerAddr(s, idx int) string {
	cfg := c.observers[s][idx].cfg
	return cfg.PeerAddrs[cfg.ID]
}

// ReadSplit starts a tally of where reads are served and returns the
// function that ends it: how many reads the coordination servers
// answered since, by role — "leader" under the read lease, "voter" and
// "observer" from a plain replica — and how many they "refused" for
// being behind the session's stamp. The figures are sums of per-member
// counter deltas over the members running at the end: one restarted in
// between contributes what it counted since its last start, one that is
// down at the end nothing.
func (c *Cluster) ReadSplit() func() map[string]uint64 {
	before := c.readCounts()
	return func() map[string]uint64 {
		split := map[string]uint64{}
		for key, now := range c.readCounts() {
			split[key.role] += uint64(now - before[key]) // before: zero for a member started since
		}
		return split
	}
}

type readKey struct {
	srv  *coord.Server
	role string
}

// readCounts returns what every running member has counted, by role.
func (c *Cluster) readCounts() map[readKey]int64 {
	counts := map[readKey]int64{}
	c.eachMember(func(srv *coord.Server, plain string) {
		reg := srv.Metrics()
		leased := reg.Counter("lease_reads").Value()
		counts[readKey{srv, "leader"}] = leased
		counts[readKey{srv, plain}] = reg.Counter("reads").Value() - leased
		counts[readKey{srv, "refused"}] = reg.Counter("stamp_refusals").Value()
	})
	return counts
}

// StrayWrites counts the writes proposed by running coordination members
// that have not led since they started (their proposer never cut a frame,
// not even an epoch barrier). Only a leader proposes, so it is zero.
func (c *Cluster) StrayWrites() (n int64) {
	c.eachMember(func(srv *coord.Server, _ string) {
		if reg := srv.Metrics(); reg.Distribution("zab.proposer.batch_txns").Count() == 0 {
			n += reg.Counter("writes").Value()
		}
	})
	return n
}

// eachMember calls f on every running coordination member, with its
// tier: "voter" or "observer".
func (c *Cluster) eachMember(f func(srv *coord.Server, tier string)) {
	for _, ens := range c.Ensembles {
		for _, srv := range ens.Servers {
			if srv != nil {
				f(srv, "voter")
			}
		}
	}
	for _, tier := range c.observers {
		for _, slot := range tier {
			if slot.srv != nil {
				f(slot.srv, "observer")
			}
		}
	}
}

// Stop closes every client and shuts every server down.
func (c *Cluster) Stop() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, inst := range c.lustres {
		inst.Stop()
	}
	for _, inst := range c.pvfses {
		inst.Stop()
	}
	for s, tier := range c.observers {
		for idx := range tier {
			c.StopObserver(s, idx)
		}
	}
	for _, ens := range c.Ensembles {
		ens.Stop()
	}
}

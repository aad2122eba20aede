package coord

import (
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/coord/zab"
	"repro/internal/transport"
)

// EnsembleConfig parameterizes StartEnsemble.
type EnsembleConfig struct {
	// Servers is the ensemble size (1, 3, 5, ... — an even size works
	// but wastes a vote, exactly as in ZooKeeper).
	Servers int
	// Net is the shared transport.
	Net transport.Network
	// AddrPrefix namespaces the listen addresses; for TCP use
	// "127.0.0.1:0"-style addresses via AddrFor instead.
	AddrPrefix string
	// AddrFor, when non-nil, overrides address generation. kind is
	// "peer" or "client".
	AddrFor func(id uint64, kind string) string

	HeartbeatInterval time.Duration
	ElectionTimeout   time.Duration
	MaxLogEntries     int

	// DataDir, when non-empty, gives every member a durable storage
	// engine under DataDir/node<id>, so the members survive the crash
	// of their process too. Without it each member keeps its state in a
	// zab.MemStorage the ensemble holds on to. Either way a member — or
	// the whole ensemble — stopped and started again (StopServer /
	// StartServer / Restart) comes back on its own store without losing
	// an acknowledged write.
	DataDir string
	// WrapStorage, when non-nil, wraps member id's store (see
	// ServerConfig.WrapStorage). The hook is recorded in the member's
	// config, so a restarted member is re-wrapped — fault injectors that
	// must survive StopServer/StartServer keep their control state
	// outside the wrapper they return.
	WrapStorage func(id uint64, s zab.Storage) zab.Storage
}

// Ensemble is a running coordination service.
type Ensemble struct {
	Servers     []*Server
	ClientAddrs []string
	net         transport.Network
	cfgs        []ServerConfig    // per-member configs, for restart
	mems        []*zab.MemStorage // per-member stores without a DataDir, kept across restarts
}

// StartEnsemble boots a full coordination ensemble and waits for a
// leader, mirroring how the paper runs 1–8 ZooKeeper servers
// (§V-A/V-B). With DataDir set, each member recovers from its data
// directory, so StartEnsemble over an existing directory is a
// whole-cluster cold restart.
func StartEnsemble(cfg EnsembleConfig) (*Ensemble, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("coord: ensemble needs at least one server, got %d", cfg.Servers)
	}
	if cfg.Net == nil {
		return nil, fmt.Errorf("coord: ensemble needs a transport")
	}
	addrFor := cfg.AddrFor
	if addrFor == nil {
		addrFor = func(id uint64, kind string) string {
			return fmt.Sprintf("%s-%s-%d", cfg.AddrPrefix, kind, id)
		}
	}
	peers := make(map[uint64]string, cfg.Servers)
	for i := 1; i <= cfg.Servers; i++ {
		peers[uint64(i)] = addrFor(uint64(i), "peer")
	}
	e := &Ensemble{net: cfg.Net}
	for i := 1; i <= cfg.Servers; i++ {
		clientAddr := addrFor(uint64(i), "client")
		scfg := ServerConfig{
			ID:                uint64(i),
			PeerAddrs:         peers,
			ClientAddr:        clientAddr,
			Net:               cfg.Net,
			HeartbeatInterval: cfg.HeartbeatInterval,
			ElectionTimeout:   cfg.ElectionTimeout,
			MaxLogEntries:     cfg.MaxLogEntries,
		}
		if cfg.DataDir != "" {
			scfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("node%d", i))
		}
		if cfg.WrapStorage != nil {
			id := uint64(i)
			scfg.WrapStorage = func(s zab.Storage) zab.Storage { return cfg.WrapStorage(id, s) }
		}
		mem := new(zab.MemStorage)
		srv, err := newServer(scfg, mem)
		if err != nil {
			e.Stop()
			return nil, err
		}
		e.Servers = append(e.Servers, srv)
		e.ClientAddrs = append(e.ClientAddrs, clientAddr)
		e.cfgs = append(e.cfgs, scfg)
		e.mems = append(e.mems, mem)
	}
	if err := e.WaitLeader(10 * time.Second); err != nil {
		e.Stop()
		return nil, err
	}
	return e, nil
}

// WaitLeader blocks until a member is elected or the timeout expires; it
// wakes as the election ends.
func (e *Ensemble) WaitLeader(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)}}
	for _, s := range e.Servers {
		if s != nil {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.node.Elected())})
		}
	}
	if i, _, _ := reflect.Select(cases); i == 0 {
		return fmt.Errorf("coord: no leader within %v", timeout)
	}
	return nil
}

// Leader returns the current leader server, or nil.
func (e *Ensemble) Leader() *Server {
	for _, s := range e.Servers {
		if s != nil && s.IsLeader() {
			return s
		}
	}
	return nil
}

// StopServer stops member i (0-based), leaving its slot nil. Its store
// — the data directory, or the MemStorage the ensemble keeps — stays
// behind for StartServer.
func (e *Ensemble) StopServer(i int) {
	if s := e.Servers[i]; s != nil {
		s.Stop()
		e.Servers[i] = nil
	}
}

// StartServer (re)starts member i from its recorded configuration,
// recovering from the store it stopped with.
func (e *Ensemble) StartServer(i int) error {
	if e.Servers[i] != nil {
		return fmt.Errorf("coord: server %d already running", i)
	}
	if e.cfgs == nil {
		return fmt.Errorf("coord: ensemble was not built by StartEnsemble; cannot restart members")
	}
	srv, err := newServer(e.cfgs[i], e.mems[i])
	if err != nil {
		return err
	}
	e.Servers[i] = srv
	return nil
}

// Restart performs a whole-cluster cold restart: every member is
// stopped, then every member is started again on its store and a leader
// is awaited.
func (e *Ensemble) Restart() error {
	for i := range e.Servers {
		e.StopServer(i)
	}
	for i := range e.Servers {
		if err := e.StartServer(i); err != nil {
			return fmt.Errorf("coord: restarting server %d: %w", i, err)
		}
	}
	return e.WaitLeader(10 * time.Second)
}

// PeerAddrs returns the voter ID → peer-traffic address map, the
// contact list an observer replica needs to find (and follow) the
// leader's log feed.
func (e *Ensemble) PeerAddrs() map[uint64]string {
	if len(e.cfgs) == 0 {
		return nil
	}
	return maps.Clone(e.cfgs[0].PeerAddrs)
}

// Connect opens a session against the ensemble. preferred selects the
// server index (sessions spread across servers, like the paper's DUFS
// clients each talking to a co-located ZooKeeper server); a negative
// value keeps the natural failover order.
func (e *Ensemble) Connect(preferred int) (*Session, error) {
	addrs := append([]string(nil), e.ClientAddrs...)
	if preferred >= 0 && len(addrs) > 1 {
		p := preferred % len(addrs)
		addrs[0], addrs[p] = addrs[p], addrs[0]
	}
	return Connect(e.net, addrs)
}

// Stop shuts every server down.
func (e *Ensemble) Stop() {
	for _, s := range e.Servers {
		if s != nil {
			s.Stop()
		}
	}
}

package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/coord/zab"
)

// DiskChaos is the shared control plane for slow-disk injection. The
// storage wrappers it hands out read their current delay from here on
// every fsync, so one DiskChaos steers every member — including
// wrappers re-created when a member restarts (the ensemble re-invokes
// WrapStorage on StartServer, and a fresh wrapper bound to the same
// DiskChaos picks the fault right back up).
type DiskChaos struct {
	mu     sync.Mutex
	delays map[[2]int]time.Duration // (shard, member index) -> fsync delay
}

// NewDiskChaos returns an empty control plane (no delays).
func NewDiskChaos() *DiskChaos {
	return &DiskChaos{delays: make(map[[2]int]time.Duration)}
}

// SetDelay makes every fsync on coordination member (shard, member)
// take at least d — the slow-disk fault. member is the 0-based
// Ensemble.Servers index. Zero removes the delay.
func (dc *DiskChaos) SetDelay(shard, member int, d time.Duration) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	k := [2]int{shard, member}
	if d <= 0 {
		delete(dc.delays, k)
		return
	}
	dc.delays[k] = d
}

// Clear removes every delay.
func (dc *DiskChaos) Clear() {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	dc.delays = make(map[[2]int]time.Duration)
}

func (dc *DiskChaos) delayFor(shard, member int) time.Duration {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.delays[[2]int{shard, member}]
}

// Wrap has the Config.CoordWrapStorage signature: plug a DiskChaos
// into a cluster with `CoordWrapStorage: chaos.Wrap`.
func (dc *DiskChaos) Wrap(shard, member int, s zab.Storage) zab.Storage {
	return &slowStorage{Storage: s, chaos: dc, shard: shard, member: member}
}

// slowStorage delays the durability edge — Sync and SaveHardState, the
// two calls whose latency a real slow disk puts on the ack path. The
// wrapper itself is stateless; the live delay lives in the DiskChaos
// so it survives the wrapper being rebuilt on restart.
type slowStorage struct {
	zab.Storage
	chaos  *DiskChaos
	shard  int
	member int
}

func (s *slowStorage) Sync() error {
	if d := s.chaos.delayFor(s.shard, s.member); d > 0 {
		time.Sleep(d)
	}
	return s.Storage.Sync()
}

func (s *slowStorage) SaveHardState(epoch, grantedEpoch uint64) error {
	if d := s.chaos.delayFor(s.shard, s.member); d > 0 {
		time.Sleep(d)
	}
	return s.Storage.SaveHardState(epoch, grantedEpoch)
}

// CoordAddrs returns coordination member (shard, member)'s transport
// addresses — the handles a fault injector blocks to partition the
// member away. member is the 0-based Ensemble.Servers index; the
// addresses mirror coord.StartEnsemble's default scheme, whose wire
// IDs are 1-based.
func (c *Cluster) CoordAddrs(shard, member int) (peer, client string) {
	prefix := fmt.Sprintf("%s-coord%d", c.cfg.Name, shard)
	id := member + 1
	return fmt.Sprintf("%s-peer-%d", prefix, id), fmt.Sprintf("%s-client-%d", prefix, id)
}

// LeaderIndex reports which member of coordination shard s currently
// leads, or -1 when an election is in flight.
func (c *Cluster) LeaderIndex(s int) int {
	for i, srv := range c.Ensembles[s].Servers {
		if srv != nil && srv.IsLeader() {
			return i
		}
	}
	return -1
}

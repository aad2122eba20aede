package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
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
// into a cluster with `CoordWrapStorage: chaos.Wrap`. Every store a
// server hands its wrapper streams snapshots (zab.StreamStorage), and so
// does the wrapper.
func (dc *DiskChaos) Wrap(shard, member int, s zab.Storage) zab.Storage {
	return &slowStorage{StreamStorage: s.(zab.StreamStorage), chaos: dc, shard: shard, member: member}
}

// slowStorage delays the durability edge — Sync and SaveHardState, the
// two calls whose latency a real slow disk puts on the ack path. While
// the delay is set it also holds the durable horizon at what the last
// completed Sync covered, so a store whose appends are durable at once
// (zab.MemStorage) makes the node wait for the slow fsync like a disk
// would. The live delay lives in the DiskChaos so it survives the
// wrapper being rebuilt on restart.
type slowStorage struct {
	zab.StreamStorage
	chaos  *DiskChaos
	shard  int
	member int
	synced atomic.Uint64 // durable horizon as of the last completed Sync
}

func (s *slowStorage) Sync() error {
	if d := s.chaos.delayFor(s.shard, s.member); d > 0 {
		time.Sleep(d)
	}
	if err := s.StreamStorage.Sync(); err != nil {
		return err
	}
	for mark := s.StreamStorage.LastDurableZxid(); ; {
		old := s.synced.Load()
		if mark <= old || s.synced.CompareAndSwap(old, mark) {
			return nil
		}
	}
}

func (s *slowStorage) LastDurableZxid() uint64 {
	d := s.StreamStorage.LastDurableZxid()
	if s.chaos.delayFor(s.shard, s.member) > 0 {
		d = min(d, s.synced.Load())
	}
	return d
}

func (s *slowStorage) SaveHardState(epoch, grantedEpoch uint64) error {
	if d := s.chaos.delayFor(s.shard, s.member); d > 0 {
		time.Sleep(d)
	}
	return s.StreamStorage.SaveHardState(epoch, grantedEpoch)
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

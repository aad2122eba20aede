package zab

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// Observer is a non-voting replica: it tails the leader's committed
// log by polling the observer feed (streaming the same frames the
// voters replicate and the WAL persists), applies every frame it
// receives to its local state machine, and exposes the applied horizon
// for a server to serve reads against. Initial catch-up — and
// catch-up after the leader truncates past the observer's position —
// arrives as a snapshot install, exactly like a lagging voter's sync.
//
// An Observer holds no log and no durable state: its entire replica is
// the state machine, rebuilt from a snapshot whenever it falls behind.
// It never votes, never acks, and never appears in quorum math; the
// write path touches it only through Forward, which proxies a client
// transaction to the current leader.
type Observer struct {
	cfg ObserverConfig
	sm  machine

	mu           sync.Mutex
	epoch        uint64
	leaderID     uint64
	lastApplied  uint64
	leaderCommit uint64 // highest commit horizon seen from a leader
	snapshots    uint64 // snapshot installs (initial catch-up + post-truncation)
	paused       bool   // test/chaos hook: stall replication
	stopped      bool
	applyWaiters map[uint64][]chan struct{}

	connMu sync.Mutex
	conns  map[uint64]transport.Conn

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// ObserverConfig configures a non-voting observer replica.
type ObserverConfig struct {
	// ID identifies this observer in the leader's feed (and its lag
	// gauges). Must be disjoint from the voter IDs.
	ID uint64
	// Peers maps the VOTING members' IDs to their peer addresses — the
	// plane the observer polls for committed frames and forwards
	// writes through. The observer itself is not in this map.
	Peers map[uint64]string
	// Net is the transport the peer addresses live on.
	Net transport.Network
	// PollInterval is the idle tail cadence; while frames are flowing
	// the observer re-polls immediately. Defaults to 15ms.
	PollInterval time.Duration
}

// ErrNotTailing is returned by Forward when the observer has not yet
// located a leader to proxy the write to.
var ErrNotTailing = errors.New("zab: observer has no leader to forward to")

// NewObserver validates the configuration and builds an observer.
// Call Start to begin tailing.
func NewObserver(cfg ObserverConfig, sm StateMachine) (*Observer, error) {
	if cfg.Net == nil {
		return nil, errors.New("zab: ObserverConfig.Net is required")
	}
	if len(cfg.Peers) == 0 {
		return nil, errors.New("zab: ObserverConfig.Peers is required")
	}
	if _, clash := cfg.Peers[cfg.ID]; clash || cfg.ID == 0 {
		return nil, fmt.Errorf("zab: observer ID %d collides with a voter (or is zero)", cfg.ID)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 15 * time.Millisecond
	}
	o := &Observer{
		cfg:          cfg,
		sm:           liftMachine(sm),
		conns:        make(map[uint64]transport.Conn),
		applyWaiters: make(map[uint64][]chan struct{}),
		stopCh:       make(chan struct{}),
	}
	return o, nil
}

// Start launches the tail loop.
func (o *Observer) Start() {
	o.wg.Add(1)
	go o.tailLoop()
}

// Stop halts tailing and fails outstanding WaitApplied calls.
func (o *Observer) Stop() {
	o.mu.Lock()
	if o.stopped {
		o.mu.Unlock()
		return
	}
	o.stopped = true
	o.mu.Unlock()
	close(o.stopCh)
	o.connMu.Lock()
	for id, c := range o.conns {
		c.Close()
		delete(o.conns, id)
	}
	o.connMu.Unlock()
	o.wg.Wait()
}

// ID returns the observer's feed identity.
func (o *Observer) ID() uint64 { return o.cfg.ID }

// LastApplied returns the replica's applied horizon.
func (o *Observer) LastApplied() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastApplied
}

// Epoch returns the highest leader epoch the observer has tailed.
func (o *Observer) Epoch() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.epoch
}

// LeaderID returns the voter the observer is currently tailing (0
// while searching).
func (o *Observer) LeaderID() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.leaderID
}

// LagTxns returns the gap between the last commit horizon the
// observer saw and what it has applied. The value is a zxid delta:
// exact within an epoch, a deliberate overestimate across an epoch
// boundary — callers treating "large" as "stale" (the read router's
// staleness bound) get the conservative answer either way.
func (o *Observer) LagTxns() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.leaderCommit <= o.lastApplied {
		return 0
	}
	return o.leaderCommit - o.lastApplied
}

// SnapshotInstalls counts how many times the replica was rebuilt from
// a shipped snapshot (initial catch-up and every catch-up after log
// truncation).
func (o *Observer) SnapshotInstalls() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.snapshots
}

// SetPaused stalls (true) or resumes (false) the tail loop — the
// replication-delay injection point for tests and chaos scenarios.
func (o *Observer) SetPaused(p bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.paused = p
}

// WaitApplied blocks until the local replica has applied zxid — the
// sync-barrier primitive: a server that forwarded a write (or a sync
// token) to the leader holds the client's response until the write is
// visible in local reads.
func (o *Observer) WaitApplied(zxid uint64) error {
	o.mu.Lock()
	if o.lastApplied >= zxid {
		o.mu.Unlock()
		return nil
	}
	if o.stopped {
		o.mu.Unlock()
		return ErrStopped
	}
	ch := make(chan struct{})
	o.applyWaiters[zxid] = append(o.applyWaiters[zxid], ch)
	o.mu.Unlock()

	timer := time.NewTimer(proposeTimeout)
	defer timer.Stop()
	select {
	case <-ch:
		return nil
	case <-o.stopCh:
		return ErrStopped
	case <-timer.C:
		o.mu.Lock()
		applied := o.lastApplied >= zxid
		chans := o.applyWaiters[zxid]
		for i, c := range chans {
			if c == ch {
				o.applyWaiters[zxid] = append(chans[:i:i], chans[i+1:]...)
				break
			}
		}
		if len(o.applyWaiters[zxid]) == 0 {
			delete(o.applyWaiters, zxid)
		}
		o.mu.Unlock()
		if applied {
			return nil
		}
		return fmt.Errorf("zab: observer: zxid %x not applied within %v", zxid, proposeTimeout)
	}
}

// Forward proxies one client transaction to the current leader and
// returns its committed result and zxid. The caller typically follows
// with WaitApplied(zxid) so its own replica reflects the write before
// the client hears the ack.
func (o *Observer) Forward(txn []byte) (result []byte, zxid uint64, err error) {
	o.mu.Lock()
	leader := o.leaderID
	o.mu.Unlock()
	if leader == 0 {
		return nil, 0, ErrNotTailing
	}
	respB, err := o.callPeer(leader, forwardReq{Txn: txn}.encode())
	if err != nil {
		o.mu.Lock()
		if o.leaderID == leader {
			o.leaderID = 0
		}
		o.mu.Unlock()
		return nil, 0, err
	}
	resp, err := decodeForwardResp(respB)
	if err != nil {
		return nil, 0, err
	}
	return resp.Result, resp.Zxid, nil
}

// --- tail loop --------------------------------------------------------

func (o *Observer) tailLoop() {
	defer o.wg.Done()
	voters := o.sortedVoters()
	next := 0 // round-robin cursor while no leader is known
	for {
		o.mu.Lock()
		paused, target, from := o.paused, o.leaderID, o.lastApplied
		o.mu.Unlock()
		if paused {
			if !o.sleepInterruptible(o.cfg.PollInterval) {
				return
			}
			continue
		}
		if target == 0 {
			target = voters[next%len(voters)]
			next++
		}
		progress := o.pollOnce(target, from)
		if progress {
			continue // keep streaming while frames are flowing
		}
		if !o.sleepInterruptible(o.cfg.PollInterval) {
			return
		}
	}
}

// pollOnce performs one feed poll against `target` and applies what
// comes back. It reports whether replication progressed (snapshot or
// frames applied), in which case the caller re-polls immediately.
func (o *Observer) pollOnce(target, from uint64) bool {
	req := observerPollReq{ObserverID: o.cfg.ID, FromZxid: from, AppliedZxid: from}
	respB, err := o.callPeer(target, req.encode())
	if err != nil {
		o.mu.Lock()
		if o.leaderID == target {
			o.leaderID = 0 // the leader went away; search again
		}
		o.mu.Unlock()
		return false
	}
	resp, err := decodeObserverPollResp(respB)
	if err != nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stopped {
		return false
	}
	if resp.Redirect {
		if resp.LeaderID != 0 && resp.LeaderID != o.cfg.ID {
			o.leaderID = resp.LeaderID
			return true // retry immediately against the hint
		}
		if o.leaderID == target {
			o.leaderID = 0
		}
		return false
	}
	if resp.Epoch < o.epoch {
		return false // stale leader; keep searching
	}
	o.epoch = resp.Epoch
	o.leaderID = resp.LeaderID
	progress := false
	if resp.HasSnapshot && resp.SnapZxid > o.lastApplied {
		if err := o.sm.Restore(resp.Snapshot, resp.SnapZxid); err != nil {
			return false
		}
		o.lastApplied = resp.SnapZxid
		o.snapshots++
		progress = true
	}
	// Frames arrive contiguous after the poll position (or after the
	// snapshot); anything at or below our applied horizon is overlap
	// from a raced poll — committed history is linear, so skipping is
	// safe.
	for _, e := range resp.Entries {
		if e.Last() <= o.lastApplied {
			continue
		}
		if !e.Noop {
			o.sm.ApplyBatch(e.Txns, e.Zxid)
		}
		o.lastApplied = e.Last()
		progress = true
	}
	if resp.Commit > o.leaderCommit {
		o.leaderCommit = resp.Commit
	}
	if progress {
		o.wakeAppliedLocked()
	}
	return progress
}

func (o *Observer) wakeAppliedLocked() {
	for z, chans := range o.applyWaiters {
		if z > o.lastApplied {
			continue
		}
		for _, ch := range chans {
			close(ch)
		}
		delete(o.applyWaiters, z)
	}
}

func (o *Observer) sortedVoters() []uint64 {
	ids := make([]uint64, 0, len(o.cfg.Peers))
	for id := range o.cfg.Peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (o *Observer) sleepInterruptible(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-o.stopCh:
		return false
	case <-timer.C:
		return true
	}
}

func (o *Observer) getConn(id uint64) (transport.Conn, error) {
	o.connMu.Lock()
	defer o.connMu.Unlock()
	if c, ok := o.conns[id]; ok {
		return c, nil
	}
	addr, ok := o.cfg.Peers[id]
	if !ok {
		return nil, fmt.Errorf("zab: observer: unknown voter %d", id)
	}
	c, err := o.cfg.Net.Dial(addr)
	if err != nil {
		return nil, err
	}
	o.conns[id] = c
	return c, nil
}

func (o *Observer) callPeer(id uint64, req []byte) ([]byte, error) {
	c, err := o.getConn(id)
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(req)
	if err != nil {
		o.connMu.Lock()
		if cur, ok := o.conns[id]; ok && cur == c {
			cur.Close()
			delete(o.conns, id)
		}
		o.connMu.Unlock()
	}
	return resp, err
}

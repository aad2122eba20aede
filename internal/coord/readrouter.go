package coord

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Read routing across the replica tiers.
//
// A plain Session reads from whichever server it happens to be
// connected to. A ReadRouter makes the tier an explicit policy choice:
// spread the stat/readdir load across observers (the read-scaling
// tier), pin linearizable reads to the leader's lease (no quorum round
// trip, no stale data), or just pick the lowest-latency replica. The
// router keeps one primary session against the voters — writes,
// watches and sync barriers always use it — plus lazy per-endpoint
// sessions for reads, and it probes every endpoint's Status in the
// background so routing sees health, leadership, observer lag and RTT.

// ReadPolicy selects which replicas answer a ReadRouter's reads.
type ReadPolicy string

const (
	// ReadLeader serves reads on the leader under its read lease:
	// linearizable without a quorum round trip. When no lease read can
	// be placed (election in flight, lease expired), the router falls
	// back to a sync barrier plus a voter read — still linearizable,
	// just slower.
	ReadLeader ReadPolicy = "leader"
	// ReadObserver prefers observer replicas, failing over to voters
	// when none is healthy (or all exceed the staleness bound).
	ReadObserver ReadPolicy = "observer"
	// ReadAny round-robins reads across every healthy replica, voters
	// and observers alike.
	ReadAny ReadPolicy = "any"
	// ReadNearest picks the healthy replica with the lowest probed
	// round-trip time.
	ReadNearest ReadPolicy = "nearest"
)

// attemptTimeout bounds one read attempt against one endpoint before
// the router fails over to the next candidate; voters remain the final
// fallback, tried under the caller's own deadline. It must sit well
// under a client SLO and well over a healthy replica's service time.
const attemptTimeout = 250 * time.Millisecond

// probeInterval is the default cadence of the background Status probe.
const probeInterval = 500 * time.Millisecond

// ReadCounters tallies where a ReadRouter's reads were actually
// served, for the load generator's read-split report.
type ReadCounters struct {
	Leader   atomic.Uint64 // lease reads answered by the leader
	Voter    atomic.Uint64 // plain reads answered by a voting member
	Observer atomic.Uint64 // reads answered by an observer replica
	Failover atomic.Uint64 // attempts abandoned for the next candidate
	Fallback atomic.Uint64 // lease reads demoted to sync-barrier reads
}

// Split reports the counters as a map, ready for a JSON artifact.
func (c *ReadCounters) Split() map[string]uint64 {
	if c == nil {
		return nil
	}
	return map[string]uint64{
		"leader":   c.Leader.Load(),
		"voter":    c.Voter.Load(),
		"observer": c.Observer.Load(),
		"failover": c.Failover.Load(),
		"fallback": c.Fallback.Load(),
	}
}

// RouterConfig parameterizes NewReadRouter.
type RouterConfig struct {
	// Net is the client-plane transport.
	Net transport.Network
	// Voters lists the voting members' client addresses (required).
	Voters []string
	// Observers lists the observer tier's client addresses.
	Observers []string
	// Policy selects the read tier; empty defaults to ReadAny when
	// observers exist and voter-local reads otherwise.
	Policy ReadPolicy
	// MaxLagTxns is the staleness bound: an observer whose probed
	// replication lag exceeds it is skipped (0 = no bound). The lag is
	// a conservative zxid delta, so a bound here never admits a
	// replica that is further behind than stated.
	MaxLagTxns uint64
	// ProbeInterval overrides the background Status probe cadence.
	ProbeInterval time.Duration
	// Counters, when non-nil, receives the per-tier read tallies.
	Counters *ReadCounters
}

// endpoint is one routable replica and the router's latest knowledge
// of it.
type endpoint struct {
	addr     string
	observer bool

	mu       sync.Mutex
	sess     *Session
	probed   bool
	healthy  bool
	isLeader bool
	lagTxns  uint64
	rtt      time.Duration
}

// ReadRouter is a policy-routed read frontend over one coordination
// ensemble plus its observer tier. The embedded Session is the
// primary voter session: writes, watches, Sync and session identity
// all flow through it unchanged — Do re-routes only the unwatched
// reads, whichever form (blocking or Begin) submitted them.
type ReadRouter struct {
	*Session
	Forms     // every typed form, over this router's Do
	cfg       RouterConfig
	endpoints []*endpoint // voters first, then observers
	rr        atomic.Uint64
	stopCh    chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// NewReadRouter connects the primary voter session and starts the
// background endpoint probe.
func NewReadRouter(cfg RouterConfig) (*ReadRouter, error) {
	if len(cfg.Voters) == 0 {
		return nil, errors.New("coord: read router needs at least one voter address")
	}
	if cfg.Policy == "" {
		if len(cfg.Observers) > 0 {
			cfg.Policy = ReadAny
		} else {
			cfg.Policy = ReadNearest
		}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = probeInterval
	}
	primary, err := Connect(cfg.Net, cfg.Voters)
	if err != nil {
		return nil, err
	}
	r := &ReadRouter{Session: primary, cfg: cfg, stopCh: make(chan struct{})}
	r.Forms = Forms{r}
	for _, a := range cfg.Voters {
		r.endpoints = append(r.endpoints, &endpoint{addr: a})
	}
	for _, a := range cfg.Observers {
		r.endpoints = append(r.endpoints, &endpoint{addr: a, observer: true})
	}
	r.probeAll() // prime health/leadership before the first read
	r.wg.Add(1)
	go r.probeLoop()
	return r, nil
}

// Close stops the probe loop and closes every session, the primary
// included.
func (r *ReadRouter) Close() error {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
	for _, ep := range r.endpoints {
		ep.mu.Lock()
		if ep.sess != nil {
			ep.sess.Close()
			ep.sess = nil
		}
		ep.mu.Unlock()
	}
	return r.Session.Close()
}

func (r *ReadRouter) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

// probeAll refreshes every endpoint's health, leadership, lag and RTT
// with one Status round trip each.
func (r *ReadRouter) probeAll() {
	for _, ep := range r.endpoints {
		sess, err := ep.session(r.cfg.Net)
		if err != nil {
			ep.record(false, false, 0, 0)
			continue
		}
		begin := time.Now()
		st, err := sess.Status()
		if err != nil {
			ep.dropSession()
			ep.record(false, false, 0, 0)
			continue
		}
		ep.record(true, st.IsLeader, st.LagTxns, time.Since(begin))
	}
}

// session returns the endpoint's lazy read session, dialing on first
// use. Each endpoint's session has exactly one address on purpose:
// the router does its own failover, so a dead endpoint must fail the
// attempt, not silently wander to a different server.
func (ep *endpoint) session(net transport.Network) (*Session, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.sess != nil {
		return ep.sess, nil
	}
	s, err := Connect(net, []string{ep.addr})
	if err != nil {
		return nil, err
	}
	ep.sess = s
	return s, nil
}

func (ep *endpoint) dropSession() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.sess != nil {
		ep.sess.Close()
		ep.sess = nil
	}
}

func (ep *endpoint) record(healthy, leader bool, lag uint64, rtt time.Duration) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.probed = true
	ep.healthy = healthy
	ep.isLeader = leader
	ep.lagTxns = lag
	if healthy {
		ep.rtt = rtt
	}
}

func (ep *endpoint) snapshot() (probed, healthy, leader bool, lag uint64, rtt time.Duration) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.probed, ep.healthy, ep.isLeader, ep.lagTxns, ep.rtt
}

// eligible reports whether the endpoint may serve a policy read right
// now: not known-dead, and (for observers) within the staleness bound.
func (r *ReadRouter) eligible(ep *endpoint) bool {
	probed, healthy, _, lag, _ := ep.snapshot()
	if probed && !healthy {
		return false
	}
	if ep.observer && r.cfg.MaxLagTxns > 0 && lag > r.cfg.MaxLagTxns {
		return false
	}
	return true
}

// candidates orders the endpoints a spread read should try, by
// policy; voters always follow as the in-list fallback tier, and the
// primary session is the last resort after the whole list.
func (r *ReadRouter) candidates() []*endpoint {
	var preferred, fallback []*endpoint
	switch r.cfg.Policy {
	case ReadObserver:
		for _, ep := range r.endpoints {
			if ep.observer && r.eligible(ep) {
				preferred = append(preferred, ep)
			} else if !ep.observer {
				fallback = append(fallback, ep)
			}
		}
	case ReadNearest:
		for _, ep := range r.endpoints {
			if r.eligible(ep) {
				preferred = append(preferred, ep)
			}
		}
		// Stable selection sort by probed RTT (the list is tiny).
		for i := 0; i < len(preferred); i++ {
			best := i
			for j := i + 1; j < len(preferred); j++ {
				_, _, _, _, rj := preferred[j].snapshot()
				_, _, _, _, rb := preferred[best].snapshot()
				if rj < rb {
					best = j
				}
			}
			preferred[i], preferred[best] = preferred[best], preferred[i]
		}
	default: // ReadAny
		for _, ep := range r.endpoints {
			if r.eligible(ep) {
				preferred = append(preferred, ep)
			}
		}
		if n := len(preferred); n > 1 {
			off := int(r.rr.Add(1)) % n
			rotated := make([]*endpoint, 0, n)
			rotated = append(rotated, preferred[off:]...)
			rotated = append(rotated, preferred[:off]...)
			preferred = rotated
		}
	}
	return append(preferred, fallback...)
}

// Do implements Doer: a plain read is placed by the policy; everything
// else — writes, Sync, a read whose caller chose the lease itself, and
// watched reads, whose watch must live on the server WaitEvents parks
// on — is the primary session's.
func (r *ReadRouter) Do(ctx context.Context, op Op) (Result, error) {
	switch op.Kind {
	case OpGet, OpExists, OpChildren, OpChildrenData:
		if !op.Watch && !op.Lease {
			// The read session is not the one that wrote: it carries the
			// primary's stamp there and brings its own back, so the router
			// as a whole reads its writes and never reads backwards.
			op.Zxid = max(op.Zxid, r.Session.seen.Load())
			var res Result
			var err error
			if r.cfg.Policy == ReadLeader {
				res, err = r.leaderRead(ctx, op)
			} else {
				res, err = r.spreadRead(ctx, op)
			}
			r.Session.observe(res.Zxid)
			return res, err
		}
	}
	return r.Session.Do(ctx, op)
}

// spreadRead walks the candidate list, giving each endpoint one
// bounded attempt, and falls back to the primary voter session under
// the caller's own deadline. The bounded attempt is what turns a
// partitioned observer into a ~attemptTimeout blip instead of a stuck
// client: the sub-context expires, the parent is still live, and the
// next candidate (eventually a voter) takes the read.
func (r *ReadRouter) spreadRead(ctx context.Context, op Op) (Result, error) {
	var lastErr error
	for _, ep := range r.candidates() {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		sess, err := ep.session(r.cfg.Net)
		if err != nil {
			lastErr = err
			ep.record(false, false, 0, 0)
			continue
		}
		attempt, cancel := context.WithTimeout(ctx, attemptTimeout)
		res, err := sess.Do(attempt, op)
		cancel()
		if err == nil {
			r.count(ep.observer, false)
			return res, nil
		}
		if ctx.Err() != nil {
			return Result{}, err
		}
		if isReplicaRefusal(err) {
			// A definite application-level answer (no such node, bad
			// path...) is the read's real result, not a routing failure.
			return Result{}, err
		}
		lastErr = err
		ep.record(false, false, 0, 0)
		if c := r.cfg.Counters; c != nil {
			c.Failover.Add(1)
		}
	}
	// Last resort: the primary voter session, which retries and fails
	// over internally until the caller's deadline.
	res, err := r.Session.Do(ctx, op)
	if err != nil {
		if lastErr != nil && errors.Is(err, context.DeadlineExceeded) {
			return Result{}, fmt.Errorf("coord: read failed on every replica: %w", lastErr)
		}
		return Result{}, err
	}
	r.count(false, false)
	return res, nil
}

// leaderRead places the read on the current leader under its read
// lease; if no lease read lands, it demotes to the linearizable slow
// path — a sync barrier through the broadcast, then a voter read.
func (r *ReadRouter) leaderRead(ctx context.Context, op Op) (Result, error) {
	leased := op
	leased.Lease = true
	for attempt := 0; attempt < 2; attempt++ {
		ep := r.leaderEndpoint()
		if ep == nil {
			r.probeAll()
			continue
		}
		sess, err := ep.session(r.cfg.Net)
		if err != nil {
			ep.record(false, false, 0, 0)
			continue
		}
		actx, cancel := context.WithTimeout(ctx, attemptTimeout)
		res, err := sess.Do(actx, leased)
		cancel()
		switch {
		case err == nil:
			r.count(false, true)
			return res, nil
		case errors.Is(err, ErrNoLease):
			// Leadership (or just the lease) moved; re-probe and retry
			// once before paying for the barrier.
			r.probeAll()
		case ctx.Err() != nil:
			return Result{}, err
		case isReplicaRefusal(err):
			return Result{}, err
		default:
			ep.record(false, false, 0, 0)
		}
	}
	if c := r.cfg.Counters; c != nil {
		c.Fallback.Add(1)
	}
	if err := r.Session.SyncCtx(ctx); err != nil {
		return Result{}, err
	}
	res, err := r.Session.Do(ctx, op)
	if err != nil {
		return Result{}, err
	}
	r.count(false, false)
	return res, nil
}

func (r *ReadRouter) leaderEndpoint() *endpoint {
	for _, ep := range r.endpoints {
		if ep.observer {
			continue
		}
		if _, healthy, leader, _, _ := ep.snapshot(); healthy && leader {
			return ep
		}
	}
	return nil
}

func (r *ReadRouter) count(observer, leased bool) {
	c := r.cfg.Counters
	if c == nil {
		return
	}
	switch {
	case leased:
		c.Leader.Add(1)
	case observer:
		c.Observer.Add(1)
	default:
		c.Voter.Add(1)
	}
}

// isReplicaRefusal distinguishes an answered read (the replica spoke:
// the node doesn't exist, the path is bad...) from a routing failure
// (the replica is unreachable or refused to answer at all). Only the
// latter should try another replica — every replica serves the same
// committed tree, so a definite answer would simply repeat.
func isReplicaRefusal(err error) bool {
	switch {
	case errors.Is(err, ErrNoNode),
		errors.Is(err, ErrNodeExists),
		errors.Is(err, ErrNotEmpty),
		errors.Is(err, ErrBadVersion),
		errors.Is(err, ErrBadPath),
		errors.Is(err, ErrNoParent):
		return true
	}
	return false
}

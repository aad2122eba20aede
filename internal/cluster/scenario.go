package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/migrate"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// This file is the chaos scenario matrix: declarative fault schedules
// that run WHILE an open-loop load generator holds the offered rate
// fixed, so a fault's cost shows up where it belongs — in tail latency
// and error counts under load — instead of being averaged away by a
// closed loop that politely stops offering work when the service
// stalls. Every scenario ends with the same two hard questions: did
// the tail stay inside the SLO, and does every acknowledged write
// still exist?

// FaultKind names one class of injected failure.
type FaultKind string

// The fault classes the matrix composes.
const (
	// FaultSlowDisk delays fsync on one voter's store.
	FaultSlowDisk FaultKind = "slow-disk"
	// FaultPartition blocks every message TO one voter while its own
	// outbound traffic still flows — the asymmetric "can talk, can't
	// be talked to" split.
	FaultPartition FaultKind = "partition"
	// FaultLeaderKill stops the current leader, then restarts it after
	// Duration.
	FaultLeaderKill FaultKind = "leader-kill"
	// FaultLeaderFlap repeatedly kills whoever leads, every Interval,
	// for Duration — the pathological election churn case.
	FaultLeaderFlap FaultKind = "leader-flap"
	// FaultRestartAll cold-restarts every coordination member on its
	// store mid-load.
	FaultRestartAll FaultKind = "restart-all"
	// FaultMigrate live-migrates one working directory's hash range to
	// another coordination shard while the load runs: fence, fuzzy
	// ship, delta replay, ownership flip, placement-epoch bump. The
	// load's routers discover the move purely through moved-partition
	// redirects. Requires Shards >= 2; Path names the directory whose
	// children move; the destination is the next shard after the
	// current owner.
	FaultMigrate FaultKind = "migrate"
	// FaultObserverPartition cuts one observer replica off mid-load:
	// its client address is blocked (readers can't reach it) and so is
	// its peer address (the leader's log stream can't). Victim is the
	// 0-based observer index. Reads routed observer-first must fail
	// over to the voters inside the SLO; after the heal the observer
	// catches back up — through a snapshot install when the leader has
	// truncated past its tail (the scenario shrinks MaxLogEntries to
	// force exactly that).
	FaultObserverPartition FaultKind = "observer-partition"
)

// Victim selectors for Fault.Victim (non-negative = explicit member
// index, resolved when the fault fires).
const (
	VictimLeader   = -1
	VictimFollower = -2
)

// Fault is one scheduled failure inside a scenario.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// At is the fault's start, as an offset into the load window.
	At time.Duration `json:"at"`
	// Duration is how long the fault stays active before it is healed
	// (ignored by restart-all, which is instantaneous).
	Duration time.Duration `json:"duration,omitempty"`
	// Victim picks the member (VictimLeader / VictimFollower / index).
	Victim int `json:"victim"`
	// Delay is the injected fsync latency (slow-disk only).
	Delay time.Duration `json:"delay,omitempty"`
	// Interval is the kill cadence (leader-flap only).
	Interval time.Duration `json:"interval,omitempty"`
	// Shard selects the coordination shard (default 0).
	Shard int `json:"shard,omitempty"`
	// Path names the directory whose hash range migrates (migrate only).
	Path string `json:"path,omitempty"`
}

// SLO bounds a scenario's outcome. Zero fields are not checked —
// except acked-write loss, which is always a violation.
type SLO struct {
	// MaxP99 bounds overall operation latency at the 99th percentile.
	MaxP99 time.Duration `json:"max_p99,omitempty"`
	// MaxErrorFrac bounds (errors+timeouts)/submitted.
	MaxErrorFrac float64 `json:"max_error_frac,omitempty"`
	// MinAchievedFrac bounds achieved/offered throughput from below.
	MinAchievedFrac float64 `json:"min_achieved_frac,omitempty"`
}

// Scenario is one cell of the matrix: a load shape, a fault schedule
// and the bounds the run must stay inside.
type Scenario struct {
	Name         string         `json:"name"`
	Load         loadgen.Config `json:"-"`
	Faults       []Fault        `json:"faults"`
	SLO          SLO            `json:"slo"`
	CoordMembers int            `json:"coord_members,omitempty"` // default 3
	Sessions     int            `json:"sessions,omitempty"`      // default 2
	// Shards sizes the sharded coordination tier (default 1). Sessions
	// become routers when Shards > 1, so migrations exercise the full
	// redirect-chase path.
	Shards int `json:"shards,omitempty"`
	// Observers sizes the non-voting observer tier (default 0).
	Observers int `json:"observers,omitempty"`
	// ReadFrom, when non-empty, places the load's reads ("leader" /
	// "observer" / "any", see Cluster.ConnectCoord) instead of on the
	// i-th voter.
	ReadFrom string `json:"read_from,omitempty"`
	// MaxLogEntries shrinks the members' in-memory log bound so a
	// stalled replica falls behind the truncation horizon and must
	// catch up by snapshot (0 = default bound).
	MaxLogEntries int `json:"max_log_entries,omitempty"`
}

// ScenarioResult is the machine-readable outcome of one scenario run.
type ScenarioResult struct {
	Scenario     string         `json:"scenario"`
	Scale        float64        `json:"scale"`
	Faults       []string       `json:"fault_log"`
	Load         loadgen.Result `json:"load"`
	AckedChecked int            `json:"acked_checked"`
	MissingAcked int            `json:"missing_acked"`
	Violations   []string       `json:"violations,omitempty"`
	// Migration carries the migration metrics of a resharding run
	// (placement epoch, fence window, delta size, bytes shipped).
	Migration map[string]float64 `json:"migration,omitempty"`
	// Apply carries the leader's apply-pipeline health gauges sampled
	// after the run (commit→apply lag, queue depth, busy workers) —
	// the post-run residue should be zero on a drained pipeline.
	Apply map[string]float64 `json:"apply,omitempty"`
}

// OK reports whether the run stayed inside its SLO with zero acked loss.
func (r *ScenarioResult) OK() bool { return len(r.Violations) == 0 }

func scaleDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// sleepUntil waits for a wall-clock instant, returning early on ctx
// cancellation.
func sleepUntil(ctx context.Context, at time.Time) {
	d := time.Until(at)
	if d <= 0 {
		return
	}
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// Matrix returns the builtin scenario set at smoke scale: each cell
// holds ~2s of load, so the whole matrix stays test-suite friendly.
// RunScenario's scale parameter stretches every duration for the full
// (long) tier.
func Matrix() []Scenario {
	base := func(name string, seed int64) loadgen.Config {
		return loadgen.Config{
			Name:       name,
			Rate:       250,
			Arrival:    loadgen.Poisson,
			Duration:   2 * time.Second,
			Dirs:       4,
			Keys:       16,
			OpTimeout:  4 * time.Second,
			Seed:       seed,
			TrackAcked: true,
		}
	}
	return []Scenario{
		{
			Name: "steady-state",
			Load: base("steady-state", 1),
			SLO:  SLO{MaxP99: 250 * time.Millisecond, MaxErrorFrac: 0.001, MinAchievedFrac: 0.85},
		},
		{
			Name:   "slow-disk-follower",
			Load:   base("slow-disk-follower", 2),
			Faults: []Fault{{Kind: FaultSlowDisk, At: 400 * time.Millisecond, Duration: time.Second, Victim: VictimFollower, Delay: 15 * time.Millisecond}},
			// Quorum = leader + the healthy follower, so the tail should
			// barely move; this cell is the decentralization dividend.
			SLO: SLO{MaxP99: 400 * time.Millisecond, MaxErrorFrac: 0.01, MinAchievedFrac: 0.7},
		},
		{
			Name:   "slow-disk-leader",
			Load:   base("slow-disk-leader", 3),
			Faults: []Fault{{Kind: FaultSlowDisk, At: 400 * time.Millisecond, Duration: time.Second, Victim: VictimLeader, Delay: 4 * time.Millisecond}},
			// Every commit pays the leader's fsync, but group commit
			// amortizes one sync across a whole propose window.
			SLO: SLO{MaxP99: 800 * time.Millisecond, MaxErrorFrac: 0.01, MinAchievedFrac: 0.6},
		},
		{
			Name:   "partition-follower",
			Load:   base("partition-follower", 4),
			Faults: []Fault{{Kind: FaultPartition, At: 500 * time.Millisecond, Duration: 800 * time.Millisecond, Victim: VictimFollower}},
			// The isolated follower hears nothing, so its election timer
			// fires and its (outbound-only) campaign deposes the leader
			// once; after the re-elected leader's epoch barrier commits,
			// later campaigns lose the log-recency check and the
			// ensemble stays stable. One short disturbance, then quorum
			// carries on without the victim.
			SLO: SLO{MaxP99: 800 * time.Millisecond, MaxErrorFrac: 0.05, MinAchievedFrac: 0.6},
		},
		{
			Name:   "partition-leader",
			Load:   base("partition-leader", 8),
			Faults: []Fault{{Kind: FaultPartition, At: 600 * time.Millisecond, Duration: 700 * time.Millisecond, Victim: VictimLeader}},
			// The nastiest asymmetric case, pinned deliberately: the
			// leader's outbound traffic still flows, so followers keep
			// hearing heartbeats and never call an election — but no
			// client request can reach the leader until the partition
			// heals. Writes stall for the whole
			// fault window (ZooKeeper has the same exposure; resolving
			// it needs inbound-reachability self-checks on the leader).
			SLO: SLO{MaxP99: 2 * time.Second, MaxErrorFrac: 0.3, MinAchievedFrac: 0.35},
		},
		{
			Name:   "leader-kill",
			Load:   base("leader-kill", 5),
			Faults: []Fault{{Kind: FaultLeaderKill, At: 600 * time.Millisecond, Duration: 600 * time.Millisecond, Victim: VictimLeader}},
			SLO:    SLO{MaxP99: 2 * time.Second, MaxErrorFrac: 0.25, MinAchievedFrac: 0.4},
		},
		{
			Name:   "leader-flap",
			Load:   base("leader-flap", 6),
			Faults: []Fault{{Kind: FaultLeaderFlap, At: 300 * time.Millisecond, Duration: 1200 * time.Millisecond, Interval: 400 * time.Millisecond}},
			SLO:    SLO{MaxP99: 3 * time.Second, MaxErrorFrac: 0.5, MinAchievedFrac: 0.2},
		},
		{
			Name:   "restart-all",
			Load:   base("restart-all", 7),
			Faults: []Fault{{Kind: FaultRestartAll, At: 800 * time.Millisecond}},
			SLO:    SLO{MaxP99: 3 * time.Second, MaxErrorFrac: 0.5, MinAchievedFrac: 0.2},
		},
		{
			Name:   "resharding",
			Load:   base("resharding", 10),
			Shards: 2,
			// Two live migrations mid-load: each moves one working
			// directory's hash range to the other shard while the open
			// loop keeps the offered rate fixed. Writes into a fenced
			// range retry behind the router's chase; once the flip
			// commits, the moved-partition redirect re-homes them. The
			// SLO tail is generous (a fenced write waits out the delta
			// ship) but acked-write loss stays fatal — the migration
			// invariant under test.
			Faults: []Fault{
				{Kind: FaultMigrate, At: 600 * time.Millisecond, Path: "/lg/d0"},
				{Kind: FaultMigrate, At: 1200 * time.Millisecond, Path: "/lg/d1"},
			},
			SLO: SLO{MaxP99: time.Second, MaxErrorFrac: 0.01, MinAchievedFrac: 0.7},
		},
		{
			Name:      "observer-partition",
			Load:      base("observer-partition", 9),
			Observers: 2,
			ReadFrom:  "observer",
			// A tight log bound so the stalled observer falls behind the
			// truncation horizon and must rejoin by snapshot install.
			MaxLogEntries: 8,
			Faults:        []Fault{{Kind: FaultObserverPartition, At: 500 * time.Millisecond, Duration: 900 * time.Millisecond, Victim: 0}},
			// The session homed on the victim loses its connection at
			// once and moves to the next address of its observer-first
			// list — the other observer — where it stays; the sessions
			// write to the leader directly, so the write path must not
			// feel the fault.
			SLO: SLO{MaxP99: 800 * time.Millisecond, MaxErrorFrac: 0.05, MinAchievedFrac: 0.7},
		},
	}
}

// FindScenario returns the builtin scenario with the given name.
func FindScenario(name string) (Scenario, bool) {
	for _, sc := range Matrix() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// RunScenario boots a dedicated cluster, drives the scenario's load
// through real coordination sessions while the fault schedule runs,
// heals everything, verifies every acknowledged write still exists and
// grades the result against the SLO. scale (<=0 → 1) stretches the
// load window and every fault time: the smoke tier runs at 1, the long
// tier at 3-5.
func RunScenario(ctx context.Context, sc Scenario, scale float64) (*ScenarioResult, error) {
	if scale <= 0 {
		scale = 1
	}
	if sc.CoordMembers <= 0 {
		sc.CoordMembers = 3
	}
	if sc.Sessions <= 0 {
		sc.Sessions = 2
	}
	if sc.Shards <= 0 {
		sc.Shards = 1
	}
	load := sc.Load
	load.Duration = scaleDur(load.Duration, scale)

	fnet := transport.NewFaults(transport.NewInProc())
	chaos := NewDiskChaos()
	ccfg := Config{
		Name:               "chaos-" + sc.Name,
		Net:                fnet,
		CoordServers:       sc.CoordMembers,
		CoordShards:        sc.Shards,
		CoordObservers:     sc.Observers,
		CoordMaxLogEntries: sc.MaxLogEntries,
		Backends:           1,
		Kind:               MemFS,
		HeartbeatInterval:  10 * time.Millisecond,
		ElectionTimeout:    80 * time.Millisecond,
		CoordWrapStorage:   chaos.Wrap,
	}
	cl, err := Start(ccfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	defer cl.Stop()
	for s, ens := range cl.Ensembles {
		if err := ens.WaitLeader(5 * time.Second); err != nil {
			return nil, fmt.Errorf("scenario %s: shard %d: no leader: %w", sc.Name, s, err)
		}
	}

	// A migration fault needs a coordinator over one voter session per
	// shard, plus a registry the result surfaces migration metrics from.
	var migCo *migrate.Coordinator
	var migReg *metrics.Registry
	for _, f := range sc.Faults {
		if f.Kind != FaultMigrate {
			continue
		}
		if sc.Shards < 2 {
			return nil, fmt.Errorf("scenario %s: migrate fault needs Shards >= 2", sc.Name)
		}
		sessions := make([]*coord.Session, sc.Shards)
		for s := range sessions {
			sess, err := cl.Ensembles[s].Connect(-1)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: migration session %d: %w", sc.Name, s, err)
			}
			defer sess.Close()
			sessions[s] = sess
		}
		migReg = metrics.NewRegistry()
		migCo, err = migrate.New(migrate.Config{Sessions: sessions, Registry: migReg})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		break
	}

	prep, err := cl.ConnectCoord("", -1)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	defer prep.Close()
	if err := loadgen.Prepare(ctx, prep, load); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	var targets []loadgen.Target
	var orders []*sessionOrder
	for i := 0; i < sc.Sessions; i++ {
		s, err := cl.ConnectCoord(sc.ReadFrom, i)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: session %d: %w", sc.Name, i, err)
		}
		defer s.Close()
		order := &sessionOrder{Doer: s, name: fmt.Sprintf("session %d", i), seen: map[string]int32{}}
		orders = append(orders, order)
		targets = append(targets, loadgen.NewClientTarget(coord.Wrap(order)))
	}

	res := &ScenarioResult{Scenario: sc.Name, Scale: scale}
	var fmu sync.Mutex   // serializes ensemble surgery across faults
	var logMu sync.Mutex // guards the fault log (logf is called under fmu)
	start := time.Now()
	logf := func(format string, a ...any) {
		logMu.Lock()
		res.Faults = append(res.Faults, fmt.Sprintf("%8v %s", time.Since(start).Round(time.Millisecond), fmt.Sprintf(format, a...)))
		logMu.Unlock()
	}
	var fwg sync.WaitGroup
	for _, f := range sc.Faults {
		f := f
		f.At = scaleDur(f.At, scale)
		f.Duration = scaleDur(f.Duration, scale)
		f.Interval = scaleDur(f.Interval, scale)
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			runFault(ctx, cl, fnet, chaos, migCo, &fmu, f, start, logf)
		}()
	}

	readSplit := cl.ReadSplit()
	result, err := loadgen.Run(ctx, load, targets)
	fwg.Wait()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	// Belt and braces: every fault heals itself, but make sure nothing
	// is left injected before the verification pass.
	chaos.Clear()
	fnet.Clear()
	for s, ens := range cl.Ensembles {
		if err := ens.WaitLeader(5 * time.Second); err != nil {
			return nil, fmt.Errorf("scenario %s: shard %d: no leader after faults: %w", sc.Name, s, err)
		}
	}
	res.Load = *result
	res.Load.ReadFrom, res.Load.ReadSplit = sc.ReadFrom, readSplit()
	for _, order := range orders {
		res.Violations = append(res.Violations, order.violations...)
	}
	if migReg != nil {
		res.Migration = map[string]float64{
			"migrations":          float64(migReg.Distribution("migrate.delta_txns").Count()),
			"placement_epoch":     float64(migReg.Gauge("placement.epoch").Value()),
			"fence_ms_mean":       float64(migReg.Histogram("migrate.fence_duration").Mean()) / float64(time.Millisecond),
			"fence_ms_max":        float64(migReg.Histogram("migrate.fence_duration").Max()) / float64(time.Millisecond),
			"delta_txns_total":    float64(migReg.Distribution("migrate.delta_txns").Sum()),
			"bytes_shipped_total": float64(migReg.Distribution("migrate.bytes_shipped").Sum()),
		}
	}
	if ld := cl.Ensemble.Leader(); ld != nil {
		reg := ld.Metrics()
		res.Apply = map[string]float64{
			"lag_txns":     float64(reg.Gauge("zab.apply.lag").Value()),
			"queue_frames": float64(reg.Gauge("zab.apply.queue_depth").Value()),
		}
	}

	// Every observer must converge back onto the leader's commit
	// horizon after the heal — by streamed frames if its tail survived
	// truncation, by snapshot install otherwise.
	for idx := 0; idx < sc.Observers; idx++ {
		obs := cl.Observer(0, idx)
		if obs == nil {
			res.Violations = append(res.Violations, fmt.Sprintf("observer %d not running after heal", idx))
			continue
		}
		target := cl.Ensemble.Leader().CommitZxid()
		deadline := time.Now().Add(5 * time.Second)
		for obs.LastApplied() < target && time.Now().Before(deadline) && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		if got := obs.LastApplied(); got < target {
			res.Violations = append(res.Violations, fmt.Sprintf("observer %d stuck at zxid %x, leader committed %x", idx, got, target))
		}
		logf("observer %d caught up to %x (snapshot installs: %d)", idx, obs.LastApplied(), obs.Metrics().Counter("zab.snapshot_installs").Value())
	}

	vs, err := cl.ConnectCoord("", -1)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: verify session: %w", sc.Name, err)
	}
	defer vs.Close()
	missing, err := loadgen.VerifyAcked(ctx, vs, result.AckedPaths)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: verify: %w", sc.Name, err)
	}
	res.AckedChecked = len(result.AckedPaths)
	res.MissingAcked = len(missing)

	// Grade. Acked-write loss and a write proposed by a member that did
	// not lead are always fatal; the rest follow the SLO.
	if res.MissingAcked > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d of %d acknowledged writes lost (first: %s)", res.MissingAcked, res.AckedChecked, missing[0]))
	}
	if n := cl.StrayWrites(); n > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d writes proposed by members that never led", n))
	}
	if sc.SLO.MaxP99 > 0 {
		if p99 := result.Latency.P99(); p99 > scaleDur(sc.SLO.MaxP99, scale) {
			res.Violations = append(res.Violations, fmt.Sprintf("p99 %v > SLO %v", p99, scaleDur(sc.SLO.MaxP99, scale)))
		}
	}
	if sc.SLO.MaxErrorFrac > 0 && result.Submitted > 0 {
		if frac := float64(result.Errors+result.Timeouts) / float64(result.Submitted); frac > sc.SLO.MaxErrorFrac {
			res.Violations = append(res.Violations, fmt.Sprintf("error fraction %.4f > SLO %.4f (%d err, %d timeout / %d)", frac, sc.SLO.MaxErrorFrac, result.Errors, result.Timeouts, result.Submitted))
		}
	}
	if sc.SLO.MinAchievedFrac > 0 && result.RateOps > 0 {
		if frac := result.AchievedOps / result.RateOps; frac < sc.SLO.MinAchievedFrac {
			res.Violations = append(res.Violations, fmt.Sprintf("achieved %.0f/s is %.2f of offered %.0f/s, SLO floor %.2f", result.AchievedOps, frac, result.RateOps, sc.SLO.MinAchievedFrac))
		}
	}
	return res, nil
}

// sessionOrder is a Do decorator that checks the session contract while
// the load runs, whichever replica answers and whatever fault is on: a
// path the session created is visible to its own next stat, and no znode
// is read at a lower version than an operation that had completed before
// the read began saw it at (concurrent operations are unordered).
type sessionOrder struct {
	coord.Doer
	name string

	mu         sync.Mutex
	seen       map[string]int32 // the highest version a completed operation saw, per path
	violations []string
}

func (o *sessionOrder) Do(ctx context.Context, op coord.Op) (coord.Result, error) {
	o.mu.Lock()
	floor := o.seen[op.Path]
	o.mu.Unlock()
	res, err := o.Doer.Do(ctx, op)
	if err != nil {
		return res, err
	}
	var breach string
	switch {
	case op.Kind == coord.OpCreate:
		if st, err := o.Doer.Do(ctx, coord.Op{Kind: coord.OpExists, Path: res.Created}); err == nil && !st.Exists {
			breach = fmt.Sprintf("%s: created %s, and its next stat does not see it", o.name, res.Created)
		}
	case op.Kind == coord.OpSet, op.Kind == coord.OpGet, op.Kind == coord.OpExists && res.Exists:
		if res.Stat.Version < floor {
			breach = fmt.Sprintf("%s: read %s at version %d after having seen version %d", o.name, op.Path, res.Stat.Version, floor)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seen[op.Path] = max(o.seen[op.Path], res.Stat.Version) // zero from the kinds that return no stat
	if breach != "" {
		o.violations = append(o.violations, breach)
	}
	return res, nil
}

// waitLeaderIndex polls for an elected leader on shard s.
func waitLeaderIndex(ctx context.Context, cl *Cluster, s int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if i := cl.LeaderIndex(s); i >= 0 {
			return i
		}
		time.Sleep(5 * time.Millisecond)
	}
	return -1
}

// resolveVictim turns a Victim selector into a member index.
func resolveVictim(ctx context.Context, cl *Cluster, shard, v int) int {
	if v >= 0 {
		return v
	}
	l := waitLeaderIndex(ctx, cl, shard, 5*time.Second)
	if l < 0 {
		return 0
	}
	if v == VictimLeader {
		return l
	}
	return (l + 1) % len(cl.Ensembles[shard].Servers)
}

// runFault applies one fault at its scheduled time and heals it after
// its duration. Ensemble surgery is serialized on mu so overlapping
// faults cannot race StopServer/StartServer.
func runFault(ctx context.Context, cl *Cluster, fnet *transport.Faults, chaos *DiskChaos, migCo *migrate.Coordinator, mu *sync.Mutex, f Fault, start time.Time, logf func(string, ...any)) {
	sleepUntil(ctx, start.Add(f.At))
	if ctx.Err() != nil {
		return
	}
	ens := cl.Ensembles[f.Shard]
	switch f.Kind {
	case FaultMigrate:
		if migCo == nil {
			logf("migrate: no coordinator wired, fault skipped")
			return
		}
		rng := migrate.RangeForDir(f.Path)
		src, err := migCo.Owner(ctx, rng)
		if err != nil {
			logf("migrate: %s owner lookup FAILED: %v", f.Path, err)
			return
		}
		dest := (src + 1) % len(cl.Ensembles)
		logf("migrate: moving %s (range %v) shard %d -> %d", f.Path, rng, src, dest)
		rep, err := migCo.Migrate(ctx, rng, dest)
		if err != nil {
			logf("migrate: %s FAILED: %v", f.Path, err)
			return
		}
		logf("migrate: %s done: epoch %d, fence %v, %d pre-copied, %d delta txns, %d bytes",
			f.Path, rep.Epoch, rep.FenceDuration.Round(time.Microsecond), rep.PrecopyN, rep.DeltaTxns, rep.BytesShipped)
	case FaultSlowDisk:
		id := resolveVictim(ctx, cl, f.Shard, f.Victim)
		chaos.SetDelay(f.Shard, id, f.Delay)
		logf("slow-disk: member %d fsync +%v", id, f.Delay)
		sleepUntil(ctx, start.Add(f.At+f.Duration))
		chaos.SetDelay(f.Shard, id, 0)
		logf("slow-disk: member %d healed", id)
	case FaultPartition:
		id := resolveVictim(ctx, cl, f.Shard, f.Victim)
		peer, client := cl.CoordAddrs(f.Shard, id)
		fnet.Block(peer, client)
		logf("partition: member %d unreachable (%s, %s)", id, peer, client)
		sleepUntil(ctx, start.Add(f.At+f.Duration))
		fnet.Unblock(peer, client)
		logf("partition: member %d healed", id)
	case FaultLeaderKill:
		id := resolveVictim(ctx, cl, f.Shard, f.Victim)
		mu.Lock()
		ens.StopServer(id)
		mu.Unlock()
		logf("leader-kill: stopped member %d", id)
		sleepUntil(ctx, start.Add(f.At+f.Duration))
		mu.Lock()
		err := ens.StartServer(id)
		mu.Unlock()
		if err != nil {
			logf("leader-kill: restart of member %d FAILED: %v", id, err)
		} else {
			logf("leader-kill: member %d restarted", id)
		}
	case FaultLeaderFlap:
		deadline := start.Add(f.At + f.Duration)
		down := -1
		for time.Now().Before(deadline) && ctx.Err() == nil {
			mu.Lock()
			if down >= 0 {
				if err := ens.StartServer(down); err != nil {
					logf("leader-flap: restart of member %d FAILED: %v", down, err)
				}
				down = -1
			}
			mu.Unlock()
			id := waitLeaderIndex(ctx, cl, f.Shard, time.Second)
			if id < 0 {
				break
			}
			mu.Lock()
			ens.StopServer(id)
			down = id
			mu.Unlock()
			logf("leader-flap: killed leader %d", id)
			sleepUntil(ctx, time.Now().Add(f.Interval))
		}
		mu.Lock()
		if down >= 0 {
			if err := ens.StartServer(down); err != nil {
				logf("leader-flap: final restart of member %d FAILED: %v", down, err)
			} else {
				logf("leader-flap: member %d restarted, flapping over", down)
			}
		}
		mu.Unlock()
	case FaultObserverPartition:
		idx := f.Victim
		if idx < 0 {
			idx = 0
		}
		// Readers can't reach it and neither can the leader's log stream:
		// the observer is dark on both planes.
		addrs := []string{cl.ObserverAddr(f.Shard, idx), cl.observerPeerAddr(f.Shard, idx)}
		fnet.Block(addrs...)
		logf("observer-partition: observer %d dark (%v)", idx, addrs)
		sleepUntil(ctx, start.Add(f.At+f.Duration))
		fnet.Unblock(addrs...)
		logf("observer-partition: observer %d healed", idx)
	case FaultRestartAll:
		mu.Lock()
		err := cl.RestartCoord()
		mu.Unlock()
		if err != nil {
			logf("restart-all FAILED: %v", err)
		} else {
			logf("restart-all: every member cold-restarted on its store")
		}
	default:
		logf("unknown fault kind %q ignored", f.Kind)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The schedule test drives three voter cores the way zab.Node hosts them,
// with no goroutine, socket or clock: one seeded schedule owns time,
// delivery order, drops, failed saves, crash/restart on the retained
// hard state and, on some seeds, a cold restart of the whole ensemble,
// and the invariants are checked at every step.

const (
	schedBeat    = 10 * time.Millisecond
	schedTimeout = 4 * schedBeat
	schedVoters  = 3
)

type msgKind uint8

const (
	voteReq msgKind = iota
	voteResp
	beatReq
	beatResp
)

// msg is one message in flight. epoch is the sender's: a request's, or
// the epoch an answer was given under; round names a heartbeat round by
// its stamp and the epoch it was sent under.
type msg struct {
	kind       msgKind
	from, to   uint64
	epoch      uint64
	granted    bool
	tip        uint64 // a vote request's candidate log, a heartbeat's leader log
	reqEpoch   uint64 // the vote request a vote answers
	round      time.Time
	roundEpoch uint64
}

// member is one voter: its core while it runs, and what survives a
// crash — the saved hard state and the log tip.
type member struct {
	id        uint64
	c         Election
	up        bool
	epoch     uint64 // saved hard state
	granted   uint64
	tip       uint64 // the log, reduced to its tip
	commit    uint64
	restarted time.Time // the restart of a member that was not fresh; zero otherwise
	// valid holds, while it leads, each voter's newest round acked under
	// the round's epoch: what may fund a round.
	valid map[uint64]time.Time
}

type schedule struct {
	rng     *rand.Rand
	now     time.Time
	cfg     Config
	m       []*member
	queue   []msg
	step    int
	leaders map[uint64]uint64 // epoch -> the member elected in it
	// coldAt is the step at which every member crashes, one restarts at
	// once and the others a step later (0: none); coldEnd is the last of
	// those restarts.
	coldAt  int
	coldEnd time.Time
	stats   tally
}

// tally is what the schedules exercised: coldLed counts the cold restarts
// led within ElectionTimeout + 2×HeartbeatInterval of their last restart.
type tally struct {
	elections, funded, grants, failedSaves, crashes, colds, coldLed int
}

func (t *tally) add(o tally) {
	t.elections += o.elections
	t.funded += o.funded
	t.grants += o.grants
	t.failedSaves += o.failedSaves
	t.crashes += o.crashes
	t.colds += o.colds
	t.coldLed += o.coldLed
}

// newSchedule builds seed's schedule; with cold set, it crashes the whole
// ensemble at a seeded step.
func newSchedule(seed int64, cold bool) *schedule {
	s := &schedule{
		rng:     rand.New(rand.NewSource(seed)),
		now:     time.Unix(1_000_000, 0),
		leaders: map[uint64]uint64{},
		cfg:     Config{Voters: map[uint64]string{}, HeartbeatInterval: schedBeat, ElectionTimeout: schedTimeout},
	}
	for id := uint64(1); id <= schedVoters; id++ {
		s.cfg.Voters[id] = fmt.Sprint(id)
	}
	for id := uint64(1); id <= schedVoters; id++ {
		s.m = append(s.m, &member{id: id})
	}
	if cold {
		s.coldAt = 50 + s.rng.Intn(300)
	}
	return s
}

// start builds a member's core from what it retained, as NewNode does,
// and ticks it at once, as Start does.
func (s *schedule) start(mb *member) error {
	cfg := s.cfg
	cfg.ID = mb.id
	mb.c, mb.up, mb.valid = New(cfg, mb.epoch, mb.granted, mb.tip, s.now), true, nil
	mb.restarted = time.Time{}
	if mb.epoch != 0 || mb.granted != 0 || mb.tip != 0 {
		mb.restarted = s.now
	}
	prev := mb.c
	_, err := s.apply(mb, prev, mb.c.Tick(s.now, mb.tip, mb.commit))
	return err
}

// coldRestart crashes every member at coldAt and restarts them in a
// seeded order: the first at once, the others one step later. Nothing in
// flight survives: every connection died with its process.
func (s *schedule) coldRestart() error {
	var order []int
	switch {
	case s.coldAt == 0:
	case s.step == s.coldAt:
		for _, mb := range s.m {
			if mb.up {
				mb.up = false
				s.stats.crashes++
			}
		}
		s.queue = s.queue[:0]
		s.stats.colds++
		order = s.rng.Perm(len(s.m))[:1]
	case s.step == s.coldAt+1:
		for i, mb := range s.m {
			if !mb.up {
				order = append(order, i)
			}
		}
		s.coldEnd = s.now
	}
	for _, i := range order {
		if err := s.start(s.m[i]); err != nil {
			return err
		}
	}
	return nil
}

// apply carries out one step of mb's core, as zab.Node.stepLocked does:
// the save first (it may fail, and then the step is undone and asks
// nothing), then the messages, checking the invariants on the way.
func (s *schedule) apply(mb *member, prev Election, rd Ready) (bool, error) {
	if rd.Campaign && !mb.restarted.IsZero() && s.now.Sub(mb.restarted) < schedTimeout {
		return true, fmt.Errorf("member %d campaigns for epoch %d %v after its restart", mb.id, mb.c.Epoch(), s.now.Sub(mb.restarted))
	}
	if rd.Save {
		if s.rng.Intn(20) == 0 {
			mb.c = prev
			s.stats.failedSaves++
			return false, nil
		}
		mb.epoch, mb.granted = mb.c.Epoch(), mb.c.Granted()
	}
	if rd.Elected {
		epoch := mb.c.Epoch()
		if other, ok := s.leaders[epoch]; ok {
			return true, fmt.Errorf("member %d elected in epoch %d, which member %d leads", mb.id, epoch, other)
		}
		s.leaders[epoch] = mb.id
		s.stats.elections++
		if !s.coldEnd.IsZero() && s.now.Sub(s.coldEnd) <= schedTimeout+2*schedBeat {
			s.stats.coldLed++
		}
		s.coldEnd = time.Time{}
		mb.tip, mb.valid = epoch<<32|1, map[uint64]time.Time{} // the epoch's barrier
	}
	if rd.Campaign {
		if mb.granted < mb.c.Epoch() {
			return true, fmt.Errorf("member %d asks for votes in epoch %d with only %d saved", mb.id, mb.c.Epoch(), mb.granted)
		}
		s.sendAll(mb, msg{kind: voteReq, epoch: mb.c.Epoch(), tip: mb.tip})
	}
	if !rd.Round.IsZero() {
		s.sendAll(mb, msg{kind: beatReq, epoch: mb.c.Epoch(), tip: mb.tip, round: rd.Round, roundEpoch: mb.c.Epoch()})
	}
	if !rd.Funded.IsZero() {
		s.stats.funded++
		n := 1
		for _, t := range mb.valid {
			if !t.Before(rd.Funded) {
				n++
			}
		}
		if n < schedVoters/2+1 {
			return true, fmt.Errorf("member %d funded the round of %v in epoch %d on %d acks under it", mb.id, rd.Funded, mb.c.Epoch(), n)
		}
	}
	return true, nil
}

func (s *schedule) sendAll(from *member, m msg) {
	for _, to := range s.m {
		if to != from {
			m.from, m.to = from.id, to.id
			s.queue = append(s.queue, m)
		}
	}
}

// reply queues an answer, checking that what it shows is saved first.
func (s *schedule) reply(mb *member, m msg) error {
	switch {
	case m.kind == voteResp && m.granted && mb.granted < m.epoch:
		return fmt.Errorf("member %d grants epoch %d with %d saved", mb.id, m.epoch, mb.granted)
	case m.kind == voteResp && m.granted && !mb.restarted.IsZero() && s.now.Sub(mb.restarted) < schedTimeout:
		return fmt.Errorf("member %d grants epoch %d %v after its restart", mb.id, m.epoch, s.now.Sub(mb.restarted))
	case m.kind == beatResp && mb.epoch < m.epoch:
		return fmt.Errorf("member %d answers under epoch %d with %d saved", mb.id, m.epoch, mb.epoch)
	}
	if m.granted {
		s.stats.grants++
	}
	s.queue = append(s.queue, m)
	return nil
}

// deliver hands m to its addressee as zab.Node's handlers and reply
// callbacks do.
func (s *schedule) deliver(m msg) error {
	mb := s.m[m.to-1]
	if !mb.up {
		return nil
	}
	prev := mb.c
	switch m.kind {
	case voteReq:
		rd := mb.c.Vote(s.now, m.epoch, m.from, m.tip, mb.tip)
		ok, err := s.apply(mb, prev, rd)
		if err != nil {
			return err
		}
		return s.reply(mb, msg{kind: voteResp, from: mb.id, to: m.from, epoch: mb.c.Epoch(), granted: ok && rd.Granted, reqEpoch: m.epoch})
	case voteResp:
		_, err := s.apply(mb, prev, mb.c.VoteReply(s.now, m.from, m.reqEpoch, m.granted, m.epoch))
		return err
	case beatReq:
		rd := mb.c.Heard(s.now, m.epoch, m.from)
		ok, err := s.apply(mb, prev, rd)
		if err != nil {
			return err
		}
		if ok && rd.Follow {
			mb.tip = m.tip // the stream, reduced: the follower's log is the leader's
		}
		return s.reply(mb, msg{kind: beatResp, from: mb.id, to: m.from, epoch: mb.c.Epoch(), round: m.round, roundEpoch: m.roundEpoch})
	default:
		if mb.c.Role() == Leader && m.epoch == m.roundEpoch && m.roundEpoch == mb.c.Epoch() && m.round.After(mb.valid[m.from]) {
			mb.valid[m.from] = m.round
			mb.commit = mb.tip // a quorum of three: the leader and one ack
		}
		_, err := s.apply(mb, prev, mb.c.Ack(s.now, m.from, m.round, m.roundEpoch, m.epoch))
		return err
	}
}

// tick moves the clock half a heartbeat and ticks every running member;
// a leader proposes now and then.
func (s *schedule) tick() error {
	s.now = s.now.Add(schedBeat / 2)
	for _, i := range s.rng.Perm(len(s.m)) {
		mb := s.m[i]
		if !mb.up {
			continue
		}
		if mb.c.Role() == Leader && s.rng.Intn(3) == 0 {
			mb.tip++
		}
		prev := mb.c
		if _, err := s.apply(mb, prev, mb.c.Tick(s.now, mb.tip, mb.commit)); err != nil {
			return err
		}
	}
	return nil
}

func (s *schedule) run(steps int) error {
	for _, mb := range s.m {
		if err := s.start(mb); err != nil {
			return fmt.Errorf("boot: %w", err)
		}
	}
	for s.step = 1; s.step <= steps; s.step++ {
		if err := s.coldRestart(); err != nil {
			return fmt.Errorf("step %d: %w", s.step, err)
		}
		var err error
		switch r := s.rng.Intn(100); {
		case len(s.queue) == 0 && r < 46:
		case r < 40:
			i := s.rng.Intn(len(s.queue)) // any message in flight: reordering
			m := s.queue[i]
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			err = s.deliver(m)
		case r < 46:
			i := s.rng.Intn(len(s.queue))
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
		case r < 47:
			if mb := s.m[s.rng.Intn(len(s.m))]; mb.up {
				mb.up = false
				s.stats.crashes++
			}
		case r < 53:
			if mb := s.m[s.rng.Intn(len(s.m))]; !mb.up {
				err = s.start(mb)
			}
		default:
			err = s.tick()
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", s.step, err)
		}
	}
	return nil
}

// TestSeededSchedule runs 2000 seeded schedules of three voter cores,
// and 500 more that cold-restart the whole ensemble once, 400 steps
// each, and checks at every step: at most one leader per epoch; no vote
// request, vote or heartbeat answer is sent before the hard state it
// shows is saved; a voter restarted on a store that was not fresh grants
// nothing and campaigns for nothing within ElectionTimeout of its
// restart; and a round is funded only by acks given under its own epoch.
func TestSeededSchedule(t *testing.T) {
	const seeds, colds, steps = 2000, 500, 400
	var sum tally
	for seed := int64(1); seed <= seeds+colds; seed++ {
		s := newSchedule(seed, seed > seeds)
		if err := s.run(steps); err != nil {
			t.Fatalf("seed %d, %v", seed, err)
		}
		sum.add(s.stats)
	}
	t.Logf("%d seeds x %d steps: %d elections, %d grants, %d rounds funded, %d crashes, %d failed saves; %d cold restarts, %d led within ET+2×HB",
		seeds+colds, steps, sum.elections, sum.grants, sum.funded, sum.crashes, sum.failedSaves, sum.colds, sum.coldLed)
	if sum.elections < seeds || sum.funded < seeds || sum.crashes < seeds || sum.failedSaves == 0 || sum.colds != colds || sum.coldLed == 0 {
		t.Fatalf("the schedules exercised too little: %+v over %d seeds", sum, seeds+colds)
	}
}

// Package core is the election of internal/coord/zab as a step function:
// state that changes only when its host, zab.Node, hands it an input, and
// a Ready that says what the host must do about it. It starts no
// goroutine, takes no lock and reads no clock — each input carries the
// time its host read — so one test can drive several cores from a seeded
// schedule (DESIGN §9.6).
package core

import (
	"math/rand"
	"slices"
	"time"
)

// Role is a member's part in its epoch.
type Role uint8

const (
	Follower Role = iota
	Candidate
	Leader
)

// Config is what a core knows of its ensemble: Voters is keyed by voter ID
// (an observer's own counts in nothing). A tick is half a HeartbeatInterval.
type Config struct {
	ID                uint64
	Voters            map[uint64]string
	Observer          bool
	HeartbeatInterval time.Duration
	ElectionTimeout   time.Duration
}

// Ready is what one step asks of its host. Save: the hard state (Epoch,
// Granted) changed, and the host makes it durable before it sends or
// answers anything from the step; if it cannot, it restores the core
// from a copy taken before the step (exact: a saving step replaces the
// tallies, never writes into them) and does nothing else.
type Ready struct {
	Save        bool
	Elected     bool      // the member leads, at Epoch()
	SteppedDown bool      // it led and no longer does
	Stalled     bool      // the quorum-loss watchdog made it step down
	Campaign    bool      // send every other voter a vote request for Epoch()
	Round       time.Time // not zero: heartbeat every peer, each answer to Ack with this stamp
	Funded      time.Time // not zero: a quorum acked the round stamped so
	Granted     bool      // Vote's answer
	Follow      bool      // Heard's: the message came from Epoch()'s leader, or named a newer epoch
	Join        bool      // an observer has heard from no leader for its timeout
}

// Election is one member's election state. Build it with New.
type Election struct {
	cfg    Config
	quorum int
	rng    *rand.Rand

	role    Role
	epoch   uint64
	granted uint64 // the highest epoch this member voted in
	asked   uint64 // the highest epoch a candidate asked it for, granted or not
	leader  uint64 // the leader of epoch; 0 when unknown

	lastContact time.Time     // the election timer's start
	due         time.Duration // it runs out this long after lastContact
	quiet       time.Time     // a restarted voter grants nothing before it
	ticks       uint64

	votes []uint64             // the campaign's voters, this member first
	acked map[uint64]time.Time // per voter, the newest round it acked
	// The commit horizon has stood at stallAt, below the tip, since stallSince.
	stallSince time.Time
	stallAt    uint64
}

// New builds the core of a member whose store holds hard state (epoch,
// granted) and a log ending at tip, at now. A voter's first campaign is
// due a full timeout after its timer starts, plus one HeartbeatInterval
// per higher voter ID, so the highest ID campaigns first and the others
// grant it (ZooKeeper's tie-break); a failed campaign falls back to the
// randomized timer. A restarted voter's timer starts now, and it grants
// nothing for as long: its last ack may fund a live lease. One on a fresh
// store never acked (Heard): its timer starts aged by a full timeout. An
// observer's timer starts run out.
func New(cfg Config, epoch, granted, tip uint64, now time.Time) Election {
	c := Election{cfg: cfg, quorum: len(cfg.Voters)/2 + 1, rng: rand.New(rand.NewSource(int64(cfg.ID))), epoch: max(epoch, tip>>32), granted: granted}
	if cfg.Observer {
		return c
	}
	rank := 0
	for id := range cfg.Voters {
		if id > cfg.ID {
			rank++
		}
	}
	c.lastContact, c.due = now, cfg.ElectionTimeout+time.Duration(rank)*cfg.HeartbeatInterval
	if c.epoch != 0 || granted != 0 || tip != 0 {
		c.quiet = now.Add(cfg.ElectionTimeout)
	} else {
		c.lastContact = now.Add(-cfg.ElectionTimeout)
	}
	return c
}

// The hard state, the role, the leader (0: unknown), the watchdog's stall
// start while the horizon stands at commit (zero: none), the timer.
func (c *Election) Role() Role      { return c.role }
func (c *Election) Epoch() uint64   { return c.epoch }
func (c *Election) Granted() uint64 { return c.granted }
func (c *Election) Leader() uint64  { return c.leader }
func (c *Election) Stall(commit uint64) time.Time {
	if commit != c.stallAt {
		return time.Time{}
	}
	return c.stallSince
}
func (c *Election) Timer() (time.Time, time.Duration) { return c.lastContact, c.due }

// Tick is the host's clock, with the log tip and the commit horizon. A
// leader whose horizon stood below the tip for 2×ElectionTimeout steps
// down rather than wedge its clients (the quorum-loss watchdog); else it
// begins a round every second tick. Any other member whose timer ran out
// campaigns (a self-vote, saved like any grant) or, observing, joins.
func (c *Election) Tick(now time.Time, tip, commit uint64) (rd Ready) {
	c.ticks++
	switch {
	case c.role == Leader:
		switch {
		case commit >= tip:
			c.stallSince = time.Time{}
		case c.stallSince.IsZero() || commit != c.stallAt:
			c.stallSince, c.stallAt = now, commit
		case now.Sub(c.stallSince) > 2*c.cfg.ElectionTimeout:
			c.follow(now, 0)
			rd.SteppedDown, rd.Stalled = true, true
			return rd
		}
		if c.ticks%2 == 0 {
			rd = c.Beat(now)
		}
	case now.Sub(c.lastContact) <= c.due:
	case c.cfg.Observer:
		rd.Join = true
	default:
		c.epoch = max(c.epoch, c.granted, c.asked) + 1
		c.granted = c.epoch
		c.role, c.leader = Candidate, 0
		c.resetTimer(now)
		c.votes = []uint64{c.cfg.ID}
		rd = c.elect(now)
		rd.Save, rd.Campaign = true, !rd.Elected
	}
	return rd
}

// Vote answers candidate's request for epoch; lastZxid ends its log, tip
// this member's. A grant is saved before it is sent, or a member could
// vote twice in an epoch. A follower whose timer has not aged a full
// ElectionTimeout refuses to replace its leader and adopts nothing, and a
// restarted one refuses all: the stickiness that makes the read lease
// sound (DESIGN §13.3). The member's own next campaign asks for a later
// epoch than any it was asked for: candidates on the rank schedule then do
// not each spend their epoch's votes on themselves.
func (c *Election) Vote(now time.Time, epoch, candidate, lastZxid, tip uint64) (rd Ready) {
	c.asked = max(c.asked, epoch)
	if c.cfg.Observer || epoch <= c.granted || epoch <= c.epoch || lastZxid < tip || now.Before(c.quiet) ||
		c.role == Follower && candidate != c.leader && now.Sub(c.lastContact) < c.cfg.ElectionTimeout {
		return rd
	}
	rd = Ready{Save: true, Granted: true, SteppedDown: c.role == Leader}
	c.epoch, c.granted = epoch, epoch
	c.follow(now, 0) // the new leader is unknown until it beats
	return rd
}

// VoteReply counts from's answer to the request for epoch.
func (c *Election) VoteReply(now time.Time, from, epoch uint64, granted bool, respEpoch uint64) Ready {
	if respEpoch > c.epoch {
		return c.Heard(now, respEpoch, 0)
	}
	if !granted || c.role != Candidate || c.epoch != epoch || slices.Contains(c.votes, from) {
		return Ready{}
	}
	c.votes = append(c.votes, from)
	return c.elect(now)
}

// elect makes a candidate with a quorum of votes leader, beating at once.
func (c *Election) elect(now time.Time) Ready {
	if len(c.votes) < c.quorum {
		return Ready{}
	}
	c.role, c.leader = Leader, c.cfg.ID
	c.votes, c.acked, c.stallSince = nil, map[uint64]time.Time{}, time.Time{}
	rd := c.Beat(now)
	rd.Elected = true
	return rd
}

// Heard takes a message naming an epoch and maybe its leader: a heartbeat
// or window, or a reply to a vote, heartbeat, window, pull, ask or join.
// An older epoch, or this one with no leader, changes nothing. Otherwise
// the member follows, and a newer epoch is saved before anything is
// answered under it: a store whose hard state reads (0, 0) never acked.
func (c *Election) Heard(now time.Time, epoch, leader uint64) (rd Ready) {
	if epoch < c.epoch || epoch == c.epoch && leader == 0 {
		return rd
	}
	rd = Ready{Save: epoch > c.epoch, SteppedDown: c.role == Leader, Follow: true}
	c.epoch = epoch
	c.follow(now, leader)
	return rd
}

// Beat begins a leader's round stamped now; a lone leader funds it.
func (c *Election) Beat(now time.Time) (rd Ready) {
	if c.role == Leader {
		rd.Round = now
		if c.quorum == 1 {
			rd.Funded = now
		}
	}
	return rd
}

// Ack counts from's answer, under epoch, to the round stamped start and
// sent under round. Only one under the round's own epoch counts (an older
// one has not adopted it, or could not save it). A round is funded once a
// quorum, the leader among it, has answered it or a later one.
func (c *Election) Ack(now time.Time, from uint64, start time.Time, round, epoch uint64) (rd Ready) {
	if epoch > c.epoch {
		return c.Heard(now, epoch, 0)
	}
	if c.role != Leader || epoch != round || round != c.epoch || !start.After(c.acked[from]) {
		return rd
	}
	c.acked[from] = start
	stamps := make([]time.Time, 0, len(c.acked))
	for _, t := range c.acked {
		stamps = append(stamps, t)
	}
	if slices.SortFunc(stamps, func(a, b time.Time) int { return b.Compare(a) }); len(stamps) >= c.quorum-1 {
		rd.Funded = stamps[c.quorum-2]
	}
	return rd
}

// JoinReply takes the answer to an observer's join request: a stream from
// the leader of epoch, a redirect to leader, or none (all zero).
func (c *Election) JoinReply(now time.Time, joined bool, epoch, leader uint64) Ready {
	if epoch < c.epoch {
		leader = 0
	} else if joined {
		return c.Heard(now, epoch, leader)
	}
	c.leader = leader
	return Ready{}
}

// Resign follows no one, for a host that ended its leadership itself.
func (c *Election) Resign(now time.Time) { c.follow(now, 0) }

func (c *Election) follow(now time.Time, leader uint64) {
	c.role, c.leader = Follower, leader
	c.resetTimer(now)
	c.votes, c.acked, c.stallSince = nil, nil, time.Time{}
}

func (c *Election) resetTimer(now time.Time) {
	c.lastContact = now
	c.due = c.cfg.ElectionTimeout + time.Duration(c.rng.Int63n(int64(c.cfg.ElectionTimeout)))
}

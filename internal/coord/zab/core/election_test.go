package core

import (
	"testing"
	"time"
)

// TestRanksDoNotCollide: three voters cold-restarted on epoch 1, their logs
// in the reverse order of their IDs, every message delivered at once. Node
// 3's first campaign fails on its short log; node 2's, due a heartbeat
// later, must ask for a later epoch than node 3 asked its voters for, or
// node 3's self-vote refuses it, and node 1's own campaign meets two
// self-votes: the ensemble waits for the randomized timers. It leads
// within ElectionTimeout + 2×HeartbeatInterval of the restart.
func TestRanksDoNotCollide(t *testing.T) {
	cfg := Config{Voters: map[uint64]string{1: "", 2: "", 3: ""}, HeartbeatInterval: schedBeat, ElectionTimeout: schedTimeout}
	tips := []uint64{1<<32 | 9, 1<<32 | 7, 1<<32 | 5}
	start := time.Unix(1_000_000, 0)
	cs := make([]Election, len(tips))
	for i := range cs {
		c := cfg
		c.ID = uint64(i + 1)
		cs[i] = New(c, 1, 1, tips[i], start)
	}
	for now := start; now.Sub(start) <= schedTimeout+2*schedBeat; now = now.Add(schedBeat / 2) {
		for i := range cs {
			if !cs[i].Tick(now, tips[i], tips[i]).Campaign {
				continue
			}
			for j := range cs {
				if j == i {
					continue
				}
				v := cs[j].Vote(now, cs[i].Epoch(), uint64(i+1), tips[i], tips[j])
				if cs[i].VoteReply(now, uint64(j+1), cs[i].Epoch(), v.Granted, cs[j].Epoch()).Elected {
					t.Logf("node %d leads epoch %d %v after the restart", i+1, cs[i].Epoch(), now.Sub(start))
					return
				}
			}
		}
	}
	t.Fatalf("no leader within %v of a cold restart", schedTimeout+2*schedBeat)
}

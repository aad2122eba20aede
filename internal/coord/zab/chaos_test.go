package zab

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestLeaderKillsPreserveAckedTxns: 5 nodes, kill up to 2 leaders (a
// minority), never restart. Every acknowledged transaction must
// survive in each survivor's applied history — with no restarts in
// play, any loss is a pure replication-protocol bug (no state amnesia
// possible), which makes this the sharpest durability check on the
// group-commit pipeline: frames die queued, proposed-but-unacked and
// acked-but-uncommitted, and only the acked ones owe survival.
func TestLeaderKillsPreserveAckedTxns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for round := 0; round < 3; round++ {
		e := &ensemble{
			nodes: make(map[uint64]*Node),
			sms:   make(map[uint64]*kvSM),
			net:   transport.NewInProc(),
			peers: make(map[uint64]string),
		}
		for i := 1; i <= 5; i++ {
			e.peers[uint64(i)] = fmt.Sprintf("scr%d-%d", round, i)
		}
		for i := 1; i <= 5; i++ {
			e.startNode(t, uint64(i), new(MemStorage))
		}

		var mu sync.Mutex
		acked := make(map[string]bool)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Snapshot the handles up front: writers look for the leader among
		// them (a stopped node never claims to lead), so they never touch
		// the mutable e.nodes map the kill loop edits.
		handles := make([]*Node, 0, 5)
		for id := uint64(1); id <= 5; id++ {
			handles = append(handles, e.nodes[id])
		}
		leaderOf := func() *Node {
			for _, n := range handles {
				if n.IsLeader() {
					return n
				}
			}
			return nil
		}
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					txn := fmt.Sprintf("r%d-w%d-%d", round, w, i)
					// Propose through the current leader. One that stepped
					// down or stopped in between refuses (ErrNoLeader,
					// ErrStopped); the next turn finds the next leader.
					if n := leaderOf(); n != nil {
						if _, err := n.Propose([]byte(txn)); err == nil {
							mu.Lock()
							acked[txn] = true
							mu.Unlock()
							continue
						}
					}
					time.Sleep(time.Millisecond) // no leader yet: don't busy-spin
				}
			}(w)
		}

		// Kill two leaders, 100ms apart.
		killed := 0
		for killed < 2 {
			time.Sleep(100 * time.Millisecond)
			var victim *Node
			var victimID uint64
			for id, n := range e.nodes {
				if n != nil && n.IsLeader() {
					victim, victimID = n, id
					break
				}
			}
			if victim == nil {
				continue
			}
			e.nodes[victimID] = nil
			victim.Stop()
			killed++
		}
		time.Sleep(50 * time.Millisecond)
		close(stop)
		wg.Wait()

		// Settle, then check every acked txn on the survivors.
		var survivors []uint64
		for id, n := range e.nodes {
			if n != nil {
				survivors = append(survivors, id)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			var leader *Node
			for _, id := range survivors {
				if e.nodes[id].IsLeader() {
					leader = e.nodes[id]
				}
			}
			if leader != nil {
				if _, err := leader.Propose([]byte("settle")); err == nil {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no working leader after kills", round)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// Wait for convergence of the survivors, then verify.
		for _, id := range survivors {
			conv := time.Now().Add(3 * time.Second)
			for {
				applied, _ := e.sms[id].snapshotState()
				have := make(map[string]bool, len(applied))
				for _, a := range applied {
					have[a] = true
				}
				var missing string
				mu.Lock()
				for txn := range acked {
					if !have[txn] {
						missing = txn
						break
					}
				}
				total := len(acked)
				mu.Unlock()
				if missing == "" {
					break
				}
				if time.Now().After(conv) {
					for _, jd := range survivors {
						t.Logf("node %d: %s", jd, e.nodes[jd].DebugString())
					}
					t.Fatalf("round %d: node %d lost acked txn %s (applied=%d acked=%d)",
						round, id, missing, len(have), total)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		for _, n := range e.nodes {
			if n != nil {
				n.Stop()
			}
		}
		t.Logf("round %d ok: %d acked", round, len(acked))
	}
}

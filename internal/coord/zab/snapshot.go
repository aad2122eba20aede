package zab

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// recoverFromStorage primes the node from its store's log tail and newest
// snapshot (NewNode hands the saved vote to the election core). A store without one gets the genesis
// snapshot, cut at zxid 0 like any other (ZooKeeper's snapshot.0), so a
// catch-up pull always has a stored snapshot to ship.
func (n *Node) recoverFromStorage() error {
	// The recovered tail sits uncommitted until a quorum re-forms — an
	// elected leader's epoch barrier commits it transitively, exactly as
	// an inherited in-memory tail would.
	n.log = n.st.Frames()
	err := n.restoreLocked()
	if errors.Is(err, errNoSnapshot) {
		_, err = n.cutSnapshot()
	}
	if err != nil {
		return fmt.Errorf("zab: recovering the snapshot: %w", err)
	}
	n.verified, n.leaderCommit = n.commitZxid, n.commitZxid
	return nil
}

var errNoSnapshot = errors.New("the store holds no snapshot")

// restoreLocked replaces the state machine with the store's newest
// snapshot, at start and after an install. It keys everything on the zxid
// the store reports: after an install that may be a fuzzy snapshot of our
// own landing behind it — committed history, correct to restore at its
// own zxid. The caller holds applyMu (or a node not yet started), so no
// applier holds frames; the committed ones past z apply next from the
// log.
func (n *Node) restoreLocked() error {
	rc, z, ok := n.st.SnapshotStream()
	if !ok {
		return errNoSnapshot
	}
	// A snapshot below our applied point (a new leader that has applied
	// less than we had) takes the state machine backwards: lower the
	// lock-free mirror first, so a concurrent reader never vouches for
	// more history than the state it then reads holds.
	n.applied.Store(min(n.lastApplied, z))
	err := n.sm.RestoreFrom(rc, z)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	n.snapZxid, n.durableSnapZxid = z, z
	n.setAppliedLocked(z)
	n.commitZxid = max(n.commitZxid, z)
	n.wakeAppliedLocked()
	return nil
}

// maybeTruncateLocked drops the bulk of the applied log prefix when
// the log grows beyond the configured bound, keeping a small margin so
// slightly-lagging followers can still catch up from the log instead
// of a full snapshot.
//
// The cut is additionally bounded by SNAPSHOT COVERAGE, not the bare
// entry count: recovery, and a catch-up pull, is the newest durable
// snapshot plus the log tail, so an in-memory frame may only be dropped
// once a durable snapshot covers it (the same snapshot then lets the
// store reclaim the log behind it). When coverage lags, the background
// fuzzy snapshotter is kicked and the log is allowed to run past its
// bound until the snapshot lands.
func (n *Node) maybeTruncateLocked() {
	if len(n.log) <= n.cfg.MaxLogEntries {
		return
	}
	const margin = 64
	cut := sort.Search(len(n.log), func(i int) bool { return n.log[i].Zxid > n.lastApplied })
	n.requestSnapshotLocked()
	covered := sort.Search(len(n.log), func(i int) bool { return n.log[i].Last() > n.durableSnapZxid })
	if covered < cut {
		cut = covered
	}
	if cut <= margin {
		return
	}
	cut -= margin
	n.snapZxid = n.log[cut-1].Last()
	n.log = append([]Frame(nil), n.log[cut:]...)
}

// snapshotLoop writes fuzzy snapshots in the background:
// maybeTruncateLocked kicks it when the in-memory log outgrows its bound,
// and once a snapshot is durable it lets truncation and WAL-segment
// reclaim proceed up to the new coverage.
func (n *Node) snapshotLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.snapReq:
		}
		z, err := n.cutSnapshot()
		n.mu.Lock()
		n.snapInFlight = false
		if err == nil && z > n.durableSnapZxid {
			n.durableSnapZxid = z
			n.maybeTruncateLocked()
		}
		n.mu.Unlock()
	}
}

// cutSnapshot is the one place the state machine is serialized: it
// streams a (state, lastApplied) cut into the store through a pipe and
// returns the zxid it cut at. applyMu, not mu, pins the cut: commits,
// acks and reads flow meanwhile and only apply stalls. The store's final
// fsync+rename run after the lock is released while the log keeps
// growing, which is what makes the snapshot fuzzy.
func (n *Node) cutSnapshot() (uint64, error) {
	n.applyMu.Lock()
	n.mu.Lock()
	z := n.lastApplied
	n.mu.Unlock()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		serr := n.st.SaveSnapshotFrom(pr, z)
		pr.CloseWithError(serr) // unblock the producer if the store bailed early
		done <- serr
	}()
	// The store's verdict is authoritative: a producer failure poisons
	// the pipe, so the store reports it too, while a store that succeeds
	// has already seen the full stream.
	pw.CloseWithError(n.sm.SnapshotTo(pw))
	n.applyMu.Unlock()
	return z, <-done
}

// requestSnapshotLocked kicks the background snapshotter (at most one
// snapshot in flight).
func (n *Node) requestSnapshotLocked() {
	if n.snapInFlight || n.stopped || n.lastApplied <= n.durableSnapZxid {
		return
	}
	select {
	case n.snapReq <- struct{}{}:
		n.snapInFlight = true
	default:
	}
}

package zab

import (
	"fmt"
	"io"
	"sort"
)

// recoverFromStorage primes the node from its store: persisted vote,
// newest snapshot (streamed straight into the state machine), log tail.
func (n *Node) recoverFromStorage() error {
	n.epoch, n.grantedEpoch = n.st.HardState()
	if rc, z, ok := n.st.SnapshotStream(); ok {
		err := n.sm.RestoreFrom(rc, z)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("zab: restoring durable snapshot: %w", err)
		}
		n.snapZxid = z
		n.commitZxid = z
		n.setAppliedLocked(z)
		n.durableSnapZxid = z
	}
	// The recovered tail sits uncommitted until a quorum re-forms — an
	// elected leader's epoch barrier commits it transitively, exactly as
	// an inherited in-memory tail would.
	n.log = n.st.Frames()
	n.setEpochLocked(max(n.epoch, epochOf(n.lastZxidLocked())))
	return nil
}

// maybeTruncateLocked drops the bulk of the applied log prefix when
// the log grows beyond the configured bound, keeping a small margin so
// slightly-lagging followers can still catch up from the log instead
// of a full snapshot (which handleSync regenerates on demand).
//
// The cut is additionally bounded by SNAPSHOT COVERAGE, not the bare
// entry count: recovery is the newest durable snapshot plus the log
// tail, so an in-memory frame may only be dropped once a durable
// snapshot covers it (the same snapshot then lets the store reclaim
// the log behind it). When coverage lags, the background fuzzy
// snapshotter is kicked and the log is allowed to run past its bound
// until the snapshot lands.
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

// snapshotLoop writes fuzzy snapshots in the background: maybeTruncateLocked kicks it when the in-memory log
// outgrows its bound, it captures a consistent (state, lastApplied)
// cut under the lock, persists it OUTSIDE the lock alongside the live
// log — writes keep flowing while the snapshot lands, which is what
// makes it fuzzy — and then lets truncation and WAL-segment reclaim
// proceed up to the new durable coverage.
func (n *Node) snapshotLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.snapReq:
		}
		// Serialize under applyMu, not mu: commits, acks, heartbeats and
		// reads flow freely during the serialization; only apply stalls
		// for it, which is the fuzzy-snapshot cost moved off the commit
		// path entirely. Holding applyMu pins lastApplied, so the cut is
		// consistent.
		n.applyMu.Lock()
		n.mu.Lock()
		z := n.lastApplied
		if z <= n.durableSnapZxid {
			n.snapInFlight = false
			n.mu.Unlock()
			n.applyMu.Unlock()
			continue
		}
		n.mu.Unlock()
		// Stream the consistent cut straight into the store through a
		// pipe: the producer serializes under applyMu (chunk writes land
		// in the page cache), the consumer persists concurrently, and the
		// final fsync+rename runs after the lock is released — with
		// O(chunk) memory instead of the full serialized state.
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			serr := n.st.SaveSnapshotFrom(pr, z)
			// Unblock the producer if the store bailed early.
			pr.CloseWithError(serr)
			done <- serr
		}()
		// The store's verdict is authoritative: a producer failure
		// poisons the pipe, so the store reports it too, while a store
		// that succeeds has already seen the full stream.
		pw.CloseWithError(n.sm.SnapshotTo(pw))
		n.applyMu.Unlock()
		err := <-done
		n.mu.Lock()
		n.snapInFlight = false
		if err == nil && z > n.durableSnapZxid {
			n.durableSnapZxid = z
			n.maybeTruncateLocked()
		}
		n.mu.Unlock()
	}
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

package coord

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord/zab"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Session is a client connection to the coordination service,
// equivalent to a ZooKeeper handle. The paper's DUFS programs against
// the synchronous API ("The synchronous ZooKeeper API were used for
// this purpose", §IV-D); this session keeps that surface — the embedded
// Forms derive it, and the asynchronous Begin / Pipeline forms, from the
// one blocking Do — and concurrent Do calls keep many tagged requests in
// flight over one connection, matching how real ZooKeeper clients
// pipeline their outbound queue.
//
// A session has a HOME server — the first address that accepted it —
// which answers its reads from the local replica, holds its watches and
// parks its event waits. Replicated writes, lease reads and syncs are
// served by the LEADER only (DESIGN.md §10.5): any other member refuses
// them with
// the leader's client address, and the session dials that address once
// and sends them there over a second connection from then on. Until it
// has one, and whenever that connection fails, they go home, which
// serves them if it leads and names the leader if not. If home dies the
// session fails over to the next address in its list, so the ORDER of
// the list is the session's read placement (DESIGN.md §13.4).
//
// One rule orders what the session sees across all of that (DESIGN.md
// §10.4): every reply carries a zxid, the session keeps the highest it
// has seen, every read carries it, and a replica answers only once it
// has applied that much — ZooKeeper's last-seen-zxid contract. So the
// session reads its own writes and never reads backwards, whichever
// replica acknowledged the write and whichever answers the read.
type Session struct {
	Forms // every typed form, over Do

	net   transport.Network
	addrs []string
	seq   atomic.Uint64 // per-session write sequence, for exact-once retries

	// window bounds concurrently in-flight replicated writes; it must
	// stay well under the server's per-session retry-dedup window so a
	// reconnect replay can always be recognised.
	window chan struct{}

	// unsettled counts the replicated writes the session stopped waiting
	// for before a server answered them: one may still be in a leader's
	// pipeline. A call abandoned to its context is settled when its
	// answer arrives after all; a write whose retries ran out, never.
	// While any is unsettled a check-led batch goes to the log (see
	// encode).
	unsettled atomic.Int64

	// seen is the session's stamp: the highest zxid a reply has carried.
	seen atomic.Uint64

	mu      sync.Mutex
	conn    transport.Conn // to home, addrs[cur]
	connGen uint64         // bumped on every fresh dial; watch-loss detection
	cur     int            // index into addrs of the home server
	id      uint64
	closed  bool

	// Write placement. lead is the connection to the address the last
	// redirect named as the leader's, leadAddr (nil: replicated ops and
	// lease reads go home), and leadGen its generation. The write
	// connection never touches connGen or eventGen — watches live on home.
	lead     transport.Conn
	leadAddr string
	leadGen  uint64

	// eventGen remembers the connection generation of the last
	// WaitEvents call, so a failover BETWEEN two parks (detected by a
	// concurrent writer, redialed before the next park) still surfaces
	// as watch loss instead of silently parking on a server that holds
	// none of this session's watches.
	eventGen atomic.Uint64
}

// ErrWatchesLost reports that the session's connection was replaced
// (server death, failover): the watches registered through it — and
// any undelivered events — were server-local state and are gone.
// Consumers must re-register watches and assume missed invalidations.
var ErrWatchesLost = errors.New("coord: session failed over; server-local watches were lost")

// DialTimeout bounds how long Connect and request retries keep trying
// before giving up (elections take a few heartbeats to settle).
const DialTimeout = 10 * time.Second

// maxRefusals is how many times in a row a server may refuse one request
// (no leader, no quorum) before the session treats it like a dead one
// and moves on: an election settles inside that many back-offs, a server
// cut off from the quorum never does.
const maxRefusals = 16

// Connect establishes a session against any of the given client
// addresses. The first address that accepts the session wins; the
// rest serve as failover targets.
func Connect(net transport.Network, addrs []string) (*Session, error) {
	if len(addrs) == 0 {
		return nil, errors.New("coord: no server addresses")
	}
	s := &Session{
		net:    net,
		addrs:  append([]string(nil), addrs...),
		window: make(chan struct{}, asyncWindow),
	}
	s.Forms = Forms{s}
	w := wire.GetWriter()
	w.Uint8(opNewSession)
	resp, _, err := s.exchange(context.Background(), w)
	if err != nil {
		return nil, fmt.Errorf("coord: establishing session: %w", err)
	}
	r := wire.NewReader(resp)
	s.id = r.Uint64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("coord: malformed session reply: %w", err)
	}
	return s, nil
}

// ID returns the unique session ID assigned by the replicated state
// machine. DUFS uses it as the 64-bit client ID half of new FIDs.
func (s *Session) ID() uint64 { return s.id }

// Close terminates the session, expiring its ephemeral nodes.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	w := wire.GetWriter()
	appendCloseSessionTxn(w, s.id, s.seq.Add(1))
	_, _, err := s.exchange(context.Background(), w)
	s.mu.Lock()
	s.closed = true
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.closeLeadLocked()
	s.mu.Unlock()
	return err
}

// getConnGen returns the live home connection, dialing (with failover)
// if necessary, and its generation number — bumped on every fresh dial,
// so event consumers can detect that the connection (and with it the
// server that holds their watches) changed.
func (s *Session) getConnGen() (transport.Conn, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.homeLocked()
}

func (s *Session) homeLocked() (transport.Conn, uint64, error) {
	if s.closed {
		return nil, 0, errors.New("coord: session closed")
	}
	if s.conn != nil {
		return s.conn, s.connGen, nil
	}
	var lastErr error
	for i := 0; i < len(s.addrs); i++ {
		addr := s.addrs[(s.cur+i)%len(s.addrs)]
		c, err := s.net.Dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		s.cur = (s.cur + i) % len(s.addrs)
		s.conn = c
		s.connGen++
		return c, s.connGen, nil
	}
	return nil, 0, fmt.Errorf("coord: all servers unreachable: %w", lastErr)
}

// dropConn gives up the home connection of generation gen and makes the
// next address the first to try. Every caller names the generation its
// call went out on: with many calls in flight one dead server fails them
// all, and only the first may close and rotate — a later one would close
// the connection its sibling just dialed.
func (s *Session) dropConn(gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil || s.connGen != gen {
		return
	}
	s.conn.Close()
	s.conn = nil
	s.cur = (s.cur + 1) % len(s.addrs)
}

// route picks the connection a request goes out on: one for the leader
// (a replicated write, a lease read, a sync) takes the connection to the leader
// when a redirect has named it, and everything else — plain reads,
// watches, event waits, and the leader's requests until then — goes home.
func (s *Session) route(toLeader bool) (c transport.Conn, gen uint64, direct bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if toLeader && s.lead != nil {
		return s.lead, s.leadGen, true, nil
	}
	c, gen, err = s.homeLocked()
	return c, gen, false, err
}

// follow makes addr, which a server named as the leader's, the write
// path. It dials outside the session lock — an unreachable leader must
// not stall the reads at home — so requests redirected at once may each
// dial; the first connection made is kept.
func (s *Session) follow(addr string) {
	c, err := s.net.Dial(addr)
	if err != nil {
		return // the request goes home, to be redirected again
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.lead != nil && s.leadAddr == addr {
		c.Close()
		return
	}
	s.closeLeadLocked()
	s.lead, s.leadAddr = c, addr
	s.leadGen++
}

func (s *Session) closeLeadLocked() {
	if s.lead != nil {
		s.lead.Close()
	}
	s.lead, s.leadAddr = nil, ""
}

// dropLead gives up the leader connection of generation gen (the same
// rule as dropConn: only the first of many failed calls acts).
func (s *Session) dropLead(gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lead != nil && s.leadGen == gen {
		s.closeLeadLocked()
	}
}

// observe raises the session's stamp to zxid.
func (s *Session) observe(zxid uint64) {
	for {
		cur := s.seen.Load()
		if zxid <= cur || s.seen.CompareAndSwap(cur, zxid) {
			return
		}
	}
}

// exchange is how every request leaves the session: it sends the
// message encoded in a pooled scratch writer through the request engine
// and releases w back to the wire pool as soon as no in-flight reference
// to the buffer can remain — on reply, on a terminal error, or after the
// last retry. The one case that forfeits the release is an abandoned
// call whose transport may still be reading the buffer (see call); the
// writer is then left to the GC, which is a pool miss, never a
// use-after-release. Callers with no use for the zxid ignore it: the
// session has already folded it into its stamp.
func (s *Session) exchange(ctx context.Context, w *wire.Writer) (payload []byte, zxid uint64, err error) {
	payload, zxid, retained, err := s.requestCtxOwned(ctx, w.Bytes())
	if !retained {
		wire.PutWriter(w)
	}
	return payload, zxid, err
}

// requestCtxOwned is the session's request engine: it sends one
// protocol message and returns the reply's body and zxid, retrying
// transient failures (dead server, election in progress, a replica
// behind the session's stamp) until DialTimeout or the context's
// deadline, whichever is sooner. A cancelled context releases the
// caller immediately — the in-flight call is abandoned at the transport
// (its tagged response is dropped when it arrives) and, for writes, the
// per-session sequence number lets a later retry be deduplicated, so
// abandonment never corrupts the session. retained reports whether some
// abandoned in-flight call may still reference msg.
//
// A request only the leader answers goes home until a member that does
// not lead names the leader's address; the session dials it and resends
// the same bytes there (a second redirect of one request after a
// back-off). Whatever goes wrong on the leader connection, the same
// bytes go home next, to be served or redirected again. The dedup window
// makes the attempts of a write one write.
//
// A write that ends without a server's answer is unsettled (see
// Session.unsettled).
func (s *Session) requestCtxOwned(ctx context.Context, msg []byte) (payload []byte, zxid uint64, retained bool, err error) {
	deadline := time.Now().Add(DialTimeout)
	callerDeadline := false
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline, callerDeadline = d, true
	}
	write := len(msg) > 0 && (proposes(msg[0]) || msg[0] == opIdleMulti)
	toLeader := write || len(msg) > 0 && (msg[0] == opLeaseRead || msg[0] == opSync)
	answered := false                    // a server answered the write
	var late <-chan transport.CallResult // where an abandoned attempt's result arrives
	if write {
		defer func() {
			if !answered {
				s.unsettled.Add(1)
				if late != nil {
					go s.settleLate(late)
				}
			}
		}()
	}
	var lastErr error
	var refusals int // in a row, by the home connection of generation refusedBy
	var refusedBy uint64
	var redirects int
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, retained, err
		}
		if time.Now().After(deadline) {
			// The caller's deadline may pass before its context's timer
			// fires: the error says so all the same.
			switch {
			case lastErr == nil:
				lastErr = context.DeadlineExceeded
			case callerDeadline:
				lastErr = fmt.Errorf("%w: %w", context.DeadlineExceeded, lastErr)
			}
			return nil, 0, retained, fmt.Errorf("coord: request failed after retries: %w", lastErr)
		}
		c, gen, direct, err := s.route(toLeader)
		if err != nil {
			lastErr = err
			if serr := sleepCtx(ctx, retryDelay(attempt)); serr != nil {
				return nil, 0, retained, serr
			}
			continue
		}
		resp, pending, abandoned, err := s.call(ctx, c, msg)
		retained, late = retained || abandoned, pending
		if msg[0] == opIdleMulti {
			// Any attempt may have been proposed — a leader that steps
			// down redirects the txns it had enqueued, and one may still
			// commit — and only the dedup window answers its retry
			// rightly: every retry goes to the log.
			msg = msg[idleMultiHead:]
		}
		if err == nil {
			var malformed error
			if payload, zxid, err, malformed = splitReply(resp); malformed != nil {
				return nil, 0, retained, fmt.Errorf("coord: malformed reply: %w", malformed)
			}
			s.observe(zxid)
			if leader, ok := err.(notLeader); ok && leader != "" {
				lastErr = err
				if redirects++; redirects > 1 {
					if serr := sleepCtx(ctx, retryDelay(attempt)); serr != nil {
						return nil, 0, retained, serr
					}
				}
				s.follow(string(leader))
				continue
			}
			if err != errBehind {
				answered = true
				return payload, zxid, retained, err
			}
		}
		if ctx.Err() != nil {
			return nil, 0, retained, ctx.Err()
		}
		lastErr = err
		if direct {
			s.dropLead(gen)
			continue // through home, at once
		}
		var remote *transport.RemoteError
		if errors.As(err, &remote) {
			// The server is alive but the proposal failed (e.g. an
			// election is in flight). Retry on the same server, a
			// bounded number of times.
			if refusedBy != gen {
				refusals, refusedBy = 0, gen
			}
			if refusals++; refusals < maxRefusals {
				if serr := sleepCtx(ctx, retryDelay(attempt)); serr != nil {
					return nil, 0, retained, serr
				}
				continue
			}
		}
		s.dropConn(gen)
		if serr := sleepCtx(ctx, retryDelay(attempt)); serr != nil {
			return nil, 0, retained, serr
		}
	}
}

// splitReply takes a server reply apart: the outcome its status header
// names (nil for codeOK), the body, and the zxid every reply ends with.
// err is for a reply that is not one.
func splitReply(resp []byte) (body []byte, zxid uint64, status, err error) {
	r := wire.NewReader(resp)
	code := r.Uint8()
	detail := r.String()
	if r.Err() == nil && r.Remaining() < 8 {
		r.Fail(fmt.Errorf("%d bytes where the reply's zxid belongs", r.Remaining()))
	}
	if err := r.Err(); err != nil {
		return nil, 0, nil, err
	}
	head, tail := len(resp)-r.Remaining(), len(resp)-8
	return resp[head:tail], binary.BigEndian.Uint64(resp[tail:]), errorForCode(code, detail), nil
}

// call performs one transport round trip. Uncancellable contexts take
// the direct path (no goroutine, no channel — the hot path is exactly
// the old synchronous one); cancellable contexts go through the
// transport's async submission so the wait can be abandoned. An
// abandoned call's result still arrives, on late. The abandoned flag
// reports whether msg may still be referenced after return: a
// natively-pipelining connection has copied msg out before CallAsync
// returns, but the goroutine fallback around a blocking Call holds msg
// until the call completes.
func (s *Session) call(ctx context.Context, c transport.Conn, msg []byte) (payload []byte, late <-chan transport.CallResult, abandoned bool, err error) {
	if ctx.Done() == nil {
		payload, err = c.Call(msg)
		return payload, nil, false, err
	}
	_, native := c.(transport.AsyncCaller)
	ch := transport.CallAsync(c, msg)
	select {
	case res := <-ch:
		return res.Payload, nil, false, res.Err
	case <-ctx.Done():
		return nil, ch, !native, ctx.Err()
	}
}

// settleLate waits for the result of a write call abandoned to its
// context and settles the write if a server answered it: applied or
// aborted, it can no longer be ordered behind a later op. A redirect, a
// refusal or a failed connection leaves it unsettled.
func (s *Session) settleLate(late <-chan transport.CallResult) {
	res := <-late
	if res.Err != nil {
		return
	}
	if _, _, status, err := splitReply(res.Payload); err == nil {
		if _, redirect := status.(notLeader); !redirect {
			s.unsettled.Add(-1)
		}
	}
}

// sleepCtx pauses for d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func retryDelay(attempt int) time.Duration {
	d := time.Duration(attempt+1) * 2 * time.Millisecond
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// Do implements Doer: encode the op, send it through the request
// engine, decode the reply — on the caller's goroutine, with no
// allocation beyond the result. A replicated write holds one of the
// session's asyncWindow slots while it is in flight; reads and syncs
// take none.
func (s *Session) Do(ctx context.Context, op Op) (Result, error) {
	// Requests ride pooled writers: nothing on the client retains the
	// message (the server copies before the replication layer keeps
	// anything), so the buffer is free at reply time.
	w := wire.GetWriter()
	write, err := s.encode(w, op)
	if err != nil {
		wire.PutWriter(w)
		return Result{}, err
	}
	if write {
		// The write's sequence number is already allocated, so a retry
		// after failover deduplicates however long it waited here.
		select {
		case s.window <- struct{}{}:
		case <-ctx.Done():
			wire.PutWriter(w) // never sent — safe to recycle here
			return Result{}, ctx.Err()
		}
	}
	payload, zxid, err := s.exchange(ctx, w)
	if write {
		<-s.window
	}
	if err != nil {
		return Result{Zxid: zxid}, err
	}
	res, err := decodeReply(op.Kind, payload)
	res.Zxid = zxid
	return res, err
}

// encode appends op's request to w and reports whether it is a
// replicated write (which carries the session id and a fresh sequence
// number for exact-once retries) or a read or sync (which ends with the
// stamp: the session's last-seen zxid, or the caller's if that is
// higher).
// Checks ride as single-op Multi transactions — the protocol has no
// standalone check.
func (s *Session) encode(w *wire.Writer, op Op) (write bool, err error) {
	var plain, watched uint8
	switch op.Kind {
	case OpCreate:
		appendCreateTxn(w, op.Path, op.Data, op.Mode, s.id, s.seq.Add(1), time.Now().UnixNano())
		return true, nil
	case OpSet:
		appendSetTxn(w, op.Path, op.Data, op.Version, s.id, s.seq.Add(1), time.Now().UnixNano())
		return true, nil
	case OpDelete:
		appendDeleteTxn(w, op.Path, op.Version, s.id, s.seq.Add(1))
		return true, nil
	case OpSync:
		w.Uint8(opSync)
		w.Uint64(max(op.Zxid, s.seen.Load()))
		return false, nil
	case OpCheck, OpMulti:
		ops := op.Ops
		if op.Kind == OpCheck {
			ops = []Op{op}
		}
		if err := CheckBatch(ops); err != nil {
			return false, err
		}
		if ops[0].Kind == OpCheck && len(s.window) == 0 && s.unsettled.Load() == 0 {
			// None of the session's writes is in flight or unsettled, so
			// the leader may answer a failing leading check from its state
			// (opIdleMulti).
			w.Uint8(opIdleMulti)
			w.Uint64(max(op.Zxid, s.seen.Load()))
		}
		appendMultiTxn(w, ops, s.id, s.seq.Add(1), time.Now().UnixNano())
		return true, nil
	case OpGet:
		plain, watched = opGet, opGetWatch
	case OpExists:
		plain, watched = opExists, opExistsWatch
	case OpChildren:
		plain, watched = opChildren, opChildrenWatch
	case OpChildrenData:
		plain = opChildrenData
	default:
		return false, fmt.Errorf("coord: unknown op kind %d", op.Kind)
	}
	switch {
	case op.Watch && (op.Lease || watched == 0):
		return false, fmt.Errorf("coord: op kind %d has no such watch form", op.Kind)
	case op.Watch:
		w.Uint8(watched)
		w.Uint64(s.id)
	case op.Lease:
		w.Uint8(opLeaseRead)
		w.Uint8(plain)
	default:
		w.Uint8(plain)
	}
	w.String(op.Path)
	w.Uint64(max(op.Zxid, s.seen.Load()))
	return false, nil
}

// decodeReply reads the reply payload of an op of the given kind. An
// aborted batch is both a result and an error: the per-op outcomes —
// the failing op carries its error, the others ErrRolledBack — plus the
// failing op's error, so callers can treat Multi like any other
// mutation.
//
// Each case makes its own reader: one that reaches decodeStat's generic
// dispatch escapes to the heap, and the replies without a Stat (create
// above all, whose allocation count TestWriteAllocBudget pins) should
// not pay for that.
//
// A get's data and a listing's entries alias payload instead of copying
// it: the reply is the session's alone. TCP copies each reply out of the
// connection's read buffer, and the in-process transport (Latency and
// Faults wrap it) hands over the handler's slice, which the server
// builds for this one request and keeps nowhere.
func decodeReply(kind OpKind, payload []byte) (Result, error) {
	var res Result
	var malformed, abort error
	switch kind {
	case OpCreate:
		r := wire.NewReader(payload)
		res.Created = r.String()
		malformed = r.Err()
	case OpSet:
		r := wire.NewReader(payload)
		res.Stat = decodeStat(r)
		malformed = r.Err()
	case OpGet:
		r := wire.NewReader(payload)
		res.Data = replyBytes(r)
		res.Stat = decodeStat(r)
		malformed = r.Err()
	case OpExists:
		r := wire.NewReader(payload)
		res.Exists = r.Bool()
		res.Stat = decodeStat(r)
		malformed = r.Err()
	case OpChildren:
		r := wire.NewReader(payload)
		res.Children = r.StringSlice()
		malformed = r.Err()
	case OpChildrenData:
		res.Entries, malformed = decodeEntries(wire.NewReader(payload))
	case OpCheck, OpMulti:
		var committed bool
		res.Results, committed, malformed = decodeMultiResults(wire.NewReader(payload))
		if malformed == nil && !committed {
			abort = ErrRolledBack
			for _, one := range res.Results {
				if one.Err != nil && !errors.Is(one.Err, ErrRolledBack) {
					abort = one.Err
					break
				}
			}
		}
	}
	if malformed != nil {
		return Result{}, fmt.Errorf("coord: malformed reply to op kind %d: %w", kind, malformed)
	}
	return res, abort
}

// replyBytes reads a length-prefixed field of a reply as a sub-slice of
// it, capped at its length so that a caller's append reallocates instead
// of running into the next field.
func replyBytes(r *wire.Reader) []byte {
	b := r.Bytes32()
	return b[:len(b):len(b)]
}

func decodeEntries(r *wire.Reader) ([]ChildEntry, error) {
	n := r.Uint32()
	if r.Err() == nil && int(n) > r.Remaining() {
		r.Fail(fmt.Errorf("%d entries in %d bytes", n, r.Remaining()))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	entries := make([]ChildEntry, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		entries = append(entries, ChildEntry{
			Name: r.String(),
			Data: replyBytes(r),
			Stat: decodeStat(r),
		})
	}
	return entries, r.Err()
}

// Atomic implements Client: a session talks to exactly one ensemble,
// so every batch is atomic.
func (s *Session) Atomic(paths ...string) bool { return true }

// PollEvents drains the session's fired watches on its server without
// blocking — the pull beside WaitEvents, kept because the benchmark's
// trace test calls it; it is not part of Client. Watches are one-shot and server-local, as in
// ZooKeeper.
func (s *Session) PollEvents() ([]Event, error) {
	w := wire.GetWriter()
	w.Uint8(opPollEvents)
	w.Uint64(s.id)
	w.Uint64(s.seen.Load())
	payload, _, err := s.exchange(context.Background(), w)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(payload)
	evs := decodeEvents(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("coord: malformed events reply: %w", err)
	}
	return evs, nil
}

// WaitEvents is the push-shaped event wait: one long-poll RPC that the
// server PARKS until a watch fires for this session (or maxWait
// expires, returning nil, nil). While the session is idle it costs
// zero server work and zero polling traffic — the replacement for the
// PollEvents ticker loops. A cancelled context releases the client
// immediately; the parked server request times out on its own. Events
// may be lost across a failover (watches are server-local state, as in
// ZooKeeper), so an error return means the caller must assume missed
// invalidations and re-register its watches.
func (s *Session) WaitEvents(ctx context.Context, maxWait time.Duration) ([]Event, error) {
	deadline := time.Now().Add(maxWait)
	var gen uint64
	first := true
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		c, g, err := s.getConnGen()
		if err != nil {
			// Unlike the write path, there is no point retrying onto a
			// DIFFERENT server: watches are server-local, so once the
			// connection is gone the caller's watches are gone with it.
			// Surface that immediately.
			return nil, err
		}
		if first {
			// A failover between two WaitEvents calls (a concurrent
			// writer noticed the dead server and redialed) must surface
			// exactly like one during a park.
			first = false
			gen = g
			if last := s.eventGen.Swap(g); last != 0 && last != g {
				return nil, ErrWatchesLost
			}
		} else if g != gen {
			s.eventGen.Store(g)
			return nil, ErrWatchesLost
		}
		w := wire.GetWriter()
		w.Uint8(opWaitEvents)
		w.Uint64(s.id)
		w.Uint32(uint32(remaining / time.Millisecond))
		w.Uint64(s.seen.Load())
		resp, _, abandoned, err := s.call(ctx, c, w.Bytes())
		if !abandoned {
			wire.PutWriter(w)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			var remote *transport.RemoteError
			if !errors.As(err, &remote) {
				// The connection died mid-park — and with it the
				// server-local watches and any undelivered events.
				// Drop the conn (the next operation fails over) and
				// report the loss rather than silently re-parking on a
				// server that holds none of the caller's watches.
				s.dropConn(g)
			}
			return nil, err
		}
		body, zxid, status, err := splitReply(resp)
		if err != nil {
			return nil, fmt.Errorf("coord: malformed events reply: %w", err)
		}
		s.observe(zxid)
		if status != nil {
			if status == errBehind {
				// Home is too far behind the session to park on; like a
				// dead one, it is left for the next address.
				s.dropConn(g)
			}
			return nil, status
		}
		r := wire.NewReader(body)
		evs := decodeEvents(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("coord: malformed events reply: %w", err)
		}
		if len(evs) > 0 {
			return evs, nil
		}
		// Parked to the server-side timeout without an event; re-park
		// on the SAME connection until our own deadline (covers capped
		// server waits).
	}
}

// Status reports a server's view of the ensemble, for tools and tests.
type Status struct {
	ServerID uint64
	LeaderID uint64
	Epoch    uint64
	IsLeader bool
	Znodes   uint64

	// Durable-storage observability (all zero when the server runs
	// without a data directory): the highest zxid covered by a
	// completed fsync, the live WAL segment count, and the mean
	// transactions hardened per fsync (the group-commit amortization).
	LastDurableZxid uint64
	WALSegments     uint64
	FsyncBatchTxns  uint64

	// Observer-tier observability. IsObserver marks a non-voting
	// replica (streamed the log like a follower, counted in no quorum);
	// AppliedZxid is the member's applied tip; LagTxns is how far that
	// trails the leader's commit horizon (always 0 on a voter reporting
	// about itself). Observers lists the lag of each observer the leader
	// streams to — populated only in the current leader's status.
	IsObserver  bool
	AppliedZxid uint64
	LagTxns     uint64
	Observers   []ObserverStatus

	// Ranges lists the shard's live migration markers (fenced or moved
	// hash ranges) — the operator-visible migration progress.
	Ranges []RangeStatus

	// Apply-pipeline observability: how many committed transactions
	// await application and in how many frames. Both zero on servers
	// predating the decoupled pipeline.
	ApplyLagTxns     uint64
	ApplyQueueFrames uint64
}

// RangeStatus is one migration marker in a server's status report.
type RangeStatus struct {
	Lo    uint64
	Hi    uint64
	Dest  int
	Epoch uint64
	Moved bool
}

// ObserverStatus is one observer replica's replication state as
// reported by the leader that streams to it.
type ObserverStatus = zab.ObserverLag

// Status queries the session's home server.
func (s *Session) Status() (Status, error) {
	w := wire.GetWriter()
	w.Uint8(opStatus)
	payload, _, err := s.exchange(context.Background(), w)
	if err != nil {
		return Status{}, err
	}
	return decodeStatus(payload)
}

func decodeStatus(payload []byte) (Status, error) {
	r := wire.NewReader(payload)
	st := Status{
		ServerID: r.Uint64(),
		LeaderID: r.Uint64(),
		Epoch:    r.Uint64(),
		IsLeader: r.Bool(),
		Znodes:   r.Uint64(),
	}
	st.LastDurableZxid = r.Uint64()
	st.WALSegments = r.Uint64()
	st.FsyncBatchTxns = r.Uint64()
	st.IsObserver = r.Bool()
	st.AppliedZxid = r.Uint64()
	st.LagTxns = r.Uint64()
	// An observer entry costs 32 bytes and a range entry 29: a count the
	// remaining bytes cannot hold is rejected before anything is
	// allocated for it.
	n := r.Uint32()
	if r.Err() == nil && int(n) > r.Remaining()/32 {
		r.Fail(fmt.Errorf("%d observers in %d bytes", n, r.Remaining()))
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		st.Observers = append(st.Observers, ObserverStatus{
			ID:          r.Uint64(),
			AppliedZxid: r.Uint64(),
			LagTxns:     r.Uint64(),
			LagMS:       r.Uint64(),
		})
	}
	rn := r.Uint32()
	if r.Err() == nil && int(rn) > r.Remaining()/29 {
		r.Fail(fmt.Errorf("%d ranges in %d bytes", rn, r.Remaining()))
	}
	for i := uint32(0); i < rn && r.Err() == nil; i++ {
		st.Ranges = append(st.Ranges, RangeStatus{
			Lo:    r.Uint64(),
			Hi:    r.Uint64(),
			Dest:  int(r.Uint32()),
			Epoch: r.Uint64(),
			Moved: r.Bool(),
		})
	}
	if r.Err() == nil && r.Remaining() >= 16 {
		st.ApplyLagTxns = r.Uint64()
		st.ApplyQueueFrames = r.Uint64()
	}
	if err := r.Err(); err != nil {
		return Status{}, fmt.Errorf("coord: malformed status reply: %w", err)
	}
	return st, nil
}

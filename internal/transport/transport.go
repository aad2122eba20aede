// Package transport provides the RPC plumbing used by every service in
// this repository: the coordination service ensemble, the Lustre-like
// MDS/OSS servers and the PVFS-like metadata/data servers.
//
// Two interchangeable implementations are provided:
//
//   - TCP: real sockets via net, multiplexing concurrent calls over a
//     single connection with length-prefixed frames (internal/wire).
//     This is what cmd/coordd and the integration tests use.
//   - InProc: a channel-free direct-dispatch network keyed by address
//     string, used to boot whole clusters inside one test process.
//
// A Latency wrapper injects a synthetic per-call delay so functional
// runs can approximate the paper's 1 GigE interconnect without the
// discrete-event simulator.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Handler processes one request payload and returns a response payload.
// Returning an error transmits the error text to the caller instead of
// a payload.
//
// Ownership contract: req is only valid for the duration of the call.
// The transport may hand the handler a pooled frame buffer (TCP) or
// the caller's own encode buffer (InProc), and reuses it once Handle
// returns and the response has been written. A handler that needs the
// bytes longer — e.g. to append a transaction to a replication log —
// must copy them. Returning a sub-slice of req as the response is
// allowed: the response is consumed before the buffer is recycled.
type Handler interface {
	Handle(req []byte) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req []byte) ([]byte, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(req []byte) ([]byte, error) { return f(req) }

// Conn is a client connection to one server.
type Conn interface {
	// Call sends a request and blocks for the matching response.
	// Safe for concurrent use.
	Call(req []byte) ([]byte, error)
	Close() error
}

// CallResult is the outcome of one asynchronous call.
type CallResult struct {
	Payload []byte
	Err     error
}

// AsyncCaller is implemented by connections that can submit a request
// without blocking for its response — the wire-pipelining primitive:
// many requests in flight over one connection, each tagged so the
// responses find their callers. The TCP connection implements it
// natively (its frames already carry call IDs); every other Conn gets
// the behaviour from the CallAsync helper.
type AsyncCaller interface {
	// CallAsync submits req and returns a channel (buffered, capacity
	// one) that will receive exactly one CallResult. Abandoning the
	// channel is safe: the result is dropped, never blocking the
	// connection's reader.
	CallAsync(req []byte) <-chan CallResult
}

// CallAsync submits req on c without waiting for the response. It uses
// the connection's native pipelining when available and otherwise
// falls back to a goroutine around the blocking Call — semantically
// identical, at the cost of one goroutine per in-flight request.
func CallAsync(c Conn, req []byte) <-chan CallResult {
	if ac, ok := c.(AsyncCaller); ok {
		return ac.CallAsync(req)
	}
	ch := make(chan CallResult, 1)
	go func() {
		payload, err := c.Call(req)
		ch <- CallResult{Payload: payload, Err: err}
	}()
	return ch
}

// Network abstracts how servers listen and clients dial, so the same
// service code runs over TCP or in-process dispatch.
type Network interface {
	// Listen registers a handler at addr and starts serving.
	Listen(addr string, h Handler) (io.Closer, error)
	// Dial connects to the server registered at addr.
	Dial(addr string) (Conn, error)
}

// ErrClosed is returned by calls on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// RemoteError carries an error string produced by the server handler.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

const (
	statusOK  = 0
	statusErr = 1
)

// --- TCP implementation ---------------------------------------------

// TCP is a Network over real sockets. The zero value is ready to use;
// addresses are host:port strings (use "127.0.0.1:0" to pick a free
// port and read it back from the returned listener).
type TCP struct{}

// connReadBuf sizes each connection's read buffer: a frame that fits
// arrives in one read, and frames pipelined behind it in the same one.
const connReadBuf = 16 << 10

// A tcpServer serves each request on the goroutine that read it. One
// goroutine at a time holds a connection's reader role; having read a
// request, it passes the role to an idle worker (or a new one) and
// handles the request itself, so a handler that parks — WaitEvents, a
// proposal — never holds up the next request on its connection, and no
// request waits for a hand-off before it is handled. A worker that has
// replied parks for the next reader role of any connection; workers are
// reused, so their grown stacks are too.
type tcpServer struct {
	ln      net.Listener
	handler Handler
	wg      sync.WaitGroup // the accept loop and every worker

	idle  chan *serverConn // a parked worker takes a reader role here
	nidle atomic.Int32     // parked workers
	done  chan struct{}    // closed by Close: parked workers exit

	mu     sync.Mutex
	conns  map[*serverConn]bool
	closed bool
}

// maxIdleWorkers bounds the parked workers of one server; a worker that
// finds that many parked when it replies exits instead.
const maxIdleWorkers = 32

// serverConn is one accepted connection.
type serverConn struct {
	c   net.Conn
	br  *bufio.Reader // read only by the holder of the reader role
	wmu sync.Mutex    // serializes reply writes
	// refs counts the reader role and each request being served; the
	// connection is closed when the last of them is released.
	refs atomic.Int32
}

// Listen implements Network. The returned io.Closer also satisfies
// interface{ Addr() net.Addr } so callers can recover the bound port.
func (TCP) Listen(addr string, h Handler) (io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &tcpServer{
		ln:      ln,
		handler: h,
		idle:    make(chan *serverConn),
		done:    make(chan struct{}),
		conns:   make(map[*serverConn]bool),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listener address.
func (s *tcpServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every accepted connection (so blocked
// readers unwind), and waits for every in-flight handler and worker.
func (s *tcpServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for cs := range s.conns {
		conns = append(conns, cs)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, cs := range conns {
		cs.c.Close()
	}
	close(s.done)
	s.wg.Wait()
	return err
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cs := &serverConn{c: c, br: bufio.NewReaderSize(c, connReadBuf)}
		cs.refs.Store(1) // the reader role
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[cs] = true
		s.mu.Unlock()
		s.handoff(cs)
	}
}

// handoff gives cs's reader role to a parked worker, or to a new one
// when none is parked.
func (s *tcpServer) handoff(cs *serverConn) {
	select {
	case s.idle <- cs:
	default:
		s.wg.Add(1)
		go s.worker(cs)
	}
}

// worker holds cs's reader role: it serves one request, then parks for
// the next reader role it is handed.
func (s *tcpServer) worker(cs *serverConn) {
	defer s.wg.Done()
	for {
		s.serveOne(cs)
		if s.nidle.Add(1) > maxIdleWorkers {
			s.nidle.Add(-1)
			return
		}
		select {
		case cs = <-s.idle:
			s.nidle.Add(-1)
		case <-s.done:
			s.nidle.Add(-1)
			return
		}
	}
}

// release drops one reference to cs, closing the connection with the
// last: the reader stopped and every reply it read a request for went
// out.
func (s *tcpServer) release(cs *serverConn) {
	if cs.refs.Add(-1) > 0 {
		return
	}
	s.mu.Lock()
	delete(s.conns, cs)
	s.mu.Unlock()
	cs.c.Close()
}

// frameBufPool recycles request-frame buffers across connections and
// requests. A buffer is released back to the pool only after the
// handler has returned AND its response hit the socket, so a handler
// may borrow from the frame (zero-copy decode) and even return a
// sub-slice of it as the response. Oversized buffers are dropped on
// release so one large frame cannot pin its footprint.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const pooledFrameMaxCap = 64 << 10

func putFrameBuf(bufp *[]byte, frame []byte) {
	if cap(frame) > cap(*bufp) {
		*bufp = frame
	}
	if cap(*bufp) <= pooledFrameMaxCap {
		frameBufPool.Put(bufp)
	}
}

// serveOne reads the next request on cs as the holder of its reader
// role, passes the role on and serves the request. A read error or a
// malformed frame ends the connection's reading instead.
func (s *tcpServer) serveOne(cs *serverConn) {
	bufp := frameBufPool.Get().(*[]byte)
	frame, err := wire.ReadFrameInto(cs.br, (*bufp)[:0])
	if err != nil {
		frameBufPool.Put(bufp)
		s.release(cs)
		return
	}
	var r wire.Reader
	r.Reset(frame)
	id := r.Uint64()
	req := r.BorrowBytes()
	if r.Err() != nil {
		putFrameBuf(bufp, frame)
		s.release(cs) // protocol violation; drop the connection
		return
	}
	cs.refs.Add(1) // this request, before the next reader can release the role
	s.handoff(cs)

	resp, herr := s.handler.Handle(req)
	// Compose the whole reply — length header included, patched once
	// the size is known — in a pooled scratch writer so the frame leaves
	// in a single Write with no per-reply make.
	w := wire.GetWriter()
	w.Uint32(0) // frame length, patched below
	w.Uint64(id)
	if herr != nil {
		w.Uint8(statusErr)
		w.String(herr.Error())
	} else {
		w.Uint8(statusOK)
		w.Bytes32(resp)
	}
	w.PatchUint32(0, uint32(w.Len()-4))
	cs.wmu.Lock()
	if w.Len()-4 <= wire.MaxFrameSize {
		_, _ = cs.c.Write(w.Bytes())
	}
	cs.wmu.Unlock()
	wire.PutWriter(w)
	// The reply (which may alias req) is on the wire; the request
	// frame's lifetime ends here.
	putFrameBuf(bufp, frame)
	s.release(cs)
}

type tcpConn struct {
	c    net.Conn
	wmu  sync.Mutex  // guards wbuf and socket writes
	wbuf wire.Writer // per-connection scratch encoder for request frames

	mu     sync.Mutex
	nextID uint64
	pend   map[uint64]chan CallResult
	closed bool
}

// Dial implements Network.
func (TCP) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	tc := &tcpConn{c: c, pend: make(map[uint64]chan CallResult)}
	go tc.readLoop()
	return tc, nil
}

func (tc *tcpConn) readLoop() {
	br := bufio.NewReaderSize(tc.c, connReadBuf)
	// One response buffer reused across frames: the payload handed to a
	// waiter is copied out below, so the next iteration may overwrite.
	var rbuf []byte
	for {
		frame, err := wire.ReadFrameInto(br, rbuf[:0])
		if err != nil {
			tc.failAll(err)
			return
		}
		rbuf = frame
		r := wire.NewReader(frame)
		id := r.Uint64()
		status := r.Uint8()
		var res CallResult
		if status == statusErr {
			res.Err = &RemoteError{Msg: r.String()}
		} else {
			res.Payload = r.BytesCopy32()
		}
		if r.Err() != nil {
			tc.failAll(r.Err())
			return
		}
		tc.mu.Lock()
		ch, ok := tc.pend[id]
		delete(tc.pend, id)
		tc.mu.Unlock()
		if ok {
			ch <- res
		}
	}
}

func (tc *tcpConn) failAll(err error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.closed {
		err = ErrClosed
	}
	for id, ch := range tc.pend {
		delete(tc.pend, id)
		ch <- CallResult{Err: err}
	}
	tc.closed = true
}

// CallAsync implements AsyncCaller natively: the request frame carries
// a fresh call ID and the per-call channel is parked in the pending
// map for readLoop to complete — no goroutine per in-flight request,
// arbitrarily many calls pipelined over the one socket.
func (tc *tcpConn) CallAsync(req []byte) <-chan CallResult {
	ch := make(chan CallResult, 1)
	tc.mu.Lock()
	if tc.closed {
		tc.mu.Unlock()
		ch <- CallResult{Err: ErrClosed}
		return ch
	}
	tc.nextID++
	id := tc.nextID
	tc.pend[id] = ch
	tc.mu.Unlock()

	// Encode into the connection's scratch writer — header, call ID and
	// payload leave in one Write — instead of a fresh buffer per call.
	tc.wmu.Lock()
	tc.wbuf.Reset()
	tc.wbuf.Uint32(0) // frame length, patched below
	tc.wbuf.Uint64(id)
	tc.wbuf.Bytes32(req)
	tc.wbuf.PatchUint32(0, uint32(tc.wbuf.Len()-4))
	var err error
	if tc.wbuf.Len()-4 > wire.MaxFrameSize {
		err = wire.ErrFrameTooLarge
	} else {
		_, err = tc.c.Write(tc.wbuf.Bytes())
	}
	tc.wmu.Unlock()
	if err != nil {
		tc.mu.Lock()
		_, pending := tc.pend[id]
		delete(tc.pend, id)
		tc.mu.Unlock()
		if pending {
			ch <- CallResult{Err: err}
		}
	}
	return ch
}

// Call implements Conn as a blocking wait on CallAsync.
func (tc *tcpConn) Call(req []byte) ([]byte, error) {
	res := <-tc.CallAsync(req)
	return res.Payload, res.Err
}

// Close implements Conn.
func (tc *tcpConn) Close() error {
	tc.mu.Lock()
	already := tc.closed
	tc.closed = true
	tc.mu.Unlock()
	if already {
		return nil
	}
	err := tc.c.Close()
	return err
}

// --- In-process implementation --------------------------------------

// InProc is a Network that dispatches calls directly to registered
// handlers inside the same process. It is the workhorse for unit and
// integration tests and for the full-cluster examples.
type InProc struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewInProc returns an empty in-process network.
func NewInProc() *InProc {
	return &InProc{handlers: make(map[string]Handler)}
}

type inprocListener struct {
	n    *InProc
	addr string
}

func (l *inprocListener) Close() error {
	l.n.mu.Lock()
	defer l.n.mu.Unlock()
	delete(l.n.handlers, l.addr)
	return nil
}

// Listen implements Network.
func (n *InProc) Listen(addr string, h Handler) (io.Closer, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.handlers[addr]; dup {
		return nil, fmt.Errorf("transport: address %s already registered", addr)
	}
	n.handlers[addr] = h
	return &inprocListener{n: n, addr: addr}, nil
}

type inprocConn struct {
	n      *InProc
	addr   string
	closed atomic.Bool
}

// Dial implements Network. Dialing succeeds even before the handler is
// registered is NOT allowed: the address must be listening.
func (n *InProc) Dial(addr string) (Conn, error) {
	n.mu.RLock()
	_, ok := n.handlers[addr]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %s", addr)
	}
	return &inprocConn{n: n, addr: addr}, nil
}

// Call implements Conn. The request is dispatched zero-copy: the
// handler sees the caller's own buffer, which the Handler ownership
// contract already forbids retaining past the call.
func (c *inprocConn) Call(req []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.n.mu.RLock()
	h, ok := c.n.handlers[c.addr]
	c.n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: listener at %s went away", c.addr)
	}
	resp, err := h.Handle(req)
	if err != nil {
		return nil, &RemoteError{Msg: err.Error()}
	}
	return resp, nil
}

// Close implements Conn.
func (c *inprocConn) Close() error {
	c.closed.Store(true)
	return nil
}

// --- Latency wrapper -------------------------------------------------

// Latency wraps a Network, sleeping for delay() before each call is
// dispatched, to approximate interconnect round-trip time in
// functional (non-DES) runs.
type Latency struct {
	Inner Network
	Delay func() time.Duration
}

// Listen implements Network by delegating to the inner network.
func (l *Latency) Listen(addr string, h Handler) (io.Closer, error) {
	return l.Inner.Listen(addr, h)
}

// Dial implements Network; calls on the returned Conn are delayed.
func (l *Latency) Dial(addr string) (Conn, error) {
	c, err := l.Inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &latencyConn{inner: c, delay: l.Delay}, nil
}

type latencyConn struct {
	inner Conn
	delay func() time.Duration
}

func (c *latencyConn) Call(req []byte) ([]byte, error) {
	if d := c.delay(); d > 0 {
		time.Sleep(d)
	}
	return c.inner.Call(req)
}

func (c *latencyConn) Close() error { return c.inner.Close() }

package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// The traced run wraps every layer boundary the program exposes in a
// decorator that records a span. Nothing inside internal/* is edited:
// client-side spans of one op (vfs -> shard -> coord.client ->
// transport call) share the mount's op id and are parent-linked; a
// handler span is linked to the transport call that caused it through
// an 8-byte call id the transport decorator prepends to the request
// and strips again before the program's handler sees it. Peer-call and
// storage spans are caused by batches of ops, carry no op id, and are
// attributed per acked write by count.

// maxStoredSpans bounds the raw spans kept for the trace file; every
// span still feeds its series, so the metrics cover the whole window.
const maxStoredSpans = 60000

// span is one record of the trace file. Times are nanoseconds since
// the traced window opened.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
}

// series collects the durations of one kind of span.
type series struct {
	layer string
	mu    sync.Mutex
	durs  []int64
}

func (s *series) add(ns int64) {
	s.mu.Lock()
	s.durs = append(s.durs, ns)
	s.mu.Unlock()
}

func (s *series) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.durs)
}

func (s *series) sum() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, d := range s.durs {
		t += d
	}
	return t
}

// quantileUS returns the q-quantile of the series in microseconds.
func (s *series) quantileUS(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantileNS(s.durs, q) / 1e3
}

// tracer owns the spans, series and counters of one traced window.
type tracer struct {
	on  atomic.Bool
	t0  time.Time
	ids atomic.Uint64

	smu    sync.Mutex
	spans  []span
	stored atomic.Int64

	vfs       map[opKind]*series
	coreSelf  *series // vfs span minus the union of its children
	backend   *series
	shardRPC  *series // decorator above shard.Router
	clientRPC *series // decorator on each session
	shardHits []atomic.Int64

	clientCall  *series // transport call to a client address
	peerCall    *series // transport call to a peer address
	peerPropose *series // the msgPropose subset: the quorum round trip
	wire        *series // client call minus the handler it caused
	handleRead  *series
	handleWrite *series
	handleOther *series
	handlePeer  *series
	handlerDurs [64]handlerShard
	busyNS      atomic.Int64 // per client listener: time with a read or write handler running
	listeners   atomic.Int64 // client listeners
	reqBytes    atomic.Int64
	respBytes   atomic.Int64
	peerBytes   atomic.Int64

	append       *series
	sync         *series
	hardState    *series
	appendFrames atomic.Int64
	appendTxns   atomic.Int64
	walBytes     atomic.Int64
}

type handlerShard struct {
	mu sync.Mutex
	m  map[uint64]int64
}

func newTracer(shards int) *tracer {
	t := &tracer{
		vfs:       map[opKind]*series{},
		coreSelf:  &series{layer: "core"},
		backend:   &series{layer: "backend"},
		shardRPC:  &series{layer: "shard"},
		clientRPC: &series{layer: "coord.client"},
		shardHits: make([]atomic.Int64, shards),

		clientCall:  &series{layer: "transport"},
		peerCall:    &series{layer: "transport"},
		peerPropose: &series{layer: "zab"},
		wire:        &series{layer: "transport"},
		handleRead:  &series{layer: "coord.server"},
		handleWrite: &series{layer: "coord.server"},
		handleOther: &series{layer: "coord.server"},
		handlePeer:  &series{layer: "zab"},

		append:    &series{layer: "storage"},
		sync:      &series{layer: "storage"},
		hardState: &series{layer: "storage"},
	}
	for _, k := range []opKind{opMkdir, opRmdir, opCreate, opUnlink, opRename, opChmod, opStat, opOpen, opReaddir} {
		t.vfs[k] = &series{layer: "vfs"}
	}
	for i := range t.handlerDurs {
		t.handlerDurs[i].m = map[uint64]int64{}
	}
	return t
}

// start opens the traced window: spans that end before it are dropped.
func (t *tracer) start() {
	t.t0 = time.Now()
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

// emit records one finished span into its series and, while there is
// room, into the trace file.
func (t *tracer) emit(s *series, name string, start, end time.Time, op, id, parent uint64) {
	if !t.on.Load() || start.Before(t.t0) {
		return
	}
	s.add(int64(end.Sub(start)))
	if t.stored.Add(1) > maxStoredSpans {
		return
	}
	sp := span{Name: name, Layer: s.layer, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Op: op, ID: id, Parent: parent}
	t.smu.Lock()
	t.spans = append(t.spans, sp)
	t.smu.Unlock()
}

// writeFile dumps the kept spans as bench/out/trace-<workload>.json.
func (t *tracer) writeFile(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.smu.Lock()
	defer t.smu.Unlock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int64  `json:"spans_not_kept"`
		Spans    []span `json:"spans"`
	}{workload, seed, max(0, t.stored.Load()-int64(len(t.spans))), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// --- per-mount op context ----------------------------------------------

// mountCtx carries the op a mount is executing, so the decorators
// below the vfs boundary can name their parent. A traced mount runs
// one op at a time.
type mountCtx struct {
	t   *tracer
	idx uint64

	mu       sync.Mutex
	seq      uint64 // ops begun; the op id is idx<<48 | seq
	vfsID    uint64
	children []interval

	routerID atomic.Uint64 // the shard-level span in progress, if any
}

func (m *mountCtx) enter() (id uint64, start time.Time) {
	id = m.t.ids.Add(1)
	m.mu.Lock()
	m.seq++
	m.vfsID = id
	m.children = m.children[:0]
	m.mu.Unlock()
	return id, time.Now()
}

func (m *mountCtx) exit(kind opKind, id uint64, start time.Time) {
	end := time.Now()
	m.mu.Lock()
	self := selfTime(start.UnixNano(), end.UnixNano(), m.children)
	op := m.opLocked()
	m.vfsID = 0
	m.mu.Unlock()
	m.t.emit(m.t.vfs[kind], kind.String(), start, end, op, id, 0)
	if m.t.on.Load() && !start.Before(m.t.t0) {
		m.t.coreSelf.add(self)
	}
}

// child registers [start,end) as time the current vfs span spent in a
// lower layer and returns the ids to link the child span with.
func (m *mountCtx) child(start, end time.Time) (op, parent uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vfsID == 0 {
		return m.opLocked(), 0
	}
	m.children = append(m.children, interval{start.UnixNano(), end.UnixNano()})
	return m.opLocked(), m.vfsID
}

func (m *mountCtx) opLocked() uint64 { return m.idx<<48 | m.seq }

func (m *mountCtx) currentOp() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.opLocked()
}

// farFuture stands in for the end of an asynchronous child that is
// still running; selfTime clamps it to the parent's end.
var farFuture = time.Unix(0, math.MaxInt64)

// --- vfs and back-end decorators ---------------------------------------

// tracedFS wraps the DUFS mount itself: one root span per vfs call.
type tracedFS struct {
	inner vfs.FileSystem
	m     *mountCtx
}

func (f *tracedFS) Mkdir(p string, perm uint32) error {
	id, st := f.m.enter()
	defer f.m.exit(opMkdir, id, st)
	return f.inner.Mkdir(p, perm)
}
func (f *tracedFS) Rmdir(p string) error {
	id, st := f.m.enter()
	defer f.m.exit(opRmdir, id, st)
	return f.inner.Rmdir(p)
}
func (f *tracedFS) Create(p string, perm uint32) (vfs.Handle, error) {
	id, st := f.m.enter()
	defer f.m.exit(opCreate, id, st)
	return f.inner.Create(p, perm)
}
func (f *tracedFS) Open(p string, flags int) (vfs.Handle, error) {
	id, st := f.m.enter()
	defer f.m.exit(opOpen, id, st)
	return f.inner.Open(p, flags)
}
func (f *tracedFS) Unlink(p string) error {
	id, st := f.m.enter()
	defer f.m.exit(opUnlink, id, st)
	return f.inner.Unlink(p)
}
func (f *tracedFS) Stat(p string) (vfs.FileInfo, error) {
	id, st := f.m.enter()
	defer f.m.exit(opStat, id, st)
	return f.inner.Stat(p)
}
func (f *tracedFS) Readdir(p string) ([]vfs.DirEntry, error) {
	id, st := f.m.enter()
	defer f.m.exit(opReaddir, id, st)
	return f.inner.Readdir(p)
}
func (f *tracedFS) Rename(o, n string) error {
	id, st := f.m.enter()
	defer f.m.exit(opRename, id, st)
	return f.inner.Rename(o, n)
}
func (f *tracedFS) Chmod(p string, perm uint32) error {
	id, st := f.m.enter()
	defer f.m.exit(opChmod, id, st)
	return f.inner.Chmod(p, perm)
}

// The workloads never call the remaining four; they pass through.
func (f *tracedFS) Symlink(t, l string) error           { return f.inner.Symlink(t, l) }
func (f *tracedFS) Readlink(p string) (string, error)   { return f.inner.Readlink(p) }
func (f *tracedFS) Truncate(p string, size int64) error { return f.inner.Truncate(p, size) }
func (f *tracedFS) Access(p string, mask uint32) error  { return f.inner.Access(p, mask) }

// tracedBackend wraps one back-end mount as core sees it.
type tracedBackend struct {
	inner vfs.FileSystem
	m     *mountCtx
}

func (b *tracedBackend) done(name string, start time.Time) {
	end := time.Now()
	op, parent := b.m.child(start, end)
	b.m.t.emit(b.m.t.backend, name, start, end, op, b.m.t.ids.Add(1), parent)
}

func (b *tracedBackend) Mkdir(p string, perm uint32) error {
	defer b.done("mkdir", time.Now())
	return b.inner.Mkdir(p, perm)
}
func (b *tracedBackend) Rmdir(p string) error {
	defer b.done("rmdir", time.Now())
	return b.inner.Rmdir(p)
}
func (b *tracedBackend) Create(p string, perm uint32) (vfs.Handle, error) {
	defer b.done("create", time.Now())
	return b.inner.Create(p, perm)
}
func (b *tracedBackend) Open(p string, flags int) (vfs.Handle, error) {
	defer b.done("open", time.Now())
	return b.inner.Open(p, flags)
}
func (b *tracedBackend) Unlink(p string) error {
	defer b.done("unlink", time.Now())
	return b.inner.Unlink(p)
}
func (b *tracedBackend) Stat(p string) (vfs.FileInfo, error) {
	defer b.done("stat", time.Now())
	return b.inner.Stat(p)
}
func (b *tracedBackend) Readdir(p string) ([]vfs.DirEntry, error) {
	defer b.done("readdir", time.Now())
	return b.inner.Readdir(p)
}
func (b *tracedBackend) Rename(o, n string) error {
	defer b.done("rename", time.Now())
	return b.inner.Rename(o, n)
}
func (b *tracedBackend) Symlink(t, l string) error {
	defer b.done("symlink", time.Now())
	return b.inner.Symlink(t, l)
}
func (b *tracedBackend) Readlink(p string) (string, error) {
	defer b.done("readlink", time.Now())
	return b.inner.Readlink(p)
}
func (b *tracedBackend) Truncate(p string, size int64) error {
	defer b.done("truncate", time.Now())
	return b.inner.Truncate(p, size)
}
func (b *tracedBackend) Chmod(p string, perm uint32) error {
	defer b.done("chmod", time.Now())
	return b.inner.Chmod(p, perm)
}
func (b *tracedBackend) Access(p string, mask uint32) error {
	defer b.done("access", time.Now())
	return b.inner.Access(p, mask)
}

// --- coord.Client decorator --------------------------------------------

// sessCtx lets a session's transport spans name the client span that
// caused them. With several calls in flight (wan-pipeline) the cause
// is ambiguous and the link is left empty.
type sessCtx struct {
	inflight atomic.Int32
	cur      atomic.Uint64
}

// tracedClient wraps a coord.Client in one of two positions: above the
// shard router (layer "shard") or on one session (layer
// "coord.client"). Only the operations the data path uses are spanned;
// watches, events and Status pass through the embedded client.
type tracedClient struct {
	coord.Client
	t      *tracer
	m      *mountCtx // nil below vfs-less workloads
	s      *series
	router bool     // this is the span above shard.Router
	nested bool     // the parent is the mount's router span
	sess   *sessCtx // set on session-level decorators
	shard  int
}

type clientSpan struct {
	id         uint64
	start      time.Time
	op, parent uint64
}

// begin opens a span. An async span registers with the vfs scope right
// away (its end is not known when the vfs call returns).
func (c *tracedClient) begin(async bool) clientSpan {
	sp := clientSpan{id: c.t.ids.Add(1), start: time.Now()}
	if c.router {
		c.m.routerID.Store(sp.id)
	}
	if c.sess != nil {
		if c.sess.inflight.Add(1) == 1 {
			c.sess.cur.Store(sp.id)
		} else {
			c.sess.cur.Store(0)
		}
		if c.t.on.Load() {
			c.t.shardHits[c.shard].Add(1)
		}
	}
	switch {
	case c.m == nil:
		sp.op = sp.id
	case c.nested:
		sp.op, sp.parent = c.m.currentOp(), c.m.routerID.Load()
	case async:
		sp.op, sp.parent = c.m.child(sp.start, farFuture)
	}
	return sp
}

func (c *tracedClient) end(name string, sp clientSpan, async bool) {
	end := time.Now()
	if c.m != nil && !c.nested && !async {
		sp.op, sp.parent = c.m.child(sp.start, end)
	}
	if c.sess != nil {
		c.sess.inflight.Add(-1)
	}
	if c.router {
		c.m.routerID.CompareAndSwap(sp.id, 0)
	}
	c.t.emit(c.s, name, sp.start, end, sp.op, sp.id, sp.parent)
}

func (c *tracedClient) future(name string, sp clientSpan, f *coord.Future) *coord.Future {
	go func() {
		<-f.Done()
		c.end(name, sp, true)
	}()
	return f
}

func (c *tracedClient) CreateCtx(ctx context.Context, p string, data []byte, mode znode.CreateMode) (string, error) {
	sp := c.begin(false)
	defer c.end("create", sp, false)
	return c.Client.CreateCtx(ctx, p, data, mode)
}
func (c *tracedClient) GetCtx(ctx context.Context, p string) ([]byte, znode.Stat, error) {
	sp := c.begin(false)
	defer c.end("get", sp, false)
	return c.Client.GetCtx(ctx, p)
}
func (c *tracedClient) SetCtx(ctx context.Context, p string, data []byte, v int32) (znode.Stat, error) {
	sp := c.begin(false)
	defer c.end("set", sp, false)
	return c.Client.SetCtx(ctx, p, data, v)
}
func (c *tracedClient) DeleteCtx(ctx context.Context, p string, v int32) error {
	sp := c.begin(false)
	defer c.end("delete", sp, false)
	return c.Client.DeleteCtx(ctx, p, v)
}
func (c *tracedClient) ExistsCtx(ctx context.Context, p string) (znode.Stat, bool, error) {
	sp := c.begin(false)
	defer c.end("exists", sp, false)
	return c.Client.ExistsCtx(ctx, p)
}
func (c *tracedClient) ChildrenCtx(ctx context.Context, p string) ([]string, error) {
	sp := c.begin(false)
	defer c.end("children", sp, false)
	return c.Client.ChildrenCtx(ctx, p)
}
func (c *tracedClient) MultiCtx(ctx context.Context, ops []coord.Op) ([]coord.OpResult, error) {
	sp := c.begin(false)
	defer c.end("multi", sp, false)
	return c.Client.MultiCtx(ctx, ops)
}
func (c *tracedClient) ChildrenDataCtx(ctx context.Context, p string) ([]coord.ChildEntry, error) {
	sp := c.begin(false)
	defer c.end("childrendata", sp, false)
	return c.Client.ChildrenDataCtx(ctx, p)
}
func (c *tracedClient) SyncCtx(ctx context.Context) error {
	sp := c.begin(false)
	defer c.end("sync", sp, false)
	return c.Client.SyncCtx(ctx)
}
func (c *tracedClient) Begin(ctx context.Context, op coord.Op) *coord.Future {
	return c.future("begin", c.begin(true), c.Client.Begin(ctx, op))
}
func (c *tracedClient) BeginMulti(ctx context.Context, ops []coord.Op) *coord.Future {
	return c.future("beginmulti", c.begin(true), c.Client.BeginMulti(ctx, ops))
}
func (c *tracedClient) BeginChildrenData(ctx context.Context, p string) *coord.Future {
	return c.future("beginchildrendata", c.begin(true), c.Client.BeginChildrenData(ctx, p))
}

// The context-free forms are the Ctx forms with the background context,
// exactly as coord.Session defines them; routed here so they are spanned.
func (c *tracedClient) Create(p string, data []byte, mode znode.CreateMode) (string, error) {
	return c.CreateCtx(context.Background(), p, data, mode)
}
func (c *tracedClient) Get(p string) ([]byte, znode.Stat, error) {
	return c.GetCtx(context.Background(), p)
}
func (c *tracedClient) Set(p string, data []byte, v int32) (znode.Stat, error) {
	return c.SetCtx(context.Background(), p, data, v)
}
func (c *tracedClient) Delete(p string, v int32) error {
	return c.DeleteCtx(context.Background(), p, v)
}
func (c *tracedClient) Exists(p string) (znode.Stat, bool, error) {
	return c.ExistsCtx(context.Background(), p)
}
func (c *tracedClient) Children(p string) ([]string, error) {
	return c.ChildrenCtx(context.Background(), p)
}
func (c *tracedClient) Multi(ops []coord.Op) ([]coord.OpResult, error) {
	return c.MultiCtx(context.Background(), ops)
}
func (c *tracedClient) ChildrenData(p string) ([]coord.ChildEntry, error) {
	return c.ChildrenDataCtx(context.Background(), p)
}
func (c *tracedClient) Sync() error { return c.SyncCtx(context.Background()) }

// --- transport decorator -----------------------------------------------

// Request classes by the client protocol's op byte (coord/api.go: the
// op codes are unexported, so the read and local ones are mirrored
// here and pinned by TestHandlerClassification). Everything else on a
// client address is a replicated write.
func requestClass(op byte) string {
	switch op {
	case 4, 5, 6, 11, 12, 13, 16, 18: // get, exists, children, their watch forms, childrenData, leaseRead
		return "read"
	case 9, 14, 17, 24, 25: // status, pollEvents, waitEvents, rangeExport, rangeState
		return "other"
	}
	return "write"
}

// zabMsgPropose is the first byte of a leader->follower propose call
// (zab/messages.go), the quorum round trip of a write.
const zabMsgPropose = 1

const callTagLen = 8

// tracedNet has the shape of transport.Latency: a Network that wraps
// the connections and handlers of another. One root instance serves
// the servers; each client session dials through a view that knows the
// session's context.
type tracedNet struct {
	t     *tracer
	inner transport.Network
	peers *sync.Map // peer (server<->server) addresses; all others are client addresses
	m     *mountCtx
	sess  *sessCtx
}

func newTracedNet(t *tracer, inner transport.Network) *tracedNet {
	return &tracedNet{t: t, inner: inner, peers: &sync.Map{}}
}

// view returns the network as one client session sees it.
func (n *tracedNet) view(m *mountCtx, s *sessCtx) *tracedNet {
	v := *n
	v.m, v.sess = m, s
	return &v
}

func (n *tracedNet) isPeer(addr string) bool {
	_, ok := n.peers.Load(addr)
	return ok
}

// Listen implements transport.Network.
func (n *tracedNet) Listen(addr string, h transport.Handler) (io.Closer, error) {
	th := &tracedHandler{t: n.t, inner: h, peer: n.isPeer(addr)}
	if !th.peer {
		n.t.listeners.Add(1)
	}
	return n.inner.Listen(addr, th)
}

// Dial implements transport.Network. The wrapper offers CallAsync
// exactly when the wrapped connection does, so a traced session takes
// the same native-pipelining path as an untraced one.
func (n *tracedNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{t: n.t, inner: c, peer: n.isPeer(addr), m: n.m, sess: n.sess}
	if ac, ok := c.(transport.AsyncCaller); ok {
		return &tracedAsyncConn{tracedConn: tc, async: ac}, nil
	}
	return tc, nil
}

type tracedConn struct {
	t     *tracer
	inner transport.Conn
	peer  bool
	m     *mountCtx
	sess  *sessCtx
}

type callSpan struct {
	id    uint64
	start time.Time
	first byte
	reqN  int
}

func (c *tracedConn) tag(req []byte) (callSpan, []byte) {
	cs := callSpan{id: c.t.ids.Add(1), reqN: len(req)}
	if len(req) > 0 {
		cs.first = req[0]
	}
	buf := make([]byte, callTagLen+len(req))
	binary.BigEndian.PutUint64(buf, cs.id)
	copy(buf[callTagLen:], req)
	cs.start = time.Now()
	return cs, buf
}

func (c *tracedConn) done(cs callSpan, resp []byte) {
	end := time.Now()
	t := c.t
	if !t.on.Load() || cs.start.Before(t.t0) {
		return
	}
	if c.peer {
		t.peerBytes.Add(int64(cs.reqN + len(resp)))
		t.emit(t.peerCall, "peer_call", cs.start, end, 0, cs.id, 0)
		if cs.first == zabMsgPropose {
			t.peerPropose.add(int64(end.Sub(cs.start)))
		}
		return
	}
	var op, parent uint64
	if c.m != nil {
		op = c.m.currentOp()
	}
	if c.sess != nil {
		parent = c.sess.cur.Load()
	}
	class := requestClass(cs.first)
	if class != "other" {
		t.reqBytes.Add(int64(cs.reqN))
		t.respBytes.Add(int64(len(resp)))
		if h, ok := t.takeHandlerDur(cs.id); ok {
			t.wire.add(int64(end.Sub(cs.start)) - h)
		}
	}
	t.emit(t.clientCall, "call_"+class, cs.start, end, op, cs.id, parent)
}

// Call implements transport.Conn.
func (c *tracedConn) Call(req []byte) ([]byte, error) {
	cs, buf := c.tag(req)
	resp, err := c.inner.Call(buf)
	c.done(cs, resp)
	return resp, err
}

// Close implements transport.Conn.
func (c *tracedConn) Close() error { return c.inner.Close() }

// tracedAsyncConn is tracedConn over a connection with native
// pipelining.
type tracedAsyncConn struct {
	*tracedConn
	async transport.AsyncCaller
}

var _ transport.AsyncCaller = (*tracedAsyncConn)(nil)

// CallAsync implements transport.AsyncCaller.
func (c *tracedAsyncConn) CallAsync(req []byte) <-chan transport.CallResult {
	cs, buf := c.tag(req)
	in := c.async.CallAsync(buf)
	out := make(chan transport.CallResult, 1)
	go func() {
		res := <-in
		c.done(cs, res.Payload)
		out <- res
	}()
	return out
}

type tracedHandler struct {
	t     *tracer
	inner transport.Handler
	peer  bool

	mu        sync.Mutex
	active    int
	busySince time.Time
}

// occupy tracks the union of this listener's running read and write
// handlers, so that overlapping requests count once towards busy time.
func (h *tracedHandler) occupy(delta int, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if delta > 0 && h.active == 0 {
		h.busySince = now
	}
	h.active += delta
	if delta < 0 && h.active == 0 && h.t.on.Load() {
		h.t.busyNS.Add(int64(now.Sub(maxTime(h.busySince, h.t.t0))))
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

var errUntagged = errors.New("bench: request without a call tag reached a traced handler")

// Handle implements transport.Handler.
func (h *tracedHandler) Handle(req []byte) ([]byte, error) {
	if len(req) < callTagLen {
		return nil, errUntagged
	}
	call := binary.BigEndian.Uint64(req)
	req = req[callTagLen:]
	var first byte
	if len(req) > 0 {
		first = req[0]
	}
	class := requestClass(first)
	counted := !h.peer && class != "other"
	start := time.Now()
	if counted {
		h.occupy(+1, start)
	}
	resp, err := h.inner.Handle(req)
	end := time.Now()
	if counted {
		h.occupy(-1, end)
	}
	t := h.t
	if !t.on.Load() {
		return resp, err
	}
	if h.peer {
		t.emit(t.handlePeer, "peer_handle", start, end, 0, t.ids.Add(1), call)
		return resp, err
	}
	s := t.handleWrite
	switch class {
	case "read":
		s = t.handleRead
	case "other":
		s = t.handleOther
	}
	if class != "other" {
		t.putHandlerDur(call, int64(end.Sub(start)))
	}
	t.emit(s, "handle_"+class, start, end, 0, t.ids.Add(1), call)
	return resp, err
}

func (t *tracer) putHandlerDur(call uint64, ns int64) {
	sh := &t.handlerDurs[call%uint64(len(t.handlerDurs))]
	sh.mu.Lock()
	sh.m[call] = ns
	sh.mu.Unlock()
}

func (t *tracer) takeHandlerDur(call uint64) (int64, bool) {
	sh := &t.handlerDurs[call%uint64(len(t.handlerDurs))]
	sh.mu.Lock()
	ns, ok := sh.m[call]
	delete(sh.m, call)
	sh.mu.Unlock()
	return ns, ok
}

// --- storage decorator -------------------------------------------------

// walRecordOverhead mirrors the engine's record framing (storage.go):
// 8 bytes length+CRC, 14 bytes frame header, 4 per transaction.
const walRecordOverhead = 8 + 14

// tracedStorage wraps a member's durable engine through
// EnsembleConfig.WrapStorage.
type tracedStorage struct {
	zab.Storage
	t *tracer
}

// tracedStreamStorage is tracedStorage over an engine that streams
// snapshots, so the node keeps choosing the streaming path.
type tracedStreamStorage struct {
	*tracedStorage
	stream zab.StreamStorage
}

var _ zab.StreamStorage = (*tracedStreamStorage)(nil)

func wrapStorage(t *tracer, s zab.Storage) zab.Storage {
	ts := &tracedStorage{Storage: s, t: t}
	if ss, ok := s.(zab.StreamStorage); ok {
		return &tracedStreamStorage{tracedStorage: ts, stream: ss}
	}
	return ts
}

func (s *tracedStorage) Append(frames []zab.Frame) error {
	start := time.Now()
	err := s.Storage.Append(frames)
	end := time.Now()
	if s.t.on.Load() && err == nil {
		for _, f := range frames {
			n := int64(walRecordOverhead)
			for _, txn := range f.Txns {
				n += 4 + int64(len(txn))
			}
			s.t.walBytes.Add(n)
			s.t.appendTxns.Add(int64(len(f.Txns)))
		}
		s.t.appendFrames.Add(int64(len(frames)))
	}
	s.t.emit(s.t.append, "append", start, end, 0, s.t.ids.Add(1), 0)
	return err
}

func (s *tracedStorage) Sync() error {
	start := time.Now()
	err := s.Storage.Sync()
	s.t.emit(s.t.sync, "sync", start, time.Now(), 0, s.t.ids.Add(1), 0)
	return err
}

func (s *tracedStorage) SaveHardState(epoch, granted uint64) error {
	start := time.Now()
	err := s.Storage.SaveHardState(epoch, granted)
	s.t.emit(s.t.hardState, "save_hard_state", start, time.Now(), 0, s.t.ids.Add(1), 0)
	return err
}

func (s *tracedStreamStorage) SaveSnapshotFrom(r io.Reader, zxid uint64) error {
	return s.stream.SaveSnapshotFrom(r, zxid)
}
func (s *tracedStreamStorage) InstallSnapshotFrom(r io.Reader, zxid uint64) error {
	return s.stream.InstallSnapshotFrom(r, zxid)
}
func (s *tracedStreamStorage) SnapshotStream() (io.ReadCloser, uint64, bool) {
	return s.stream.SnapshotStream()
}

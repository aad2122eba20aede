package costledger

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/coord/zab"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// heartbeat is the first byte of zab's heartbeat message, which runs on
// a clock and not per op: the peer byte counts leave it out.
const heartbeat = 2

// What the network counts: the calls client addresses serve, and the
// bytes each way of every peer request but a heartbeat.
const (
	clientCalls = iota
	peerBytesIn
	peerBytesOut
	nSlots
)

// netCounts is the network's totals at one instant.
type netCounts [nSlots]int64

// netTally is the ledger's one counting network: a transport.Network
// decorator that counts each request where it is served, by whether the
// address serving it is a client or a peer one. Dial is the inner
// network's, so native pipelining (transport.AsyncCaller) and every
// other property of the transport stay the program's own.
type netTally struct {
	transport.Network
	tcp bool // addresses are loopback ports, not in-process names

	mu      sync.Mutex
	clients map[string]bool // every address addr handed out: a client one?
	n       [nSlots]atomic.Int64
	busy    atomic.Int64 // peer requests being served
}

// addr has coord.EnsembleConfig.AddrFor's signature; kind "observer"
// names an observer's peer address.
func (t *netTally) addr(id uint64, kind string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := fmt.Sprintf("%s-%d-%d", kind, id, len(t.clients))
	if t.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		a = ln.Addr().String()
		ln.Close()
	}
	t.clients[a] = kind == "client"
	return a
}

func (t *netTally) Listen(addr string, h transport.Handler) (io.Closer, error) {
	t.mu.Lock()
	client := t.clients[addr]
	t.mu.Unlock()
	return t.Network.Listen(addr, transport.HandlerFunc(func(req []byte) ([]byte, error) {
		if client {
			t.n[clientCalls].Add(1)
			return h.Handle(req)
		}
		t.busy.Add(1)
		defer t.busy.Add(-1)
		resp, err := h.Handle(req)
		if len(req) > 0 && req[0] != heartbeat {
			t.n[peerBytesIn].Add(int64(len(req)))
			t.n[peerBytesOut].Add(int64(len(resp)))
		}
		return resp, err
	}))
}

func (t *netTally) counts() (c netCounts) {
	for i := range c {
		c[i] = t.n[i].Load()
	}
	return c
}

// storeTally is the ledger's one counting store: every member's
// zab.StreamStorage goes in through WrapStorage and counts its appends,
// its syncs and the snapshot bytes it saves or installs.
type storeTally struct{ appends, syncs, snapBytes atomic.Int64 }

func (t *storeTally) wrap(_ uint64, s zab.Storage) zab.Storage {
	return store{s.(zab.StreamStorage), t}
}

type store struct {
	zab.StreamStorage
	t *storeTally
}

func (s store) Append(f []zab.Frame) error { s.t.appends.Add(1); return s.StreamStorage.Append(f) }
func (s store) Sync() error                { s.t.syncs.Add(1); return s.StreamStorage.Sync() }
func (s store) SaveSnapshotFrom(r io.Reader, zxid uint64) error {
	return s.StreamStorage.SaveSnapshotFrom(reader{r, &s.t.snapBytes}, zxid)
}
func (s store) InstallSnapshotFrom(r io.Reader, zxid uint64) error {
	return s.StreamStorage.InstallSnapshotFrom(reader{r, &s.t.snapBytes}, zxid)
}

type reader struct {
	io.Reader
	n *atomic.Int64
}

func (r reader) Read(p []byte) (n int, err error) {
	n, err = r.Reader.Read(p)
	r.n.Add(int64(n))
	return n, err
}

// backend counts every call DUFS makes on a back-end mount.
type backend struct {
	fs
	n *atomic.Int64
}

type fs = vfs.FileSystem

func (b backend) Mkdir(p string, m uint32) error                { b.n.Add(1); return b.fs.Mkdir(p, m) }
func (b backend) Rmdir(p string) error                          { b.n.Add(1); return b.fs.Rmdir(p) }
func (b backend) Create(p string, m uint32) (vfs.Handle, error) { b.n.Add(1); return b.fs.Create(p, m) }
func (b backend) Open(p string, f int) (vfs.Handle, error)      { b.n.Add(1); return b.fs.Open(p, f) }
func (b backend) Unlink(p string) error                         { b.n.Add(1); return b.fs.Unlink(p) }
func (b backend) Stat(p string) (vfs.FileInfo, error)           { b.n.Add(1); return b.fs.Stat(p) }
func (b backend) Readdir(p string) ([]vfs.DirEntry, error)      { b.n.Add(1); return b.fs.Readdir(p) }
func (b backend) Rename(p, q string) error                      { b.n.Add(1); return b.fs.Rename(p, q) }
func (b backend) Symlink(p, q string) error                     { b.n.Add(1); return b.fs.Symlink(p, q) }
func (b backend) Readlink(p string) (string, error)             { b.n.Add(1); return b.fs.Readlink(p) }
func (b backend) Truncate(p string, n int64) error              { b.n.Add(1); return b.fs.Truncate(p, n) }
func (b backend) Chmod(p string, m uint32) error                { b.n.Add(1); return b.fs.Chmod(p, m) }
func (b backend) Access(p string, m uint32) error               { b.n.Add(1); return b.fs.Access(p, m) }

// Package costledger is the cost ledger, tests only: each row runs one op
// kind from one home on one stack and counts what it costs through one
// counting network (netTally), one counting store (storeTally) and,
// under DUFS, one counting back-end. DESIGN.md's ledger tables are its
// output, between cost-ledger marker comments; `go test -run
// TestCostLedger ./internal/costledger/` fails when DESIGN's copy
// differs and prints the table to paste.
//
// The ledger holds the counts no package test pins. The write path's
// windows, round trips and call delays, its allocation and wake-up
// budgets, and DUFS's removal, listing and rename round trips are
// pinned where they are implemented (DESIGN §8.5, §9.2, §9.5, §10.5,
// §14.1 name the tests), and the ledger does not count them again.
package costledger

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend/memfs"
	"repro/internal/coord"
	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// callDelay is what every call waits on a row that reads call delays:
// the best of a few ops rounds to the sequential calls on its path.
const callDelay = 20 * time.Millisecond

// A row is one op kind run from one home on one stack.
type row struct {
	op, at  string // the leading cells: the op, and its home or target
	in      string // the DESIGN section whose table shows the row
	n, warm int    // ops counted, and ops run before
	// delay has every call wait callDelay, and call delays are read. A
	// write's next client call then reaches the leader after the write's
	// last window has landed, so no window carries two writes' frames.
	delay bool
	// bounded rows run back to back, where a window may carry two ops'
	// frames and syncs in flight together share one: their append and
	// sync cells are bounds.
	bounded bool
	do      func(i int) error
}

// cost is what a row's ops took, in total.
type cost struct {
	ops                  int
	net                  netCounts
	appends, syncs, snap int64
	backend              int64
	best                 time.Duration // the fastest op
}

// A stack is one deployment a fixture's rows run on.
type stack struct {
	net     *netTally
	store   storeTally
	backend atomic.Int64
	delay   atomic.Int64
	groups  [][]*coord.Server // one per ensemble, observers included
}

func newStack(inner transport.Network) *stack {
	_, tcp := inner.(transport.TCP)
	return &stack{net: &netTally{Network: inner, tcp: tcp, clients: map[string]bool{}}}
}

func (s *stack) ensemble(t *testing.T, cfg coord.EnsembleConfig) *coord.Ensemble {
	cfg.Net = cmp.Or[transport.Network](cfg.Net, s.net)
	cfg.AddrFor, cfg.WrapStorage = s.net.addr, s.store.wrap
	e := must(coord.StartEnsemble(cfg))
	t.Cleanup(e.Stop)
	s.groups = append(s.groups, e.Servers)
	return e
}

func connect(t *testing.T, net transport.Network, addrs ...string) *coord.Session {
	s := must(coord.Connect(net, addrs))
	t.Cleanup(func() { s.Close() })
	return s
}

// must is v. A fixture that cannot be set up panics, and TestCostLedger
// fails that fixture with the error.
func must[T any](v T, err error) T {
	noErr(err)
	return v
}

func noErr(err error) {
	if err != nil {
		panic(err)
	}
}

// settle waits until every member has applied its leader's horizon and
// no peer request is being served: the last op's windows and acks are
// all counted.
func (s *stack) settle(t *testing.T) {
	quiet := func() bool {
		for _, g := range s.groups {
			var commit uint64
			for _, srv := range g {
				if srv.IsLeader() {
					commit = srv.CommitZxid()
				}
			}
			for _, srv := range g {
				if srv.LastApplied() < commit {
					return false
				}
			}
		}
		return s.net.busy.Load() == 0
	}
	for deadline := time.Now().Add(10 * time.Second); !quiet(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stack never went quiet: a member did not apply the horizon, or a peer request never returned")
		}
	}
}

func (s *stack) take() cost {
	return cost{net: s.net.counts(), appends: s.store.appends.Load(), syncs: s.store.syncs.Load(),
		snap: s.store.snapBytes.Load(), backend: s.backend.Load()}
}

// measure runs r's ops and returns what they cost.
func (s *stack) measure(t *testing.T, r row) cost {
	i := 0
	run := func() time.Duration {
		start := time.Now()
		if err := r.do(i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		i++
		return time.Since(start)
	}
	for range r.warm {
		run()
	}
	s.settle(t)
	b, best := s.take(), time.Duration(math.MaxInt64)
	if r.delay {
		s.delay.Store(int64(callDelay))
	}
	for range r.n {
		best = min(best, run())
	}
	s.delay.Store(0)
	s.settle(t)
	a := s.take()
	c := cost{ops: r.n, best: best, appends: a.appends - b.appends, syncs: a.syncs - b.syncs,
		snap: a.snap - b.snap, backend: a.backend - b.backend}
	for i := range c.net {
		c.net[i] = a.net[i] - b.net[i]
	}
	return c
}

// voters is three voters and an observer in process on memory stores,
// with a session homed on each role: what a write costs on the peer
// links and in the stores (§9.2), and the call delays of the leader
// reads (§13.4).
func voters(t *testing.T) (*stack, []row) {
	s := newStack(transport.NewInProc())
	net := &transport.Latency{Inner: s.net, Delay: func() time.Duration { return time.Duration(s.delay.Load()) }}
	const beat, timeout = 50 * time.Millisecond, time.Second
	e := s.ensemble(t, coord.EnsembleConfig{Servers: 3, Net: net, HeartbeatInterval: beat, ElectionTimeout: timeout})
	peers, obsAddr := e.PeerAddrs(), s.net.addr(101, "client")
	peers[101] = s.net.addr(101, "observer")
	obs := must(coord.NewServer(coord.ServerConfig{ID: 101, Observer: true, PeerAddrs: peers, ClientAddr: obsAddr, Net: net,
		HeartbeatInterval: beat, ElectionTimeout: timeout, WrapStorage: func(st zab.Storage) zab.Storage { return s.store.wrap(101, st) }}))
	t.Cleanup(obs.Stop)
	s.groups[0] = append(s.groups[0], obs)
	l, f := roles(t, e)
	// Each home writes under a directory of the same length, so its
	// windows carry the same bytes; its first create names it the leader.
	// The observer has joined once it applied them: every row settles first.
	homes, dirs := map[string]*coord.Session{}, map[string]string{}
	for name, addr := range map[string]string{"leader": e.ClientAddrs[l], "follower": e.ClientAddrs[f], "observer": obsAddr} {
		homes[name], dirs[name] = connect(t, net, addr), fmt.Sprintf("/h%d", len(dirs))
		must(homes[name].Create(dirs[name], nil, znode.ModePersistent))
	}
	rows := []row{{op: "session open", at: "follower", in: "§9.2", do: func(int) error {
		sess, err := coord.Connect(net, []string{e.ClientAddrs[f]})
		if err == nil {
			t.Cleanup(func() { sess.Close() })
		}
		return err
	}}}
	for _, at := range []string{"leader", "follower", "observer"} {
		sess, dir := homes[at], dirs[at]
		rows = append(rows, row{op: "create", at: at, in: "§9.2", do: func(i int) error {
			_, err := sess.Create(fmt.Sprintf("%s/n%03d", dir, i), nil, znode.ModePersistent)
			return err
		}})
	}
	for _, at := range []string{"leader", "follower", "observer"} {
		sess, dir := homes[at], dirs[at]
		rows = append(rows, row{op: "lease get", at: at, in: "§13.4", do: func(int) error {
			_, err := sess.Do(context.Background(), coord.Op{Kind: coord.OpGet, Path: dir, Lease: true})
			return err
		}}, row{op: "sync", at: at, in: "§13.4", do: func(int) error { return sess.Sync() }},
			row{op: "guard miss", at: at, in: "§13.4", do: func(int) error {
				_, err := sess.Multi([]coord.Op{coord.CheckDataOp(dir, -1, []byte("not its data")), coord.DeleteOp(dir, -1)})
				if !errors.Is(err, coord.ErrBadVersion) {
					return fmt.Errorf("a batch behind a failing check returned %v, want ErrBadVersion", err)
				}
				return nil
			}})
	}
	for i := range rows {
		rows[i].n, rows[i].delay = 5, true
	}
	return s, rows
}

// roles returns the indices of e's leader and of a follower.
func roles(t *testing.T, e *coord.Ensemble) (leader, follower int) {
	if leader = slices.IndexFunc(e.Servers, (*coord.Server).IsLeader); leader < 0 {
		t.Fatal("the ensemble has no leader")
	}
	return leader, (leader + 1) % len(e.Servers)
}

// durable is three durable voters over TCP loopback, as cmd/coordd runs
// them: the log flushes a write costs (§9.5).
func durable(t *testing.T) (*stack, []row) {
	s := newStack(transport.TCP{})
	e := s.ensemble(t, coord.EnsembleConfig{Servers: 3, HeartbeatInterval: 50 * time.Millisecond,
		ElectionTimeout: time.Second, MaxLogEntries: 1 << 20, DataDir: t.TempDir()})
	l, f := roles(t, e)
	var rows []row
	for k, i := range []int{l, f} {
		at := [...]string{"leader", "follower"}[k]
		sess, dir := connect(t, s.net, e.ClientAddrs[i]), "/"+at
		must(sess.Create(dir, nil, znode.ModePersistent))
		rows = append(rows, row{op: "create", at: at, in: "§9.5", n: 300, warm: 30, bounded: true, do: func(i int) error {
			_, err := sess.Create(fmt.Sprintf("%s/n%d", dir, i), nil, znode.ModePersistent)
			return err
		}})
	}
	return s, rows
}

// dufs is a DUFS client over one in-process server and two memfs
// back-ends: the coordination round trips and back-end calls of the vfs
// ops no internal/core test counts (§8.5).
func dufs(t *testing.T) (*stack, []row) {
	s := newStack(transport.NewInProc())
	sess := connect(t, s.net, s.ensemble(t, coord.EnsembleConfig{Servers: 1}).ClientAddrs[0])
	d := must(core.New(core.Config{Session: sess, Backends: []vfs.FileSystem{backend{memfs.New(), &s.backend}, backend{memfs.New(), &s.backend}}}))
	for _, dir := range []string{"/dir", "/m", "/cd", "/r"} {
		noErr(d.Mkdir(dir, 0o755))
	}
	for _, f := range []string{"/dir/f", "/r/a", "/r/b"} {
		noErr(vfs.WriteFile(d, f, []byte("x")))
	}
	// once runs a vfs op once, which must return want.
	once := func(op, at string, want error, do func() error) row {
		return row{op: op, at: at, n: 1, do: func(int) error {
			if err := do(); !errors.Is(err, want) {
				return fmt.Errorf("returned %v, want %v", err, want)
			}
			return nil
		}}
	}
	rows := []row{
		{op: "stat", at: "a file", n: 10, do: func(int) error { _, err := d.Stat("/dir/f"); return err }},
		{op: "stat", at: "a directory", n: 10, do: func(int) error { _, err := d.Stat("/dir"); return err }},
		{op: "open + close", at: "a file", n: 10, do: func(int) error {
			h, err := d.Open("/dir/f", vfs.OpenRead)
			if err != nil {
				return err
			}
			return h.Close()
		}},
		once("readdir", "a file: ErrNotDir", vfs.ErrNotDir, func() error { _, err := d.Readdir("/dir/f"); return err }),
		{op: "mkdir", at: "a new name", n: 10, do: func(i int) error { return d.Mkdir(fmt.Sprintf("/m/d%d", i), 0o755) }},
		once("chmod", "a directory", nil, func() error { return d.Chmod("/cd", 0o700) }),
		once("chmod", "a file", nil, func() error { return d.Chmod("/dir/f", 0o600) }),
		once("rename", "a file, to a new name", nil, func() error { return d.Rename("/r/a", "/r/x") }),
		once("rename", "a file, over a file", nil, func() error { return d.Rename("/r/x", "/r/b") }),
	}
	for i := range rows {
		rows[i].in = "§8.5"
	}
	return s, rows
}

// per is a total per op: an integer where it divides.
func (c cost) per(total int64) string {
	if total%int64(c.ops) == 0 {
		return fmt.Sprint(total / int64(c.ops))
	}
	return fmt.Sprintf("%.2f", float64(total)/float64(c.ops))
}

// count is a total per op, or on a bounded row its bound, the next integer.
func (c cost) count(r row, total int64) string {
	if r.bounded {
		return fmt.Sprintf("≤ %v", math.Ceil(float64(total)/float64(c.ops)))
	}
	return c.per(total)
}

func (c cost) client() string { return c.per(c.net[clientCalls]) }

// tables are DESIGN's ledger tables: the heads, then a row's cells after
// its op and at.
var tables = []struct {
	section string
	heads   []string
	cells   func(r row, c cost) []string
}{
	{"§8.5", []string{"vfs op", "on", "RPCs", "back-end calls"}, func(r row, c cost) []string {
		return []string{c.client(), c.per(c.backend)}
	}},
	{"§9.2", []string{"op", "home", "client calls", "peer bytes out / back", "appends", "syncs", "snapshot bytes"},
		func(r row, c cost) []string {
			return []string{c.client(), c.per(c.net[peerBytesIn]) + " / " + c.per(c.net[peerBytesOut]),
				c.per(c.appends), c.per(c.syncs), c.per(c.snap)}
		}},
	{"§9.5", []string{"op, TCP, durable", "home", "client calls", "appends", "syncs"}, func(r row, c cost) []string {
		return []string{c.client(), c.count(r, c.appends), c.count(r, c.syncs)}
	}},
	{"§13.4", []string{"op", "home", "call delays", "client calls", "appends"}, func(r row, c cost) []string {
		return []string{fmt.Sprint(math.Round(float64(c.best) / float64(callDelay))), c.client(), c.per(c.appends)}
	}},
}

// ledgerBlock finds DESIGN's copies of the tables.
var ledgerBlock = regexp.MustCompile(`(?s)<!-- cost ledger (§[0-9.]+)[^>]*-->\n(.*?)<!-- end of cost ledger -->`)

// TestCostLedger runs every row and compares the tables it renders with
// DESIGN.md's.
func TestCostLedger(t *testing.T) {
	var rows []row
	var costs []cost
	complete := true // every row ran to its end: a filtered or fatal run compares nothing
	for _, f := range []struct {
		name  string
		start func(*testing.T) (*stack, []row)
	}{{"voters", voters}, {"durable", durable}, {"dufs", dufs}} {
		ran := false
		t.Run(f.name, func(t *testing.T) {
			defer func() {
				if err := recover(); err != nil {
					t.Fatal("setting up: ", err)
				}
			}()
			s, fixture := f.start(t)
			for _, r := range fixture {
				measured := false
				t.Run(r.op+", "+r.at, func(t *testing.T) {
					c := s.measure(t, r)
					rows, costs, measured = append(rows, r), append(costs, c), true
				})
				complete = complete && measured
			}
			ran = true
		})
		complete = complete && ran
	}
	if !complete {
		return
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]string{}
	for _, m := range ledgerBlock.FindAllSubmatch(design, -1) {
		have[string(m[1])] = string(m[2])
	}
	for _, tb := range tables {
		var b strings.Builder
		line := func(cells []string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
		line(tb.heads)
		line(strings.Split(strings.Repeat("---,", len(tb.heads)-1)+"---", ","))
		for i, r := range rows {
			if r.in == tb.section {
				line(append([]string{r.op, r.at}, tb.cells(r, costs[i])...))
			}
		}
		if got := b.String(); have[tb.section] != got {
			t.Errorf("DESIGN.md's %s cost ledger differs from what the stack costs now; if the change is meant, "+
				"say why in the section and paste:\n\n<!-- cost ledger %s: go test -run TestCostLedger ./internal/costledger/ -->\n%s<!-- end of cost ledger -->",
				tb.section, tb.section, got)
		}
		delete(have, tb.section)
	}
	for sec := range have {
		t.Errorf("DESIGN.md has a cost ledger for %s, which no table renders", sec)
	}
}

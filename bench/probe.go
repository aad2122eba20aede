package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/backend/memfs"
	"repro/internal/coord"
	"repro/internal/coord/storage"
	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Probes time one layer's public functions in isolation from a single
// goroutine. They reach the layers no decorator can sit inside (wire,
// the znode tree, the storage engine, a bare zab.Node, the watch path,
// core.Cached); each predicts the matching span of the traced runs.

// timeEach calls fn until budget has passed and returns the mean
// nanoseconds per call.
func timeEach(budget time.Duration, fn func()) float64 {
	start := time.Now()
	n := 0
	for {
		for i := 0; i < 64; i++ {
			fn()
		}
		n += 64
		if el := time.Since(start); el >= budget {
			return float64(el) / float64(n)
		}
	}
}

// medianEach calls fn until budget has passed, timing each call, and
// returns the median in microseconds.
func medianEach(budget time.Duration, fn func() error) (float64, error) {
	var ns []int64
	for start := time.Now(); time.Since(start) < budget; {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, int64(time.Since(t)))
	}
	return quantileNS(ns, 0.5) / 1e3, nil
}

// runProbes returns every probe.* metric. budget is the time spent
// inside each probe's timed loop.
func runProbes(budget time.Duration, walRoot string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range []func(time.Duration, string, map[string]float64) error{
		probeWire, probeZnode, probeStorage, probeTransport, probeZab, probeSession,
	} {
		if err := p(budget, walRoot, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

var probeSink int

func probeWire(budget time.Duration, _ string, out map[string]float64) error {
	// The create transaction as coord lays it out: op, session, seq,
	// path, data, mode, time.
	data := make([]byte, 29) // core's encoded file node
	out["probe.wire.create_txn_ns"] = timeEach(budget, func() {
		w := wire.GetWriter()
		w.Uint8(1)
		w.Uint64(7)
		w.Uint64(42)
		w.String("/dufs/mw0000/w0/c12-deadbeef/f07-1a2b")
		w.Bytes32(data)
		w.Uint8(0)
		w.Int64(1700000000000000000)
		r := wire.NewReader(w.Bytes())
		r.Uint8()
		r.Uint64()
		r.Uint64()
		probeSink += len(r.String()) + len(r.Bytes32()) + int(r.Uint8()) + int(r.Int64()&1)
		wire.PutWriter(w)
	})
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("f%02d", i)
	}
	out["probe.wire.listing64_ns"] = timeEach(budget, func() {
		w := wire.GetWriter()
		w.Uint32(uint32(len(names)))
		for _, n := range names {
			w.String(n)
			w.Bytes32(data)
			for i := 0; i < 4; i++ {
				w.Uint64(uint64(i))
			}
			for i := 0; i < 4; i++ {
				w.Int32(int32(i))
			}
			w.Uint64(0)
		}
		r := wire.NewReader(w.Bytes())
		for n := r.Uint32(); n > 0; n-- {
			probeSink += len(r.String()) + len(r.BytesCopy32())
			for i := 0; i < 4; i++ {
				r.Uint64()
			}
			for i := 0; i < 4; i++ {
				r.Int32()
			}
			r.Uint64()
		}
		wire.PutWriter(w)
	})
	return nil
}

func probeZnode(budget time.Duration, _ string, out map[string]float64) error {
	const dirs, perDir = 1000, 100 // 100k nodes
	t := znode.New()
	data := make([]byte, 29)
	var zxid uint64
	mk := func(p string) error {
		zxid++
		_, err := t.Create(p, data, 0, 1, zxid, int64(zxid))
		return err
	}
	paths := make([]string, 0, dirs*perDir)
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/d%04d", d)
		if err := mk(dir); err != nil {
			return fmt.Errorf("probe znode: %w", err)
		}
		for f := 0; f < perDir; f++ {
			p := fmt.Sprintf("%s/f%03d", dir, f)
			if err := mk(p); err != nil {
				return fmt.Errorf("probe znode: %w", err)
			}
			paths = append(paths, p)
		}
	}
	next := 0
	out["probe.znode.create_ns"] = timeEach(budget, func() {
		next++
		if mk(fmt.Sprintf("/d%04d/n%07d", next%dirs, next)) != nil {
			probeSink++
		}
	})
	i := 0
	out["probe.znode.exists_ns"] = timeEach(budget, func() {
		i = (i + 7919) % len(paths)
		if _, ok := t.Exists(paths[i]); ok {
			probeSink++
		}
	})
	if err := mk("/list64"); err != nil {
		return fmt.Errorf("probe znode: %w", err)
	}
	for f := 0; f < 64; f++ {
		if err := mk(fmt.Sprintf("/list64/f%02d", f)); err != nil {
			return fmt.Errorf("probe znode: %w", err)
		}
	}
	out["probe.znode.childrendata64_ns"] = timeEach(budget, func() {
		_, kids, _ := t.ChildrenData("/list64")
		probeSink += len(kids)
	})
	return nil
}

func probeStorage(budget time.Duration, walRoot string, out map[string]float64) error {
	dir, err := os.MkdirTemp(walRoot, "dufs-bench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("probe storage: %w", err)
	}
	defer eng.Close()
	txn := make([]byte, 96)
	var zxid uint64 = 1 << 32
	appendSync := func(txns int) func() error {
		batch := make([][]byte, txns)
		for i := range batch {
			batch[i] = txn
		}
		return func() error {
			if err := eng.Append([]zab.Frame{{Zxid: zxid, Txns: batch}}); err != nil {
				return err
			}
			zxid += uint64(txns)
			return eng.Sync()
		}
	}
	if out["probe.storage.append1_sync_us"], err = medianEach(budget, appendSync(1)); err != nil {
		return fmt.Errorf("probe storage: %w", err)
	}
	if out["probe.storage.append32_sync_us"], err = medianEach(budget, appendSync(32)); err != nil {
		return fmt.Errorf("probe storage: %w", err)
	}
	return nil
}

func probeTransport(budget time.Duration, _ string, out map[string]float64) error {
	echo := transport.HandlerFunc(func(b []byte) ([]byte, error) { return b, nil })
	req := make([]byte, 64)
	for name, nw := range map[string]transport.Network{
		"probe.transport.tcp_echo_p50_us":    transport.TCP{},
		"probe.transport.inproc_echo_p50_us": transport.NewInProc(),
	} {
		addr := "probe-echo"
		if _, tcp := nw.(transport.TCP); tcp {
			var err error
			if addr, err = freePort(); err != nil {
				return err
			}
		}
		ln, err := nw.Listen(addr, echo)
		if err != nil {
			return fmt.Errorf("probe transport: %w", err)
		}
		c, err := nw.Dial(addr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("probe transport: %w", err)
		}
		out[name], err = medianEach(budget, func() error {
			_, err := c.Call(req)
			return err
		})
		c.Close()
		ln.Close()
		if err != nil {
			return fmt.Errorf("probe transport: %w", err)
		}
	}
	return nil
}

// nopMachine is the state machine of the zab probe: it applies nothing,
// so a proposal costs replication alone.
type nopMachine struct{}

func (nopMachine) Apply([]byte, uint64) []byte  { return nil }
func (nopMachine) Snapshot() []byte             { return nil }
func (nopMachine) Restore([]byte, uint64) error { return nil }

func probeZab(budget time.Duration, _ string, out map[string]float64) error {
	nw := transport.NewInProc()
	peers := map[uint64]string{1: "probe-zab-1", 2: "probe-zab-2", 3: "probe-zab-3"}
	reg := metrics.NewRegistry()
	var nodes []*zab.Node
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	for id := range peers {
		n, err := zab.NewNode(zab.Config{ID: id, Peers: peers, Net: nw, Metrics: reg}, nopMachine{})
		if err != nil {
			return fmt.Errorf("probe zab: %w", err)
		}
		if err := n.Start(); err != nil {
			return fmt.Errorf("probe zab: %w", err)
		}
		nodes = append(nodes, n)
	}
	var leader *zab.Node
	for deadline := time.Now().Add(10 * time.Second); leader == nil; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("probe zab: no leader")
		}
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
			}
		}
	}
	txn := make([]byte, 96)
	var err error
	if out["probe.zab.propose_seq_p50_us"], err = medianEach(budget, func() error {
		_, err := leader.Propose(txn)
		return err
	}); err != nil {
		return fmt.Errorf("probe zab: %w", err)
	}
	batch := reg.Distribution("zab.proposer.batch_txns")
	frames0, txns0 := batch.Count(), batch.Sum()
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < budget && errs[g] == nil; {
				_, errs[g] = leader.Propose(txn)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("probe zab: %w", err)
		}
	}
	out["probe.zab.conc32_txns_per_frame"] = ratio(float64(batch.Sum()-txns0), float64(batch.Count()-frames0))
	return nil
}

// probeSession covers what needs a live session: the watch round
// (Set -> WaitEvents on one session) and core.Cached's hit and miss.
func probeSession(budget time.Duration, _ string, out map[string]float64) error {
	ens, err := coord.StartEnsemble(coord.EnsembleConfig{Servers: 1, Net: transport.NewInProc(), AddrPrefix: "probe-sess"})
	if err != nil {
		return fmt.Errorf("probe session: %w", err)
	}
	defer ens.Stop()
	sess, err := ens.Connect(0)
	if err != nil {
		return fmt.Errorf("probe session: %w", err)
	}
	defer sess.Close()

	if _, err := sess.Create("/watched", []byte{0}, 0); err != nil {
		return fmt.Errorf("probe watch: %w", err)
	}
	var v byte
	if out["probe.watch.notify_p50_us"], err = medianEach(budget, func() error {
		if _, _, err := sess.GetW("/watched"); err != nil {
			return err
		}
		v++
		if _, err := sess.Set("/watched", []byte{v}, -1); err != nil {
			return err
		}
		evs, err := sess.WaitEvents(context.Background(), time.Second)
		if err == nil && len(evs) == 0 {
			err = fmt.Errorf("watch did not fire")
		}
		return err
	}); err != nil {
		return fmt.Errorf("probe watch: %w", err)
	}

	dufs, err := core.New(core.Config{Session: sess, Backends: []vfs.FileSystem{memfs.New()}})
	if err != nil {
		return fmt.Errorf("probe cache: %w", err)
	}
	cached := core.NewCached(dufs, nil)
	defer cached.Close()
	// Cached keeps directory attributes only, so both probes stat
	// directories: one over and over, then a fresh one each call.
	if err := cached.Mkdir("/hot", 0o755); err != nil {
		return fmt.Errorf("probe cache: %w", err)
	}
	if _, err := cached.Stat("/hot"); err != nil {
		return fmt.Errorf("probe cache: %w", err)
	}
	out["probe.cache.hit_stat_ns"] = timeEach(budget, func() {
		if _, err := cached.Stat("/hot"); err != nil {
			probeSink++
		}
	})
	var miss []int64
	for start, n := time.Now(), 0; time.Since(start) < budget; n++ {
		p := fmt.Sprintf("/cold%06d", n)
		if err := dufs.Mkdir(p, 0o755); err != nil {
			return fmt.Errorf("probe cache: %w", err)
		}
		t := time.Now()
		if _, err := cached.Stat(p); err != nil {
			return fmt.Errorf("probe cache: %w", err)
		}
		miss = append(miss, int64(time.Since(t)))
	}
	out["probe.cache.miss_stat_us"] = quantileNS(miss, 0.5) / 1e3
	return nil
}

package main

import (
	"os"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/storage"
	"repro/internal/coord/zab"
	"repro/internal/transport"
)

// plainStorage is a zab.Storage that cannot stream snapshots.
type plainStorage struct{ zab.Storage }

// The storage decorator must offer streaming snapshots exactly when the
// engine it wraps does, or the traced node would fall back to the blob
// path the untraced node never takes.
func TestStorageDecoratorForwardsStreaming(t *testing.T) {
	eng, err := storage.Open(storage.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tr := newTracer(1)
	if _, ok := wrapStorage(tr, eng).(zab.StreamStorage); !ok {
		t.Error("decorated storage.Engine lost zab.StreamStorage")
	}
	if _, ok := wrapStorage(tr, plainStorage{eng}).(zab.StreamStorage); ok {
		t.Error("decorated plain storage gained zab.StreamStorage")
	}
}

// Likewise the transport decorator offers CallAsync exactly when the
// connection it wraps pipelines natively.
func TestTransportDecoratorForwardsAsyncCaller(t *testing.T) {
	echo := transport.HandlerFunc(func(b []byte) ([]byte, error) { return b, nil })
	addr, err := freePort()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		net   transport.Network
		addr  string
		async bool
	}{
		"tcp":     {transport.TCP{}, addr, true},
		"inproc":  {transport.NewInProc(), "echo", false},
		"latency": {&transport.Latency{Inner: transport.NewInProc(), Delay: func() time.Duration { return 0 }}, "echo", false},
	} {
		nw := newTracedNet(newTracer(1), c.net)
		ln, err := nw.Listen(c.addr, echo)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := nw.Dial(c.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := conn.(transport.AsyncCaller); ok != c.async {
			t.Errorf("%s: decorated conn is AsyncCaller = %v, want %v", name, ok, c.async)
		}
		// The call tag is stripped again before the handler: an echo
		// comes back unchanged, on either path.
		resp, err := conn.Call([]byte("ping"))
		if err != nil || string(resp) != "ping" {
			t.Errorf("%s: Call echoed %q, %v", name, resp, err)
		}
		if c.async {
			res := <-transport.CallAsync(conn, []byte("pong"))
			if res.Err != nil || string(res.Payload) != "pong" {
				t.Errorf("%s: CallAsync echoed %q, %v", name, res.Payload, res.Err)
			}
		}
		conn.Close()
		ln.Close()
	}
}

// requestClass mirrors coord's unexported op codes. Drive a real
// session through a traced network and see each request land in the
// class its operation belongs to, with the handler span linked to the
// call that caused it.
func TestHandlerClassification(t *testing.T) {
	tr := newTracer(1)
	nw := newTracedNet(tr, transport.NewInProc())
	ens, err := coord.StartEnsemble(coord.EnsembleConfig{Servers: 1, Net: nw, AddrPrefix: "classify"})
	if err != nil {
		t.Fatal(err)
	}
	defer ens.Stop()
	sess, err := coord.Connect(nw.view(nil, &sessCtx{}), ens.ClientAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tr.start()
	step := func(what string, do func() error, s *series) {
		t.Helper()
		before := s.count()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := s.count() - before; got != 1 {
			t.Errorf("%s: %d spans in its class, want 1", what, got)
		}
	}
	step("create", func() error { _, err := sess.Create("/a", []byte("x"), 0); return err }, tr.handleWrite)
	step("set", func() error { _, err := sess.Set("/a", []byte("y"), -1); return err }, tr.handleWrite)
	step("multi", func() error {
		_, err := sess.Multi([]coord.Op{coord.CreateOp("/b", nil, 0)})
		return err
	}, tr.handleWrite)
	step("sync", sess.Sync, tr.handleWrite)
	step("get", func() error { _, _, err := sess.Get("/a"); return err }, tr.handleRead)
	step("exists", func() error { _, _, err := sess.Exists("/a"); return err }, tr.handleRead)
	step("children", func() error { _, err := sess.Children("/"); return err }, tr.handleRead)
	step("childrenData", func() error { _, err := sess.ChildrenData("/"); return err }, tr.handleRead)
	step("getW", func() error { _, _, err := sess.GetW("/a"); return err }, tr.handleRead)
	step("status", func() error { _, err := sess.Status(); return err }, tr.handleOther)
	step("pollEvents", func() error { _, err := sess.PollEvents(); return err }, tr.handleOther)
	step("delete", func() error { return sess.Delete("/b", -1) }, tr.handleWrite)
	tr.stop()

	if got, want := tr.wire.count(), tr.handleRead.count()+tr.handleWrite.count(); got != want {
		t.Errorf("%d wire samples for %d read and write handlers", got, want)
	}
	calls := map[uint64]bool{}
	for _, sp := range tr.spans {
		if sp.Layer == "transport" {
			calls[sp.ID] = true
		}
	}
	for _, sp := range tr.spans {
		if sp.Layer == "coord.server" && !calls[sp.Parent] {
			t.Errorf("handler span %q has parent %d, which is no transport call", sp.Name, sp.Parent)
		}
	}
	path, err := tr.writeFile(t.TempDir(), "classify", 1)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("trace file %s: %v", path, err)
	}
}

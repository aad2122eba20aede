package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestWholeClusterColdRestart: a durable deployment writes a
// directory tree through DUFS, every coordination server is stopped
// (nothing flushed beyond what the protocol synced), and the
// coordination layer is cold-restarted from its data directories. The
// EXISTING client mount must keep working across the outage — its
// session table and every acknowledged metadata write are part of the
// replicated state the engines recover — and the namespace must be
// intact, including entries on both sharded ensembles. An in-memory
// deployment restarts the same way, each member on the store its
// ensemble kept.
func TestWholeClusterColdRestart(t *testing.T) {
	c, err := Start(Config{
		Name:              "restart",
		CoordServers:      3,
		CoordShards:       2,
		Backends:          2,
		Kind:              MemFS,
		CoordDataDir:      t.TempDir(),
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	fs := cl.FS

	const files = 12
	if err := fs.Mkdir("/proj", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		if err := vfs.WriteFile(fs, fmt.Sprintf("/proj/f%02d", i), []byte(fmt.Sprintf("data-%d", i))); err != nil {
			t.Fatalf("write f%02d: %v", i, err)
		}
	}

	if err := c.RestartCoord(); err != nil {
		t.Fatal(err)
	}

	// The old mount (old sessions, old FIDs) must still resolve the
	// whole tree; allow the session layer a moment to fail over onto
	// the restarted servers.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := fs.Stat("/proj"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mount never recovered after coordination restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	entries, err := fs.Readdir("/proj")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != files {
		t.Fatalf("readdir after restart: %d entries, want %d", len(entries), files)
	}
	for i := 0; i < files; i++ {
		data, err := vfs.ReadFile(fs, fmt.Sprintf("/proj/f%02d", i))
		if err != nil {
			t.Fatalf("read f%02d after restart: %v", i, err)
		}
		if string(data) != fmt.Sprintf("data-%d", i) {
			t.Fatalf("f%02d content %q after restart", i, data)
		}
	}
	// And the restarted namespace must accept new writes from the old
	// session.
	if err := vfs.WriteFile(fs, "/proj/after-restart", []byte("ok")); err != nil {
		t.Fatalf("write after restart: %v", err)
	}

	// Without CoordDataDir every member restarts on the in-memory store
	// the ensemble kept for it: the namespace survives just the same.
	c2, err := Start(Config{
		Name:         "restart-mem",
		CoordServers: 3,
		Backends:     1,
		Kind:         MemFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	cl2, err := c2.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.FS.Mkdir("/kept", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c2.RestartCoord(); err != nil {
		t.Fatalf("RestartCoord without CoordDataDir: %v", err)
	}
	// A fresh mount carries no last-seen zxid: what it reads is what the
	// restarted members hold.
	fresh, err := c2.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		_, err := fresh.FS.Stat("/kept")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-memory namespace lost across RestartCoord: %v", err)
		}
	}
}

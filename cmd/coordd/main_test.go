package main

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// TestRestartFromShardDataDir pins what a coordd restart relies on: a
// server stopped and started again over the same per-shard data
// directory serves every znode it acknowledged.
func TestRestartFromShardDataDir(t *testing.T) {
	net := transport.NewInProc()
	cfg := coord.ServerConfig{
		ID:                1,
		PeerAddrs:         map[uint64]string{1: "restart-p1"},
		ClientAddr:        "restart-c1",
		Net:               net,
		HeartbeatInterval: 5 * time.Millisecond,
		ElectionTimeout:   30 * time.Millisecond,
		DataDir:           shardDataDir(t.TempDir(), 1, 2),
	}
	srv, err := coord.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := coord.Connect(net, []string{cfg.ClientAddr})
	if err != nil {
		srv.Stop()
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := sess.Create("/kept", []byte("v"), znode.ModePersistent); err == nil {
			break
		}
		if time.Now().After(deadline) {
			srv.Stop()
			t.Fatal("single-server ensemble never accepted a write")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sess.Close()
	srv.Stop()

	srv2, err := coord.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Stop()
	// The recovered tail applies once the restarted member re-elects
	// itself and commits its epoch barrier.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, ok := srv2.Tree().Exists("/kept"); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted server lost an acknowledged znode")
		}
	}
}

func TestShardDataDir(t *testing.T) {
	if got := shardDataDir("", 0, 4); got != "" {
		t.Fatalf("empty base -> %q", got)
	}
	if got := shardDataDir("/d", 0, 1); got != "/d" {
		t.Fatalf("single shard -> %q", got)
	}
	if got := shardDataDir("/d", 2, 4); got != filepath.Join("/d", "s2") {
		t.Fatalf("shard 2 -> %q", got)
	}
}

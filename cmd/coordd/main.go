// Command coordd runs one server of the coordination service over
// real TCP sockets — the deployable equivalent of one ZooKeeper server
// in the paper's ensemble.
//
// A three-server ensemble on one machine:
//
//	coordd -id 1 -peers 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 -client 127.0.0.1:7201 -data-dir /tmp/coord1 &
//	coordd -id 2 -peers 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 -client 127.0.0.1:7202 -data-dir /tmp/coord2 &
//	coordd -id 3 -peers 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 -client 127.0.0.1:7203 -data-dir /tmp/coord3 &
//
// A voter needs -data-dir DIR, as a ZooKeeper server needs its dataDir:
// the durable storage engine's segmented write-ahead log plus fuzzy
// snapshots under DIR make every acknowledged write survive kill -9 of
// the whole ensemble — the paper's §IV-I full-restart tolerance ("it
// can tolerate the failure of all servers by restarting them later")
// with zero loss. A voter that came back without its state could hand
// the quorum to a candidate missing acknowledged writes, so coordd
// refuses to start one.
//
// With -shards K the process hosts this machine's member of K
// INDEPENDENT ensembles — the sharded coordination service that
// clients address through a shard router. Shard s reuses the -peers
// and -client addresses with every port offset by s*stride
// (-shard-stride, default 10), so the 3-machine 4-shard deployment is
// still one flag line per machine:
//
//	coordd -id 1 -peers 1=h1:7101,2=h2:7102,3=h3:7103 -client h1:7201 -shards 4
//
// serves shard 0 peers on 7101 and clients on 7201, shard 1 on
// 7111/7211, shard 2 on 7121/7221, shard 3 on 7131/7231; each shard's
// data lives under DIR/s<shard>.
//
// With -observer the process joins the ensemble as a NON-VOTING
// observer replica instead: the same server, streamed the log by the
// leader like a follower, serving the whole client protocol from its
// local replica and, like a follower, answering a write with the
// leader's -client address. Observers never vote and never slow the
// write quorum — they are pure read capacity. -peers lists the
// voters plus the observer's own entry (convention: IDs 101+), which
// appears in no voter's -peers:
//
//	coordd -observer -id 101 -peers 1=h1:7101,2=h2:7102,3=h3:7103,101=h4:7104 -client h4:7204
//
// Observers keep their replica in memory (-data-dir is rejected): a
// restarted observer catches up from the leader.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/coord"
	"repro/internal/transport"
)

func main() {
	id := flag.Uint64("id", 0, "this server's ensemble ID (must appear in -peers)")
	peersFlag := flag.String("peers", "", "comma-separated id=host:port peer list")
	clientAddr := flag.String("client", "", "host:port for client sessions")
	dataDir := flag.String("data-dir", "", "directory for the durable storage engine (WAL + snapshots); required for a voter, rejected for an observer")
	shards := flag.Int("shards", 1, "number of independent ensembles this process serves a member of")
	stride := flag.Int("shard-stride", 10, "port offset between consecutive shards")
	observerMode := flag.Bool("observer", false, "join as a non-voting observer replica: -peers lists the voters plus this server's own id=host:port")
	flag.Parse()

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("coordd: %v", err)
	}
	if *id == 0 || peers[*id] == "" {
		log.Fatalf("coordd: -id %d not present in -peers", *id)
	}
	if *clientAddr == "" {
		log.Fatal("coordd: -client is required")
	}
	if *shards < 1 {
		log.Fatalf("coordd: -shards must be >= 1, got %d", *shards)
	}
	if *observerMode && *dataDir != "" {
		log.Fatal("coordd: observers keep their replica in memory; -data-dir does not apply in -observer mode")
	}
	if !*observerMode && *dataDir == "" {
		log.Fatal("coordd: a voter needs -data-dir: it must restart on the state it acknowledged")
	}

	servers := make([]*coord.Server, 0, *shards)
	for s := 0; s < *shards; s++ {
		shardPeers := make(map[uint64]string, len(peers))
		for pid, addr := range peers {
			a, err := offsetAddr(addr, s**stride)
			if err != nil {
				log.Fatalf("coordd: shard %d peer %d: %v", s, pid, err)
			}
			shardPeers[pid] = a
		}
		shardClient, err := offsetAddr(*clientAddr, s**stride)
		if err != nil {
			log.Fatalf("coordd: shard %d client addr: %v", s, err)
		}
		cfg := coord.ServerConfig{
			ID:         *id,
			PeerAddrs:  shardPeers,
			Observer:   *observerMode,
			ClientAddr: shardClient,
			Net:        transport.TCP{},
			DataDir:    shardDataDir(*dataDir, s, *shards),
		}
		srv, err := coord.NewServer(cfg)
		if err != nil {
			log.Fatalf("coordd: shard %d: %v", s, err)
		}
		servers = append(servers, srv)
		mode := fmt.Sprintf(" (durable, data-dir=%s)", cfg.DataDir)
		if cfg.Observer {
			mode = " (non-voting observer)"
		}
		log.Printf("coordd: shard %d server %d up%s, peers=%v, clients on %s", s, *id, mode, shardPeers, shardClient)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	log.Printf("coordd: %v, shutting down", sig)
	for _, srv := range servers {
		srv.Stop()
	}
}

// shardDataDir namespaces the storage engine directory per shard; a
// single-shard deployment uses the bare directory.
func shardDataDir(base string, shard, shards int) string {
	if base == "" || shards == 1 {
		return base
	}
	return filepath.Join(base, fmt.Sprintf("s%d", shard))
}

// offsetAddr shifts host:port by delta ports (shard address derivation).
func offsetAddr(addr string, delta int) (string, error) {
	if delta == 0 {
		return addr, nil
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("address %q: %v", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("address %q: bad port: %v", addr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(port+delta)), nil
}

func parsePeers(s string) (map[uint64]string, error) {
	peers := make(map[uint64]string)
	if s == "" {
		return nil, fmt.Errorf("-peers is required")
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		peers[id] = kv[1]
	}
	return peers, nil
}

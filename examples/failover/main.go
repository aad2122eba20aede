// Failover: the paper's reliability claims (§IV-I), live.
//
//   - The coordination service tolerates the failure of a minority of
//     its servers — including the leader — without losing a single
//     committed metadata operation.
//   - DUFS clients are stateless: a "restarted" client (a fresh
//     session) sees the whole namespace immediately.
//
// The example writes files, kills 2 of 5 coordination servers (leader
// first), verifies everything is still there, keeps writing, and then
// demonstrates a full-ensemble restart from the members' data
// directories.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/vfs"
)

func main() {
	dataDir, err := os.MkdirTemp("", "dufs-failover-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	c, err := cluster.Start(cluster.Config{
		Name:         "failover",
		CoordServers: 5,
		Backends:     2,
		Kind:         cluster.MemFS,
		CoordDataDir: dataDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()

	cl, err := c.NewClient(0)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := vfs.WriteFile(cl.FS, fmt.Sprintf("/pre-%d", i), []byte("committed")); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("wrote 10 files on a healthy 5-server ensemble")

	// Kill the leader and one follower: a minority of five.
	victim := c.LeaderIndex(0)
	fmt.Printf("killing leader (server %d) and one follower\n", c.Ensemble.Servers[victim].ID())
	c.Ensemble.StopServer(victim)
	c.Ensemble.StopServer((victim + 1) % len(c.Ensemble.Servers))
	if err := c.Ensemble.WaitLeader(10 * time.Second); err != nil {
		log.Fatalf("no new leader: %v", err)
	}
	fmt.Printf("new leader elected: server %d\n", c.Ensemble.Leader().ID())

	// A brand-new stateless client must see every committed file.
	fresh, err := c.NewClient(2)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, err := fresh.FS.Stat(fmt.Sprintf("/pre-%d", i)); err == nil {
				break
			} else if time.Now().After(deadline) {
				log.Fatalf("file /pre-%d lost after minority failure: %v", i, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	fmt.Println("all 10 pre-failure files survive; writes continue:")
	for i := 0; i < 5; i++ {
		if err := vfs.WriteFile(fresh.FS, fmt.Sprintf("/post-%d", i), []byte("after failover")); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("wrote 5 more files on the degraded ensemble")

	// Full restart: stop every member, then start them all again from
	// their data directories (paper: ZooKeeper "can tolerate the failure
	// of all servers by restarting them later").
	if err := c.RestartCoord(); err != nil {
		log.Fatal(err)
	}
	after, err := c.NewClient(1)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"/pre-9", "/post-4"} {
		if _, err := after.FS.Stat(name); err != nil {
			log.Fatalf("file %s lost across the full restart: %v", name, err)
		}
	}
	st, err := after.Session.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restarted ensemble serves %d znodes from its data directories\n", st.Znodes)
	fmt.Println("failover example OK")
}

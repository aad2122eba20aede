// Quickstart: boot a complete DUFS deployment in one process and walk
// through the paper's core mechanics — a single virtual namespace over
// multiple back-end mounts, directories living purely in the
// coordination service, and files placed by the FID mapping function.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/vfs"
)

func main() {
	// A paper-style deployment: 3 coordination servers (quorum = 2)
	// unioning 2 Lustre-like filesystem instances.
	c, err := cluster.Start(cluster.Config{
		Name:         "quickstart",
		CoordServers: 3,
		Backends:     2,
		Kind:         cluster.Lustre,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()

	// Two independent DUFS clients (think: two client nodes).
	alice, err := c.NewClient(0)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := c.NewClient(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client IDs: alice=%d bob=%d (unique without coordination)\n",
		alice.FS.ClientID(), bob.FS.ClientID())

	// Directories are metadata-only: they exist as znodes, never on
	// the back-end storage (paper §IV-A).
	if err := alice.FS.Mkdir("/projects", 0o755); err != nil {
		log.Fatal(err)
	}
	if err := alice.FS.Mkdir("/projects/dufs", 0o755); err != nil {
		log.Fatal(err)
	}

	// Files get a FID; the MD5 mapping picks the physical mount.
	if err := vfs.WriteFile(alice.FS, "/projects/dufs/README", []byte("one namespace, many mounts")); err != nil {
		log.Fatal(err)
	}

	// Bob sees Alice's file once he syncs: both talk to the same
	// replicated namespace, but his server may not have applied her
	// write yet (a client always sees its own writes; Sync is for
	// another client's).
	if err := bob.FS.Sync(); err != nil {
		log.Fatal(err)
	}
	data, err := vfs.ReadFile(bob.FS, "/projects/dufs/README")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob reads: %q\n", data)

	// Rename never moves data — only the name->FID binding changes.
	if err := bob.FS.Rename("/projects/dufs/README", "/projects/dufs/README.md"); err != nil {
		log.Fatal(err)
	}
	// Alice syncs her replica before reading Bob's rename (the
	// coordination service's sync() barrier, like ZooKeeper's).
	if err := alice.FS.Sync(); err != nil {
		log.Fatal(err)
	}
	fi, err := alice.FS.Stat("/projects/dufs/README.md")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after rename: %s (%d bytes)\n", fi.Name, fi.Size)

	// The physical bodies are spread over the Lustre instances.
	for i, inst := range c.LustreInstances() {
		fmt.Printf("lustre instance %d object counts per OSS: %v\n", i, inst.ObjectCounts())
	}

	entries, err := bob.FS.Readdir("/projects/dufs")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ls /projects/dufs -> %d entries\n", len(entries))
	fmt.Println("quickstart OK")
}

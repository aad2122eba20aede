// Command dufsctl is an interactive shell on a DUFS namespace: it
// boots a full in-process deployment (coordination ensemble + back-end
// filesystem instances) and exposes the familiar commands — mkdir, ls,
// stat, put, cat, rm, rmdir, mv, ln — against the unioned mount, the
// way the paper's prototype exposes a FUSE mount point.
//
//	dufsctl -backends 4 -coord 3 -kind lustre -shards 2
//	dufs> mkdir /projects
//	dufs> put /projects/readme hello-dufs
//	dufs> ls /projects
//	dufs> stat /projects/readme
//	dufs> status
//
// With -shards K the namespace is partitioned across K independent
// coordination ensembles behind a client-side shard router; `status`
// shows each shard's leader and znode count.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/coord/migrate"
	"repro/internal/coord/shard"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/vfs"
)

func main() {
	backends := flag.Int("backends", 2, "back-end mounts to union")
	coordServers := flag.Int("coord", 3, "coordination ensemble size")
	shards := flag.Int("shards", 1, "independent coordination ensembles to partition the namespace across")
	kind := flag.String("kind", "lustre", "back-end kind: lustre, pvfs, memfs")
	dataDir := flag.String("data-dir", "", "durable coordination storage directory (WAL + snapshots); status then shows the durable horizon")
	observers := flag.Int("observers", 0, "non-voting observer replicas per shard; status shows each one's replication lag")
	flag.Parse()

	c, err := cluster.Start(cluster.Config{
		Name:           "dufsctl",
		CoordServers:   *coordServers,
		CoordShards:    *shards,
		CoordObservers: *observers,
		Backends:       *backends,
		Kind:           cluster.BackendKind(*kind),
		CoordDataDir:   *dataDir,
	})
	if err != nil {
		log.Fatalf("dufsctl: %v", err)
	}
	defer c.Stop()
	cl, err := c.NewClient(0)
	if err != nil {
		log.Fatalf("dufsctl: %v", err)
	}
	fs := cl.FS
	fmt.Printf("DUFS shell: %d back-end %s mounts, %d coordination shard(s) of %d server(s) (client ID %d)\n",
		*backends, *kind, *shards, *coordServers, fs.ClientID())
	fmt.Println(`commands: mkdir ls stat put cat rm rmdir mv ln readlink chmod truncate watch status migrate help quit`)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("dufs> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		args := strings.Fields(line)
		if args[0] == "quit" || args[0] == "exit" {
			return
		}
		if args[0] == "status" {
			if err := status(c, cl.Session, *shards, *observers); err != nil {
				fmt.Printf("error: %v\n", err)
			}
			continue
		}
		if args[0] == "migrate" {
			if err := migrateCmd(c, fs, *shards, args[1:]); err != nil {
				fmt.Printf("error: %v\n", err)
			}
			continue
		}
		if args[0] == "watch" {
			if err := watch(cl.Session, fs, args[1:], os.Stdout); err != nil {
				fmt.Printf("error: %v\n", err)
			}
			continue
		}
		if err := run(fs, args); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

// watch tails invalidation events for a path over the push stream:
// `watch PATH [N]` blocks until N events (default 1) have been
// delivered, printing each as it fires — the live demonstration of
// the watch machinery the client cache invalidates from.
func watch(sess coord.Client, fs *core.DUFS, args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("watch needs a path")
	}
	n := 1
	if len(args) > 1 {
		v, err := strconv.Atoi(args[1])
		if err != nil || v < 1 {
			return fmt.Errorf("bad event count %q", args[1])
		}
		n = v
	}
	zp, err := fs.ZnodePath(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "watching %s (znode %s) for %d event(s)...\n", args[0], zp, n)
	return watchZnode(sess, zp, n, out)
}

// watchZnode registers one-shot data and child watches on zp and
// blocks on the push event stream, re-registering after each delivery
// (watches are one-shot, as in ZooKeeper), until n events have been
// printed.
func watchZnode(sess coord.Client, zp string, n int, out io.Writer) error {
	for seen := 0; seen < n; {
		// ExistsW fires on creation of a currently-absent node too, so
		// a watch on a not-yet-existing path is meaningful.
		if _, _, err := sess.ExistsW(zp); err != nil {
			return err
		}
		if _, err := sess.ChildrenW(zp); err != nil && !errors.Is(err, coord.ErrNoNode) {
			return err
		}
		evs, err := sess.WaitEvents(context.Background(), 30*time.Second)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			fmt.Fprintf(out, "%s %s\n", ev.Type, ev.Path)
			seen++
		}
	}
	return nil
}

// migrateCmd drives a live shard migration from the shell:
//
//	migrate PATH DEST   — move the range holding PATH's entries to shard DEST
//	migrate LO:HI DEST  — move an explicit hash range (hex bounds)
//	migrate recover     — sweep abandoned migrations to a terminal state
//
// PATH is a filesystem path; its metadata directory's hash range (the
// unit the router shards by) is what moves.
func migrateCmd(c *cluster.Cluster, fs *core.DUFS, shards int, args []string) error {
	if shards < 2 {
		return fmt.Errorf("migrate needs -shards >= 2")
	}
	sessions := make([]*coord.Session, len(c.Ensembles))
	for i, ens := range c.Ensembles {
		s, err := ens.Connect(-1)
		if err != nil {
			return err
		}
		defer s.Close()
		sessions[i] = s
	}
	co, err := migrate.New(migrate.Config{Sessions: sessions})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if len(args) == 1 && args[0] == "recover" {
		resolved, err := co.Recover(ctx)
		if err != nil {
			return err
		}
		if len(resolved) == 0 {
			fmt.Println("no abandoned migrations")
		}
		for _, line := range resolved {
			fmt.Println(line)
		}
		return nil
	}
	if len(args) < 2 {
		return fmt.Errorf("migrate needs PATH|LO:HI and DEST-SHARD (or: migrate recover)")
	}
	dest, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("bad destination shard %q", args[1])
	}
	var rng placement.Range
	if lo, hi, ok := strings.Cut(args[0], ":"); ok {
		if _, err := fmt.Sscanf(lo, "%x", &rng.Lo); err != nil {
			return fmt.Errorf("bad range bound %q", lo)
		}
		if _, err := fmt.Sscanf(hi, "%x", &rng.Hi); err != nil {
			return fmt.Errorf("bad range bound %q", hi)
		}
	} else {
		zp, err := fs.ZnodePath(args[0])
		if err != nil {
			return err
		}
		rng = migrate.RangeForDir(zp)
	}
	src, err := co.Owner(ctx, rng)
	if err != nil {
		return err
	}
	fmt.Printf("migrating %v: shard %d -> %d\n", rng, src, dest)
	rep, err := co.Migrate(ctx, rng, dest)
	if err != nil {
		return err
	}
	fmt.Printf("done: epoch=%d fence=%v pre_copied=%d delta_txns=%d bytes_shipped=%d\n",
		rep.Epoch, rep.FenceDuration.Round(time.Microsecond), rep.PrecopyN, rep.DeltaTxns, rep.BytesShipped)
	return nil
}

// status prints the coordination service's view of itself — per shard
// when the handle is a router, as a single line otherwise — followed
// by placement/migration state and each shard's observer tier with its
// replication lag.
func status(c *cluster.Cluster, sess coord.Client, shards, observers int) error {
	if r, ok := sess.(*shard.Router); ok {
		if err := r.RefreshPlacement(context.Background()); err != nil {
			fmt.Printf("placement refresh failed: %v\n", err)
		}
		sts, err := r.ShardStatus()
		if err != nil {
			return err
		}
		for i, st := range sts {
			fmt.Printf("shard %d: server=%d leader=%d epoch=%d znodes=%d%s%s%s\n",
				i, st.ServerID, st.LeaderID, st.Epoch, st.Znodes, storageStatus(st), observerFeedStatus(st), applyStatus(st))
			for _, rg := range st.Ranges {
				state := fmt.Sprintf("fenced -> shard %d (delta shipping)", rg.Dest)
				if rg.Moved {
					state = fmt.Sprintf("moved -> shard %d (epoch %d)", rg.Dest, rg.Epoch)
				}
				fmt.Printf("shard %d: range [%x,%x): %s\n", i, rg.Lo, rg.Hi, state)
			}
		}
		tbl := r.PlacementTable()
		fmt.Printf("placement: epoch=%d shards=%d overrides=%d\n", tbl.Epoch(), tbl.Shards(), len(tbl.Overrides()))
		for _, ov := range tbl.Overrides() {
			fmt.Printf("placement: range [%x,%x) pinned to shard %d\n", ov.Lo, ov.Hi, ov.Shard)
		}
	} else {
		st, err := sess.Status()
		if err != nil {
			return err
		}
		fmt.Printf("server=%d leader=%d epoch=%d znodes=%d%s%s%s\n",
			st.ServerID, st.LeaderID, st.Epoch, st.Znodes, storageStatus(st), observerFeedStatus(st), applyStatus(st))
	}
	for s := 0; s < shards; s++ {
		for i := 0; i < observers; i++ {
			obs := c.Observer(s, i)
			if obs == nil {
				fmt.Printf("shard %d observer %d: down\n", s, i)
				continue
			}
			reg := obs.Metrics()
			fmt.Printf("shard %d observer %d: id=%d applied=%x lag_txns=%d znodes=%d snapshot_installs=%d\n",
				s, i, obs.ID(), obs.LastApplied(), reg.Gauge("zab.observer.lag_txns").Value(),
				obs.Tree().Count(), reg.Counter("zab.snapshot_installs").Value())
		}
	}
	return nil
}

// observerFeedStatus renders the per-observer lag a leader reports in
// its status reply (empty on followers and observer-free ensembles).
func observerFeedStatus(st coord.Status) string {
	if len(st.Observers) == 0 {
		return ""
	}
	var b strings.Builder
	for _, o := range st.Observers {
		fmt.Fprintf(&b, " observer[%d].applied=%x observer[%d].lag_txns=%d observer[%d].lag_ms=%d",
			o.ID, o.AppliedZxid, o.ID, o.LagTxns, o.ID, o.LagMS)
	}
	return b.String()
}

// applyStatus renders the apply-pipeline health of a status reply;
// empty when the pipeline is idle (the common, healthy case).
func applyStatus(st coord.Status) string {
	if st.ApplyLagTxns == 0 && st.ApplyQueueFrames == 0 {
		return ""
	}
	return fmt.Sprintf(" apply.lag_txns=%d apply.queue_frames=%d", st.ApplyLagTxns, st.ApplyQueueFrames)
}

// storageStatus renders the durable-storage fields of a status reply;
// empty for in-memory servers (no WAL segments).
func storageStatus(st coord.Status) string {
	if st.WALSegments == 0 {
		return ""
	}
	return fmt.Sprintf(" storage.last_durable_zxid=%x storage.wal_segments=%d storage.fsync_batch_txns=%d",
		st.LastDurableZxid, st.WALSegments, st.FsyncBatchTxns)
}

func run(fs vfs.FileSystem, args []string) error {
	need := func(n int) error {
		if len(args) < n+1 {
			return fmt.Errorf("%s needs %d argument(s)", args[0], n)
		}
		return nil
	}
	switch args[0] {
	case "help":
		fmt.Println("mkdir PATH | ls PATH | stat PATH | put PATH DATA | cat PATH |")
		fmt.Println("rm PATH | rmdir PATH | mv OLD NEW | ln TARGET LINK | readlink PATH |")
		fmt.Println("chmod PATH OCTAL | truncate PATH SIZE | watch PATH [N] | status |")
		fmt.Println("migrate PATH|LO:HI DEST-SHARD | migrate recover | quit")
		return nil
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return fs.Mkdir(args[1], 0o755)
	case "ls":
		if err := need(1); err != nil {
			return err
		}
		// One batched ChildrenData RPC supplies names, kinds, and modes;
		// no per-entry stat round trips.
		es, err := fs.Readdir(args[1])
		if err != nil {
			return err
		}
		for _, e := range es {
			kind, suffix := "-", ""
			if e.IsDir {
				kind, suffix = "d", "/"
			}
			fmt.Printf("%s%03o %s%s\n", kind, e.Mode, e.Name, suffix)
		}
		return nil
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		fi, err := fs.Stat(args[1])
		if err != nil {
			return err
		}
		kind := "file"
		if fi.IsDir() {
			kind = "dir"
		} else if fi.IsSymlink() {
			kind = "symlink"
		}
		fmt.Printf("%s %s mode=%o size=%d nlink=%d mtime=%s\n",
			kind, fi.Name, fi.Mode&vfs.PermMask, fi.Size, fi.Nlink, fi.Mtime.Format("15:04:05.000"))
		return nil
	case "put":
		if err := need(2); err != nil {
			return err
		}
		return vfs.WriteFile(fs, args[1], []byte(strings.Join(args[2:], " ")))
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		data, err := vfs.ReadFile(fs, args[1])
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return fs.Unlink(args[1])
	case "rmdir":
		if err := need(1); err != nil {
			return err
		}
		return fs.Rmdir(args[1])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return fs.Rename(args[1], args[2])
	case "ln":
		if err := need(2); err != nil {
			return err
		}
		return fs.Symlink(args[1], args[2])
	case "readlink":
		if err := need(1); err != nil {
			return err
		}
		target, err := fs.Readlink(args[1])
		if err != nil {
			return err
		}
		fmt.Println(target)
		return nil
	case "chmod":
		if err := need(2); err != nil {
			return err
		}
		var mode uint32
		if _, err := fmt.Sscanf(args[2], "%o", &mode); err != nil {
			return fmt.Errorf("bad mode %q", args[2])
		}
		return fs.Chmod(args[1], mode)
	case "truncate":
		if err := need(2); err != nil {
			return err
		}
		var size int64
		if _, err := fmt.Sscanf(args[2], "%d", &size); err != nil {
			return fmt.Errorf("bad size %q", args[2])
		}
		return fs.Truncate(args[1], size)
	default:
		return fmt.Errorf("unknown command %q (try help)", args[0])
	}
}

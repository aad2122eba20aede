package main

import (
	"fmt"
	"math/rand"
	"time"
)

// opKind names one generated operation. The first group is issued
// through vfs.FileSystem on a mount, the second through coord.Client
// (wan-pipeline runs below vfs and core).
type opKind uint8

const (
	opMkdir opKind = iota
	opRmdir
	opCreate // Create + Close
	opUnlink
	opRename
	opChmod
	opStat
	opOpen // Open(read) + Close
	opReaddir
	opMkRmdir // Mkdir then Rmdir of the same fresh directory
	opZCreate
	opZSet
	opZDelete
)

var opNames = [...]string{"mkdir", "rmdir", "create", "unlink", "rename", "chmod",
	"stat", "open", "readdir", "mkrmdir", "zcreate", "zset", "zdelete"}

func (k opKind) String() string { return opNames[k] }

// mutates reports whether the op can change which names exist, i.e.
// whether the output check has to replay it. (opMkRmdir leaves nothing
// behind when acked but may when it fails half way.)
func (k opKind) mutates() bool {
	switch k {
	case opStat, opOpen, opReaddir, opChmod, opZSet:
		return false
	}
	return true
}

// op is one generated operation. at is the intended send instant as an
// offset from the start of the run (open loop only); mount picks the
// client mount (open loop only; closed-loop generators are per worker).
type op struct {
	kind  opKind
	path  string
	path2 string // rename destination
	perm  uint32
	data  []byte // znode payload (wan-pipeline)
	want  int    // readdir: the fewest entries a correct listing has
	mount int
	at    time.Duration
}

func (o op) String() string {
	return fmt.Sprintf("%d %s %s %s %o %x %d %d", o.at, o.kind, o.path, o.path2, o.perm, o.data, o.want, o.mount)
}

// generator yields a workload's operation sequence. It is a pure
// function of its seed: the program under test sees only these
// generated inputs. live reports how many entries the sequence so far
// has left in the namespace beyond the populated ones — the
// steady-state invariant says it stays bounded.
type generator interface {
	next() op
	live() int
}

func rootName(prefix string, seed int64) string {
	return fmt.Sprintf("/%s%04x", prefix, uint16(seed)^uint16(seed>>16))
}

// --- meta-write --------------------------------------------------------

const (
	mwFilesPerCycle = 32
	mwRenames       = 4
	mwChmods        = 4
)

// metaWriteGen cycles one worker through a private subtree: Mkdir,
// 32x Create, 4x same-dir Rename, 4x Chmod, 32x Unlink, Rmdir. Every
// op is a coordination write and the namespace never grows past one
// cycle's files.
type metaWriteGen struct {
	rng   *rand.Rand
	base  string
	cycle int
	queue []op
	files int
}

func newMetaWriteGen(seed int64, worker int) *metaWriteGen {
	return &metaWriteGen{
		rng:  rand.New(rand.NewSource(seed*7919 + int64(worker) + 1)),
		base: fmt.Sprintf("%s/w%d", rootName("mw", seed), worker),
	}
}

func (g *metaWriteGen) fill() {
	dir := fmt.Sprintf("%s/c%d-%08x", g.base, g.cycle, g.rng.Uint32())
	g.cycle++
	names := make([]string, mwFilesPerCycle)
	g.queue = append(g.queue, op{kind: opMkdir, path: dir, perm: 0o755})
	for i := range names {
		names[i] = fmt.Sprintf("%s/f%02d-%04x", dir, i, g.rng.Intn(1<<16))
		g.queue = append(g.queue, op{kind: opCreate, path: names[i], perm: 0o644})
	}
	for _, i := range g.rng.Perm(mwFilesPerCycle)[:mwRenames] {
		to := fmt.Sprintf("%s/g%02d", dir, i)
		g.queue = append(g.queue, op{kind: opRename, path: names[i], path2: to})
		names[i] = to
	}
	for i := 0; i < mwChmods; i++ {
		// Chmod of a directory is a znode Set; a file's would only touch
		// the back-end and bypass the coordination write path.
		g.queue = append(g.queue, op{kind: opChmod, path: dir, perm: 0o700 | uint32(g.rng.Intn(0o100))})
	}
	for _, n := range names {
		g.queue = append(g.queue, op{kind: opUnlink, path: n})
	}
	g.queue = append(g.queue, op{kind: opRmdir, path: dir})
}

func (g *metaWriteGen) next() op {
	if len(g.queue) == 0 {
		g.fill()
	}
	o := g.queue[0]
	g.queue = g.queue[1:]
	switch o.kind {
	case opCreate, opMkdir:
		g.files++
	case opUnlink, opRmdir:
		g.files--
	}
	return o
}

func (g *metaWriteGen) live() int { return g.files }

// --- meta-read ---------------------------------------------------------

type readShape struct{ dirs, files int }

var (
	metaReadShape      = readShape{256, 64}
	metaReadShapeQuick = readShape{16, 16}
)

func metaReadDir(root string, d int) string     { return fmt.Sprintf("%s/d%03d", root, d) }
func metaReadFile(root string, d, f int) string { return fmt.Sprintf("%s/d%03d/f%02d", root, d, f) }

// metaReadGen draws uniformly over a populated tree: 70% file Stat,
// 15% directory Stat, 10% Open+Close, 5% Readdir.
type metaReadGen struct {
	rng   *rand.Rand
	root  string
	shape readShape
}

func newMetaReadGen(seed int64, worker int, shape readShape) *metaReadGen {
	return &metaReadGen{
		rng:   rand.New(rand.NewSource(seed*104729 + int64(worker) + 1)),
		root:  rootName("mr", seed),
		shape: shape,
	}
}

func (g *metaReadGen) next() op {
	d, f := g.rng.Intn(g.shape.dirs), g.rng.Intn(g.shape.files)
	switch r := g.rng.Intn(100); {
	case r < 70:
		return op{kind: opStat, path: metaReadFile(g.root, d, f)}
	case r < 85:
		return op{kind: opStat, path: metaReadDir(g.root, d)}
	case r < 95:
		return op{kind: opOpen, path: metaReadFile(g.root, d, f)}
	default:
		return op{kind: opReaddir, path: metaReadDir(g.root, d), want: g.shape.files}
	}
}

func (g *metaReadGen) live() int { return 0 }

// --- mixed-open --------------------------------------------------------

const (
	mixedRate       = 2000.0 // offered ops/s over both mounts
	mixedDirs       = 64
	mixedStatic     = 32 // per dir: files that are only read
	mixedDynamic    = 32 // per dir: initial members of the create/unlink FIFO
	mixedFIFO       = mixedDirs * mixedDynamic
	mixedFIFOSlack  = 256
	mixedTokens     = 512 // files that only get renamed, in turn
	mixedHotPercent = 20  // share of ops aimed at dir 0
)

func mixedDir(root string, d int) string           { return fmt.Sprintf("%s/d%02d", root, d) }
func mixedStaticFile(root string, d, f int) string { return fmt.Sprintf("%s/d%02d/s%02d", root, d, f) }
func mixedDynFile(root string, d, f int) string    { return fmt.Sprintf("%s/d%02d/y%02d", root, d, f) }
func mixedToken(root string, t int) string {
	return fmt.Sprintf("%s/d%02d/r%03d", root, t%mixedDirs, t)
}

// mixedGen is the open-loop mix: Poisson arrivals at mixedRate, reads
// beside writes on the same directories. Creates and unlinks are paired
// through a FIFO of live files so listed directories never grow;
// renames cycle a fixed set of token files, half of them across
// directories (and so, sometimes, across shards). Ops run concurrently,
// so two ops on one name must stay further apart than any stall short
// of opTimeout: a file rests 6.4 s between create and unlink, a token
// as long between two renames (512 tokens, 80 renames/s). A file is unlinked by
// the mount that created it and a token is always renamed by the same
// mount: a session sees its own writes, while another client's are
// only promised after a Sync, and a follower that falls behind for a
// moment must not turn into failed ops.
type mixedGen struct {
	rng     *rand.Rand
	root    string
	mounts  int
	clock   time.Duration
	fifo    []mixedFile
	tokens  []string // current path of each rename token
	tokDir  []int    // and the directory it currently sits in
	nextTok int
	serial  int
}

type mixedFile struct {
	path  string
	mount int // the mount that created it
}

func newMixedGen(seed int64, mounts int) *mixedGen {
	g := &mixedGen{
		rng:    rand.New(rand.NewSource(seed*1299709 + 1)),
		root:   rootName("mx", seed),
		mounts: mounts,
	}
	for f := 0; f < mixedDynamic; f++ {
		for d := 0; d < mixedDirs; d++ {
			g.fifo = append(g.fifo, mixedFile{mixedDynFile(g.root, d, f), d % mounts})
		}
	}
	for t := 0; t < mixedTokens; t++ {
		g.tokens = append(g.tokens, mixedToken(g.root, t))
		g.tokDir = append(g.tokDir, t%mixedDirs)
	}
	return g
}

func (g *mixedGen) dir() int {
	if g.rng.Intn(100) < mixedHotPercent {
		return 0
	}
	return g.rng.Intn(mixedDirs)
}

func (g *mixedGen) next() op {
	g.clock += time.Duration(g.rng.ExpFloat64() / mixedRate * float64(time.Second))
	o := op{at: g.clock, mount: g.rng.Intn(g.mounts)}
	d := g.dir()
	r := g.rng.Intn(100)
	// Keep the FIFO near its nominal length: at the edges a create
	// draw turns into an unlink and the other way round.
	if r >= 60 && r < 88 {
		if len(g.fifo) >= mixedFIFO+mixedFIFOSlack {
			r = 74
		} else if len(g.fifo) <= mixedFIFO-mixedFIFOSlack {
			r = 60
		}
	}
	switch {
	case r < 55:
		o.kind, o.path = opStat, mixedStaticFile(g.root, d, g.rng.Intn(mixedStatic))
	case r < 60:
		o.kind, o.path, o.want = opReaddir, mixedDir(g.root, d), mixedStatic
	case r < 74:
		g.serial++
		o.kind, o.perm = opCreate, 0o644
		o.path = fmt.Sprintf("%s/n%07d", mixedDir(g.root, d), g.serial)
		g.fifo = append(g.fifo, mixedFile{o.path, o.mount})
	case r < 88:
		o.kind, o.path, o.mount = opUnlink, g.fifo[0].path, g.fifo[0].mount
		g.fifo = g.fifo[1:]
	case r < 94:
		o.kind, o.path, o.perm = opChmod, mixedDir(g.root, d), 0o700|uint32(g.rng.Intn(0o100))
	case r < 98:
		t := g.nextTok
		g.nextTok = (g.nextTok + 1) % mixedTokens
		g.serial++
		if g.rng.Intn(2) == 0 {
			g.tokDir[t] = g.rng.Intn(mixedDirs)
		}
		to := fmt.Sprintf("%s/r%03d.%d", mixedDir(g.root, g.tokDir[t]), t, g.serial)
		o.kind, o.path, o.path2, o.mount = opRename, g.tokens[t], to, t%g.mounts
		g.tokens[t] = to
	default:
		g.serial++
		o.kind, o.perm = opMkRmdir, 0o755
		o.path = fmt.Sprintf("%s/t%07d", mixedDir(g.root, d), g.serial)
	}
	return o
}

func (g *mixedGen) live() int { return len(g.fifo) - mixedFIFO }

// --- wan-pipeline ------------------------------------------------------

const (
	wanWindow  = 16  // futures in flight per session
	wanPrefill = 256 // znodes per session before the run
	wanSlack   = 64
)

// wanGen is the coordination-level pipelined mix for one session:
// create 3 : set 2 : delete-oldest 3 with 8-byte payloads. Futures are
// mutually unordered, so a set never targets a znode that was created
// within the last window or could be deleted within the next one.
type wanGen struct {
	rng    *rand.Rand
	base   string
	fifo   []string
	serial int
}

func wanNode(base string, n int) string { return fmt.Sprintf("%s/n%07d", base, n) }

func newWanGen(seed int64, session int) *wanGen {
	g := &wanGen{
		rng:  rand.New(rand.NewSource(seed*15485863 + int64(session) + 1)),
		base: fmt.Sprintf("%s/s%d", rootName("wan", seed), session),
	}
	for ; g.serial < wanPrefill; g.serial++ {
		g.fifo = append(g.fifo, wanNode(g.base, g.serial))
	}
	return g
}

func (g *wanGen) payload() []byte {
	b := make([]byte, 8)
	g.rng.Read(b)
	return b
}

func (g *wanGen) next() op {
	r := g.rng.Intn(8)
	if len(g.fifo) >= wanPrefill+wanSlack && r < 3 {
		r = 5
	} else if len(g.fifo) <= wanPrefill-wanSlack && r >= 5 {
		r = 0
	}
	switch {
	case r < 3:
		o := op{kind: opZCreate, path: wanNode(g.base, g.serial), data: g.payload()}
		g.serial++
		g.fifo = append(g.fifo, o.path)
		return o
	case r < 5:
		// Skip the 2*window oldest (a delete may be in flight or about
		// to be) and the window newest (their create may be in flight).
		lo, hi := 2*wanWindow, len(g.fifo)-wanWindow
		return op{kind: opZSet, path: g.fifo[lo+g.rng.Intn(hi-lo)], data: g.payload()}
	default:
		o := op{kind: opZDelete, path: g.fifo[0]}
		g.fifo = g.fifo[1:]
		return o
	}
}

func (g *wanGen) live() int { return len(g.fifo) - wanPrefill }

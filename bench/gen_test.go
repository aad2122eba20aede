package main

import (
	"strings"
	"testing"
)

func generators(seed int64) map[string]generator {
	return map[string]generator{
		"meta-write":   newMetaWriteGen(seed, 0),
		"meta-read":    newMetaReadGen(seed, 0, metaReadShape),
		"mixed-open":   newMixedGen(seed, clientMounts),
		"wan-pipeline": newWanGen(seed, 0),
	}
}

func sequence(g generator, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(g.next().String())
		b.WriteByte('\n')
	}
	return b.String()
}

// The program under test sees only generated inputs, so the same seed
// must give the byte-identical op sequence and another seed another.
func TestGeneratorsAreSeeded(t *testing.T) {
	const n = 5000
	a, b, c := generators(7), generators(7), generators(8)
	for name := range a {
		sa, sb, sc := sequence(a[name], n), sequence(b[name], n), sequence(c[name], n)
		if sa != sb {
			t.Errorf("%s: same seed gave different sequences", name)
		}
		if sa == sc {
			t.Errorf("%s: different seeds gave the same sequence", name)
		}
	}
}

// Every workload runs on a steady-state namespace: however long the
// sequence, the entries it leaves behind stay within a fixed bound.
func TestGeneratorsKeepNamespaceSteady(t *testing.T) {
	bounds := map[string]int{
		"meta-write":   1 + mwFilesPerCycle,
		"meta-read":    0,
		"mixed-open":   mixedFIFOSlack,
		"wan-pipeline": wanSlack,
	}
	for name, g := range generators(3) {
		for i := 0; i < 300000; i++ {
			g.next()
			if l := g.live(); l > bounds[name] || l < -bounds[name] {
				t.Fatalf("%s: %d entries beyond the populated ones after %d ops (bound %d)", name, l, i+1, bounds[name])
			}
		}
	}
}

// Pipelined futures are mutually unordered, so within any window of
// submissions no two ops of the wan mix may touch the same znode (two
// sets of one znode excepted: either order is a valid outcome).
func TestWanOpsInFlightAreDisjoint(t *testing.T) {
	g := newWanGen(5, 1)
	var recent []op
	for i := 0; i < 100000; i++ {
		o := g.next()
		for _, r := range recent {
			if r.path == o.path && !(r.kind == opZSet && o.kind == opZSet) {
				t.Fatalf("op %d (%s %s) races %s within the last %d submissions", i, o.kind, o.path, r.kind, wanWindow)
			}
		}
		if recent = append(recent, o); len(recent) > wanWindow {
			recent = recent[1:]
		}
	}
}

// The open loop runs its ops concurrently, so two ops of the mixed mix
// that must happen in order on one name (a file's create and unlink,
// two renames of one token) are only safe when their intended instants
// are further apart than the longest stall an op may survive.
func TestMixedOpsOnOneNameAreFarApart(t *testing.T) {
	g := newMixedGen(11, clientMounts)
	lastAt := map[string]op{}
	for i := 0; i < 300000; i++ {
		o := g.next()
		if !o.kind.mutates() || o.kind == opMkRmdir {
			continue
		}
		if prev, ok := lastAt[o.path]; ok {
			if o.at-prev.at < opTimeout {
				t.Fatalf("op %d (%s %s) comes %v after %s of the same name", i, o.kind, o.path, o.at-prev.at, prev.kind)
			}
			if o.mount != prev.mount {
				t.Fatalf("op %d (%s %s) runs on mount %d, the %s before it on mount %d", i, o.kind, o.path, o.mount, prev.kind, prev.mount)
			}
			delete(lastAt, o.path)
		}
		switch o.kind {
		case opCreate:
			lastAt[o.path] = o
		case opRename:
			lastAt[o.path2] = o
		}
	}
}

package znode

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestModelBasedRandomOps drives a long pseudo-random operation
// sequence into the Tree and into a trivially-correct map-based
// reference model, comparing every result and the final state. This is
// the deterministic-state-machine property the replication layer
// depends on: any divergence here would silently fork replicas.
func TestModelBasedRandomOps(t *testing.T) {
	tree := New()
	ref := newRefModel()
	rng := rand.New(rand.NewSource(42))

	paths := []string{"/a", "/b", "/a/x", "/a/y", "/b/z", "/a/x/deep"}
	var zxid uint64

	for i := 0; i < 5000; i++ {
		zxid++
		p := paths[rng.Intn(len(paths))]
		switch rng.Intn(6) {
		case 0: // create
			data := []byte(fmt.Sprintf("d%d", rng.Intn(3)))
			_, terr := tree.Create(p, data, ModePersistent, 0, zxid, int64(zxid))
			rerr := ref.create(p, string(data))
			if (terr == nil) != (rerr == nil) {
				t.Fatalf("op %d create %s: tree err=%v ref err=%v", i, p, terr, rerr)
			}
		case 1: // delete
			terr := tree.Delete(p, -1, zxid)
			rerr := ref.delete(p)
			if (terr == nil) != (rerr == nil) {
				t.Fatalf("op %d delete %s: tree err=%v ref err=%v", i, p, terr, rerr)
			}
		case 2: // set
			data := []byte(fmt.Sprintf("v%d", rng.Intn(3)))
			_, terr := tree.Set(p, data, -1, zxid, int64(zxid))
			rerr := ref.set(p, string(data))
			if (terr == nil) != (rerr == nil) {
				t.Fatalf("op %d set %s: tree err=%v ref err=%v", i, p, terr, rerr)
			}
		case 3: // get
			data, _, terr := tree.Get(p)
			val, rerr := ref.get(p)
			if (terr == nil) != (rerr == nil) {
				t.Fatalf("op %d get %s: tree err=%v ref err=%v", i, p, terr, rerr)
			}
			if terr == nil && string(data) != val {
				t.Fatalf("op %d get %s: tree=%q ref=%q", i, p, data, val)
			}
		case 4: // children
			kids, terr := tree.Children(p)
			rkids, rerr := ref.children(p)
			if (terr == nil) != (rerr == nil) {
				t.Fatalf("op %d children %s: tree err=%v ref err=%v", i, p, terr, rerr)
			}
			if terr == nil && strings.Join(kids, ",") != strings.Join(rkids, ",") {
				t.Fatalf("op %d children %s: tree=%v ref=%v", i, p, kids, rkids)
			}
		case 5: // guarded check + set, one batch
			guard := []string{"", "d", "v", "d1", "v2", "x"}[rng.Intn(6)]
			data := []byte(fmt.Sprintf("v%d", rng.Intn(3)))
			results, committed := tree.Multi([]MultiOp{
				{Kind: MultiCheck, Path: p, Version: -1, Data: []byte(guard)},
				{Kind: MultiSet, Path: p, Data: data, Version: -1},
			}, 0, zxid, int64(zxid))
			prior, _ := ref.get(p)
			rerr := ref.guardedSet(p, guard, string(data))
			if committed != (rerr == nil) {
				t.Fatalf("op %d guarded set %s (guard %q): tree committed=%v ref err=%v", i, p, guard, committed, rerr)
			}
			if string(results[0].Data) != prior {
				t.Fatalf("op %d guarded set %s: check saw %q, ref had %q", i, p, results[0].Data, prior)
			}
		}
	}

	// Final structural agreement.
	if int64(len(ref.nodes)) != tree.Count() {
		t.Fatalf("final count: tree=%d ref=%d", tree.Count(), len(ref.nodes))
	}
	tree.Walk(func(e WalkEntry) {
		val, err := ref.get(e.Path)
		if err != nil {
			t.Fatalf("tree has %s, ref does not", e.Path)
		}
		if string(e.Data) != val {
			t.Fatalf("data mismatch at %s: tree=%q ref=%q", e.Path, e.Data, val)
		}
	})
}

// refModel is the obviously-correct reference: a flat map of paths.
type refModel struct {
	nodes map[string]string
}

func newRefModel() *refModel {
	return &refModel{nodes: map[string]string{}}
}

func parentOf(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/"
	}
	return p[:i]
}

func (m *refModel) hasChildren(p string) bool {
	prefix := p + "/"
	for q := range m.nodes {
		if strings.HasPrefix(q, prefix) {
			return true
		}
	}
	return false
}

func (m *refModel) create(p, data string) error {
	if _, ok := m.nodes[p]; ok {
		return fmt.Errorf("exists")
	}
	if parent := parentOf(p); parent != "/" {
		if _, ok := m.nodes[parent]; !ok {
			return fmt.Errorf("no parent")
		}
	}
	m.nodes[p] = data
	return nil
}

func (m *refModel) delete(p string) error {
	if _, ok := m.nodes[p]; !ok {
		return fmt.Errorf("no node")
	}
	if m.hasChildren(p) {
		return fmt.Errorf("not empty")
	}
	delete(m.nodes, p)
	return nil
}

func (m *refModel) set(p, data string) error {
	if _, ok := m.nodes[p]; !ok {
		return fmt.Errorf("no node")
	}
	m.nodes[p] = data
	return nil
}

func (m *refModel) guardedSet(p, guard, data string) error {
	v, ok := m.nodes[p]
	if !ok {
		return fmt.Errorf("no node")
	}
	if !strings.HasPrefix(v, guard) {
		return fmt.Errorf("guard mismatch")
	}
	m.nodes[p] = data
	return nil
}

func (m *refModel) get(p string) (string, error) {
	v, ok := m.nodes[p]
	if !ok {
		return "", fmt.Errorf("no node")
	}
	return v, nil
}

func (m *refModel) children(p string) ([]string, error) {
	if p != "/" {
		if _, ok := m.nodes[p]; !ok {
			return nil, fmt.Errorf("no node")
		}
	}
	var out []string
	prefix := p + "/"
	if p == "/" {
		prefix = "/"
	}
	for q := range m.nodes {
		if !strings.HasPrefix(q, prefix) {
			continue
		}
		rest := q[len(prefix):]
		if rest != "" && !strings.Contains(rest, "/") {
			out = append(out, rest)
		}
	}
	sort.Strings(out)
	return out, nil
}

package pvfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/backend/backendtest"
	"repro/internal/transport"
	"repro/internal/vfs"
)

var instSeq int

func startInstance(t *testing.T, numMeta, numData int) (*Instance, *Client) {
	t.Helper()
	instSeq++
	net := transport.NewInProc()
	var metaAddrs, dataAddrs []string
	for i := 0; i < numMeta; i++ {
		metaAddrs = append(metaAddrs, fmt.Sprintf("pvfs%d-meta%d", instSeq, i))
	}
	for i := 0; i < numData; i++ {
		dataAddrs = append(dataAddrs, fmt.Sprintf("pvfs%d-data%d", instSeq, i))
	}
	inst, err := Start(Config{Net: net, MetaAddrs: metaAddrs, DataAddrs: dataAddrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Stop)
	c := NewClient(net, metaAddrs, dataAddrs)
	t.Cleanup(func() { c.Close() })
	return inst, c
}

func TestConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) vfs.FileSystem {
		_, c := startInstance(t, 3, 2)
		return c
	}, backendtest.Options{SkipDirRename: true})
}

func TestStartValidation(t *testing.T) {
	net := transport.NewInProc()
	if _, err := Start(Config{Net: net, MetaAddrs: []string{"m"}}); err == nil {
		t.Fatal("Start without data servers succeeded")
	}
	if _, err := Start(Config{Net: net, DataAddrs: []string{"d"}}); err == nil {
		t.Fatal("Start without metadata servers succeeded")
	}
}

func TestDirectoryBodiesSpreadAcrossMetaServers(t *testing.T) {
	inst, c := startInstance(t, 4, 1)
	for i := 0; i < 64; i++ {
		if err := c.Mkdir(fmt.Sprintf("/d%02d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	counts := make([]int, len(inst.meta))
	for k, ms := range inst.meta {
		ms.mu.Lock()
		counts[k] = len(ms.bodies)
		ms.mu.Unlock()
	}
	total := 0
	for idx, n := range counts {
		total += n
		if n == 0 {
			t.Fatalf("meta server %d owns nothing: %v", idx, counts)
		}
	}
	if total != 65 { // 64 dirs + root body
		t.Fatalf("total bodies = %d, want 65", total)
	}
}

func TestDirRenameUnsupported(t *testing.T) {
	_, c := startInstance(t, 2, 1)
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/d", "/e"); !errors.Is(err, vfs.ErrNotionSup) {
		t.Fatalf("dir rename err = %v", err)
	}
}

func TestFailedMkdirRollsBackDirent(t *testing.T) {
	// Create a file whose name then collides with a directory body:
	// the second mkdir of the same path must fail atomically and leave
	// exactly one entry behind.
	_, c := startInstance(t, 2, 1)
	if err := c.Mkdir("/dup", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/dup", 0o755); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("dup mkdir err = %v", err)
	}
	es, err := c.Readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 {
		t.Fatalf("entries after failed mkdir = %v", es)
	}
}

func TestDataSpreadAcrossDataServers(t *testing.T) {
	inst, c := startInstance(t, 1, 3)
	for i := 0; i < 60; i++ {
		if err := vfs.WriteFile(c, fmt.Sprintf("/f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for idx, ds := range inst.data {
		n := ds.Count()
		total += n
		if n == 0 {
			t.Fatalf("data server %d holds nothing", idx)
		}
	}
	if total != 60 {
		t.Fatalf("total datafiles = %d, want 60", total)
	}
}

func TestTwoClientsDistinctHandles(t *testing.T) {
	instSeq++
	net := transport.NewInProc()
	metaAddrs := []string{fmt.Sprintf("pvfs%d-meta0", instSeq)}
	dataAddrs := []string{fmt.Sprintf("pvfs%d-data0", instSeq)}
	inst, err := Start(Config{Net: net, MetaAddrs: metaAddrs, DataAddrs: dataAddrs})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	a := NewClient(net, metaAddrs, dataAddrs)
	b := NewClient(net, metaAddrs, dataAddrs)
	defer a.Close()
	defer b.Close()
	if err := vfs.WriteFile(a, "/fa", []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(b, "/fb", []byte("BB")); err != nil {
		t.Fatal(err)
	}
	ga, err := vfs.ReadFile(b, "/fa")
	if err != nil || string(ga) != "AAAA" {
		t.Fatalf("fa = %q, %v", ga, err)
	}
	gb, err := vfs.ReadFile(a, "/fb")
	if err != nil || string(gb) != "BB" {
		t.Fatalf("fb = %q, %v", gb, err)
	}
}

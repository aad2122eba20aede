package coord

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/coord/znode"
	"repro/internal/transport"
)

// TestRepliesAreTheCallersOwn checks the rule decodeReply's aliasing
// rests on, on every transport: the bytes a get or a listing returns
// belong to that one reply. The caller overwrites and grows each of
// them; the tree, the listing's later entries and the next replies stay
// intact.
func TestRepliesAreTheCallersOwn(t *testing.T) {
	ports := map[string]string{}
	for _, c := range []struct {
		name string
		cfg  EnsembleConfig
	}{
		{"inproc", EnsembleConfig{Net: transport.NewInProc(), AddrPrefix: "owned-inproc"}},
		{"latency", EnsembleConfig{
			Net:        &transport.Latency{Inner: transport.NewInProc(), Delay: func() time.Duration { return 20 * time.Microsecond }},
			AddrPrefix: "owned-latency",
		}},
		{"tcp", EnsembleConfig{Net: transport.TCP{}, AddrFor: func(id uint64, kind string) string {
			key := fmt.Sprint(kind, id)
			if ports[key] == "" {
				ports[key] = pickFreePort(t)
			}
			return ports[key]
		}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Servers = 1
			cfg.HeartbeatInterval = 5 * time.Millisecond
			cfg.ElectionTimeout = 30 * time.Millisecond
			e, err := StartEnsemble(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.Stop)
			s := connect(t, e, 0)
			want := map[string]string{".": "dir", "a": "aaaa", "b": "bbbb"}
			for _, n := range []string{".", "a", "b"} {
				p := "/own/" + n
				if n == "." {
					p = "/own"
				}
				if _, err := s.Create(p, []byte(want[n]), znode.ModePersistent); err != nil {
					t.Fatal(err)
				}
			}
			// The tail is longer than an entry's stat, so an append that
			// ran on into the reply would reach the next entry's data.
			tail := make([]byte, 256)
			scribble := func(b []byte) {
				for i := range b {
					b[i] = 'x'
				}
				_ = append(b, tail...)
			}
			for round := 0; round < 2; round++ {
				data, _, err := s.Get("/own/a")
				if err != nil || string(data) != want["a"] {
					t.Fatalf("round %d: Get = %q, %v; want %q", round, data, err, want["a"])
				}
				scribble(data)
				entries, err := s.ChildrenData("/own")
				if err != nil || len(entries) != len(want) {
					t.Fatalf("round %d: ChildrenData = %v, %v", round, entries, err)
				}
				for _, en := range entries {
					if string(en.Data) != want[en.Name] {
						t.Fatalf("round %d: entry %q holds %q, want %q", round, en.Name, en.Data, want[en.Name])
					}
					scribble(en.Data)
				}
			}
		})
	}
}

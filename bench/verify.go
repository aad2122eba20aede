package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"

	"repro/internal/coord"
	"repro/internal/vfs"
)

// model is the namespace the acked operations must have produced:
// every entry that should exist (true = directory), every entry that
// should be gone, and the paths a failed op leaves undecided.
type model struct {
	live      map[string]bool
	gone      map[string]struct{}
	uncertain map[string]struct{}
}

func newModel() *model {
	return &model{live: map[string]bool{}, gone: map[string]struct{}{}, uncertain: map[string]struct{}{}}
}

func (m *model) add(p string, dir bool) {
	m.live[p] = dir
	delete(m.gone, p)
}

func (m *model) remove(p string) {
	delete(m.live, p)
	m.gone[p] = struct{}{}
}

// apply replays one logged mutation.
func (m *model) apply(mu mutation) {
	o := mu.o
	if !mu.acked {
		m.uncertain[o.path] = struct{}{}
		if o.path2 != "" {
			m.uncertain[o.path2] = struct{}{}
		}
		return
	}
	switch o.kind {
	case opMkdir:
		m.add(o.path, true)
	case opCreate, opZCreate:
		m.add(o.path, false)
	case opRmdir, opUnlink, opZDelete:
		m.remove(o.path)
	case opRename:
		m.remove(o.path)
		m.add(o.path2, false)
	}
}

// lookup abstracts the two levels the check runs at: a DUFS mount or a
// bare coordination session.
type lookup struct {
	exists func(p string) (bool, error)
	list   func(dir string) ([]string, error)
}

func vfsLookup(fs vfs.FileSystem) lookup {
	return lookup{
		exists: func(p string) (bool, error) {
			_, err := fs.Stat(p)
			if errors.Is(err, vfs.ErrNotExist) {
				return false, nil
			}
			return err == nil, err
		},
		list: func(dir string) ([]string, error) {
			es, err := fs.Readdir(dir)
			names := make([]string, len(es))
			for i, e := range es {
				names[i] = e.Name
			}
			return names, err
		},
	}
}

func coordLookup(c coord.Client) lookup {
	return lookup{
		exists: func(p string) (bool, error) {
			_, ok, err := c.Exists(p)
			return ok, err
		},
		list: c.Children,
	}
}

const (
	maxGoneChecked = 2048
	sampledDirs    = 3
)

// check compares the namespace with the model: every entry an acked op
// left behind exists, every entry an acked op removed is absent (a
// seeded sample when there are very many), and sampledDirs directories
// list exactly the expected names. It returns how many acked writes
// turned out missing or resurrected, and a description of each problem.
func (m *model) check(lk lookup, seed int64) (lost int, problems []string) {
	note := func(format string, a ...any) {
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, a...))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	children := map[string][]string{}
	undecided := map[string]bool{}
	for p := range m.uncertain {
		undecided[path.Dir(p)] = true
	}
	for p := range m.live {
		children[path.Dir(p)] = append(children[path.Dir(p)], path.Base(p))
		if _, skip := m.uncertain[p]; skip {
			continue
		}
		ok, err := lk.exists(p)
		if err != nil {
			note("checking %s: %v", p, err)
			lost++
		} else if !ok {
			note("%s was created and acked but does not exist", p)
			lost++
		}
	}
	gone := make([]string, 0, len(m.gone))
	for p := range m.gone {
		if _, skip := m.uncertain[p]; !skip {
			gone = append(gone, p)
		}
	}
	sort.Strings(gone)
	rng.Shuffle(len(gone), func(i, j int) { gone[i], gone[j] = gone[j], gone[i] })
	for _, p := range gone[:min(len(gone), maxGoneChecked)] {
		ok, err := lk.exists(p)
		if err != nil {
			note("checking %s: %v", p, err)
			lost++
		} else if ok {
			note("%s was removed and acked but still exists", p)
			lost++
		}
	}
	var dirs []string
	for p, isDir := range m.live {
		if isDir && !undecided[p] {
			dirs = append(dirs, p)
		}
	}
	sort.Strings(dirs)
	rng.Shuffle(len(dirs), func(i, j int) { dirs[i], dirs[j] = dirs[j], dirs[i] })
	for _, dir := range dirs[:min(len(dirs), sampledDirs)] {
		got, err := lk.list(dir)
		if err != nil {
			note("listing %s: %v", dir, err)
			lost++
			continue
		}
		want := children[dir]
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
			note("%s lists %d entries, want %d", dir, len(got), len(want))
			lost++
		}
	}
	return lost, problems
}

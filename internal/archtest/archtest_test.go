// Package archtest holds the module's structural rules: the forks
// earlier changes deleted that must not grow back, the formatting rule,
// the rule that production code has a production caller, and the rule
// that CI's -run lists name tests that exist. Each rule
// is a row of a table and each row runs as its own subtest, e.g.
//
//	go test -run 'TestGuards/One_snapshot_cut' ./internal/archtest
//
// The test parses the module's sources with go/parser alone; it needs
// no build of the packages it checks, so a row can be run against an
// older tree by copying this directory into it.
package archtest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// A guard keeps one deleted fork from coming back. Every check it sets
// runs over the .go files (tests included) under dirs, except calls,
// which counts in non-test files only.
type guard struct {
	name   string   // "One …", the rule's name
	design string   // the DESIGN.md section that states the rule
	msg    string   // what a finding means and what to do instead
	dirs   []string // module-relative; "." is the whole module but bench/

	// names is matched against every identifier, every pkg.Name
	// selector and every quoted import path.
	names *regexp.Regexp
	// text is matched against every comment and string literal.
	text *regexp.Regexp
	// methods is matched against "Recv.Name" for every method declared
	// on a type and every method of a named interface type.
	methods *regexp.Regexp
	// calls bounds the number of call sites whose callee, written out
	// as a dotted path ("n.applyMu.Lock"), matches re.
	calls []callBound
	// node reports a construct no regexp can name, or "".
	node func(ast.Node) string
	// paths must not exist.
	paths []string
}

type callBound struct {
	re       *regexp.Regexp
	min, max int
}

// selfDir holds this test, whose patterns would match themselves.
const selfDir = "internal/archtest"

// benchDir holds the benchmark, whose files BENCHMARK.json pins;
// module-wide guards leave it out.
const benchDir = "bench"

var guards = []guard{
	{
		name:   "One replication path",
		design: "§9.4, §13.1",
		msg: "zab branches on a nil Storage again, NewNode installs MemStorage instead; or a removed replication option is back; " +
			"or the observer fork of the replica is back, set zab.Config.Observer / coord.ServerConfig.Observer instead",
		dirs:  []string{"."},
		names: regexp.MustCompile(`InitialSnapshot|ApplyWorkers|SyncEvery|NewObserver\b|^zab\.Observer$|ObserverConfig|msgObserverPoll|handleObserverPoll|ObserverState|coord/observer"`),
		node:  nilCompare("Storage"),
	},
	{
		name:   "One client op model",
		design: "§10.1",
		msg:    "a typed client form is declared on an implementation again; define Do and embed coord.Forms",
		dirs:   []string{"."},
		methods: regexp.MustCompile(
			`^(Session|Router)\.((Create|Get|Set|Delete|Exists|Children|ChildrenData|Multi|Sync)(Ctx)?|GetW|ExistsW|ChildrenW|Begin|BeginMulti|BeginChildrenData|WaitEvent)$`),
	},
	{
		name:   "One commit carrier",
		design: "§9.2",
		msg:    "zab sends commit notices outside the replication stream again",
		dirs:   []string{"internal/coord/zab"},
		names:  regexp.MustCompile(`commitReq|msgCommit|handleCommit`),
	},
	{
		name:   "One horizon request",
		design: "§9.2",
		msg: "a replica tells the leader who waits on it again, or the leader sends commit carriers; " +
			"a replica with a waiter asks for the horizon (Node.askLocked, syncReq.Until)",
		dirs:  []string{"internal/coord/zab"},
		names: regexp.MustCompile(`^(toldWaiting|wantsCommitLocked|Waiting)$`),
	},
	{
		name:   "One read-ordering rule",
		design: "§10.4",
		msg:    "a second read-ordering rule is back in internal/coord; the last-seen zxid stamp is the only one",
		dirs:   []string{"internal/coord"},
		names:  regexp.MustCompile(`readGen|callInOrder`),
	},
	{
		name:   "One watch delivery",
		design: "§16.3",
		msg:    "a queue or goroutine sits between the apply and the watch table again; the state machine's notify is watchTable.deliver",
		dirs:   []string{"internal/coord"},
		names:  regexp.MustCompile(`^(watchDispatcher|newWatchDispatcher|notifyRec)$`),
		paths:  []string{"internal/coord/watch_dispatch.go"},
	},
	{
		name:   "One apply source",
		design: "§16.1",
		msg:    "a second copy of the committed prefix sits beside zab's log again; an applier takes committed frames straight from n.log (Node.committedLocked)",
		dirs:   []string{"internal/coord/zab"},
		names:  regexp.MustCompile(`^(applyQ|applyEnqueued|applyBatch|enqueueCommittedLocked|drainApplyQueue)$`),
	},
	{
		name:   "One client per ensemble",
		design: "§13.4",
		msg:    "the read router is back; place reads by the order of the session's address list (cluster.ConnectCoord)",
		dirs:   []string{"."},
		names:  regexp.MustCompile(`ReadRouter|RouterConfig|ReadCounters|ReadPolicy|ConnectCoordRead`),
	},
	{
		name:   "One write route",
		design: "§9.2, §10.5",
		msg:    "a second write route is back in internal/coord; a non-leader names the leader (codeNotLeader) instead",
		dirs:   []string{"internal/coord"},
		names:  regexp.MustCompile(`msgForward|forwardReq|forwardResp|findLeader|leaderProbeEvery|statusOver|leaderMoved`),
	},
	{
		name:   "One barrier",
		design: "§13.3",
		msg:    "a second leader-read check is back in internal/coord; answer lease reads and syncs through zab.Node.ReadBarrier",
		dirs:   []string{"internal/coord"},
		names:  regexp.MustCompile(`appendSyncTxn|ErrNoLease|codeNoLease|HoldsReadLease`),
	},
	{
		name:   "One store per member",
		design: "§9.4, §14.3",
		msg: "a member restarts without its store again, or the blob-storage adapter is back; " +
			"or a blob snapshot method is back on a store, use SnapshotStream / SaveSnapshotFrom / InstallSnapshotFrom",
		dirs:    []string{"."},
		names:   regexp.MustCompile(`blobStorage|liftStorage`),
		text:    regexp.MustCompile(`restarts empty|rejoins empty|state wipe`),
		methods: regexp.MustCompile(`\.(SaveSnapshot|InstallSnapshot)$`),
		node:    blobSnapshot,
	},
	{
		name:   "One snapshot cut",
		design: "§11.4",
		msg:    "cut snapshots only in cutSnapshot and restore only in restoreLocked; a catch-up pull takes no applyMu",
		dirs:   []string{"internal/coord/zab"},
		calls: []callBound{
			{re: regexp.MustCompile(`\.SnapshotTo$`), min: 1, max: 1},
			{re: regexp.MustCompile(`\.RestoreFrom$`), min: 1, max: 1},
			{re: regexp.MustCompile(`\bapplyMu\.Lock$`), min: 0, max: 3},
		},
	},
	{
		name:   "One tree lock",
		design: "§14.2",
		msg: "the znode tree is guarded by lock stripes or a second mutex again; " +
			"every op takes Tree.mu, which also covers the ephemeral index",
		dirs:  []string{"internal/coord/znode"},
		names: regexp.MustCompile(`^(stripes?|stripeFor|stripeCount|(un)?lockAll|r(un)?lockAll|(un)?lockMask|r(un)?lockMask|multiLockSet|(un)?lockWrite|r(un)?lockPath|emu)$`),
		text:  regexp.MustCompile(`(?i)stripe`),
	},
	{
		name:   "One wake-up per waiter",
		design: "§9.5",
		msg: "zab has a condition shared by every leader goroutine again, or a targeted Signal is a Broadcast again; " +
			"give the waiter its own condition and wake it alone: only step-down and Stop broadcast",
		dirs:  []string{"internal/coord/zab"},
		names: regexp.MustCompile(`leaderCond`),
		calls: []callBound{
			{re: regexp.MustCompile(`\bpropCond\.Broadcast$`), min: 1, max: 1},
			{re: regexp.MustCompile(`\bsyncCond\.Broadcast$`), min: 1, max: 1},
			{re: regexp.MustCompile(`\bapplyCond\.Broadcast$`), min: 1, max: 1},
			{re: regexp.MustCompile(`\bcond\.Broadcast$`), min: 0, max: 0},
		},
	},
	{
		name:   "One election core",
		design: "§9.6",
		msg: "the election core starts a goroutine, takes a lock, reaches the network or reads the clock; " +
			"it takes inputs stamped by its host (zab.Node) and returns a core.Ready",
		dirs:  []string{"internal/coord/zab/core"},
		names: regexp.MustCompile(`^"(sync|sync/atomic|repro/internal/transport)"$`),
		calls: []callBound{
			{re: regexp.MustCompile(`^time\.(Now|Since|Until|After|AfterFunc|NewTimer|NewTicker|Sleep|Tick)$`), min: 0, max: 0},
		},
		node: goStatement,
	},
	{
		name:   "One tick loop",
		design: "§9.6",
		msg:    "zab times its election on a loop or fan-out of its own again; the tick loop hands the election core its ticks",
		dirs:   []string{"internal/coord/zab"},
		names:  regexp.MustCompile(`^(electionLoop|heartbeatLoop|runElection)$`),
	},
	{
		name:   "One identity check",
		design: "§8.1, §8.4",
		msg:    "internal/core checks a znode by version alone again; guard it on the bytes read with coord.CheckDataOp",
		dirs:   []string{"internal/core"},
		names:  regexp.MustCompile(`^coord\.CheckOp$`),
		node:   bareDataCheck,
	},
	{
		name:   "One FID directory",
		design: "§1",
		msg: "a create prepares more than the FID's one static directory again, or a back-end directory is removed; " +
			"a file's physical path is one directory and a name (fid.PhysicalPath), made by one backend.Mkdir and never removed",
		dirs:  []string{"internal/core"},
		names: regexp.MustCompile(`^(removePhysDirs|ensurePhysDirs)$`),
		calls: []callBound{
			{re: regexp.MustCompile(`^backend\.Rmdir$`), min: 0, max: 0},
			{re: regexp.MustCompile(`^backend\.Mkdir$`), min: 1, max: 1},
		},
	},
	{
		name:   "One measurement stack",
		design: "§4",
		msg:    "a second measurement stack is back; answer it with a bench/ workload or probe, or an exact-count test",
		dirs:   []string{"."},
		names:  regexp.MustCompile(`BENCH_baseline|startSaturatedEnsemble|Benchmark(RealStackDUFSCreate|RealStackDUFSStat|RealStackMdtest|AsyncPipeline|ApplyPipeline|ReadPathContention|ReaddirFanout|MultiRename|AblationClientCache|AblationZnodeTreeOps|DurableGroupCommit)\b`),
		text:   regexp.MustCompile(`BENCH_baseline|cmd/benchjson`),
		paths:  []string{"cmd/benchjson", "perf"},
	},
}

func TestGuards(t *testing.T) {
	m := loadModule(t)
	for _, g := range guards {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for _, f := range g.findings(m) {
				t.Errorf("%s", f)
			}
		})
	}
}

// TestGuardsCannotGoEmpty checks that a guard whose directories hold
// no Go file fails instead of passing vacuously, so moving or renaming
// a package cannot switch its guard off.
func TestGuardsCannotGoEmpty(t *testing.T) {
	m := loadModule(t)
	for _, tc := range []struct {
		dirs  []string
		empty bool
	}{
		{dirs: []string{"internal/coord/zab"}, empty: false},
		{dirs: []string{"internal/coord/nosuchpkg"}, empty: true},
		{dirs: []string{"internal/coord/zab", "internal/nosuchpkg"}, empty: true},
	} {
		g := guard{name: "self-check", dirs: tc.dirs, names: regexp.MustCompile(`^$`)}
		got := g.findings(m)
		failed := len(got) == 1 && strings.Contains(got[0], "self-check") && strings.Contains(got[0], "no .go file")
		if failed != tc.empty {
			t.Errorf("dirs %v: findings %q, want an empty-scan finding: %v", tc.dirs, got, tc.empty)
		}
	}
}

// TestGofmt lists every .go file gofmt would change.
func TestGofmt(t *testing.T) {
	m := loadModule(t)
	for _, f := range m.files {
		out, err := format.Source(f.src)
		if err != nil {
			t.Errorf("%s: %v", f.path, err)
			continue
		}
		if !bytes.Equal(out, f.src) {
			t.Errorf("%s: not gofmt-formatted; run gofmt -w %s", f.path, f.path)
		}
	}
}

// ciRun finds a `go test … -run '…' ./pkg/` command in the CI workflow:
// its quoted pattern and its package.
var ciRun = regexp.MustCompile(`go test [^'\n]*-run '([^']*)'[^\n]*?\s\./(\S*)`)

// TestCINamesExistingTests fails on a -run alternative in
// .github/workflows/ci.yml that prefix-matches no Test or Fuzz function
// declared in a _test.go file of its package: -run matches nothing
// silently, so a name whose test moved or went would leave CI running
// less than it says.
func TestCINamesExistingTests(t *testing.T) {
	m := loadModule(t)
	ci, err := os.ReadFile(filepath.Join(m.root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(ci), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, c := range ciRun.FindAllStringSubmatch(line, -1) {
			pkg, tree := strings.CutSuffix(strings.TrimSuffix(c[2], "/"), "/...")
			declared := "" // "\n" before each Test and Fuzz function's name
			for _, f := range m.files {
				dir := filepath.ToSlash(filepath.Dir(f.path))
				if !f.test || dir != pkg && !(tree && underDir(f.path, pkg)) {
					continue
				}
				for _, d := range f.ast.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
						(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
						declared += "\n" + fd.Name.Name
					}
				}
			}
			for _, alt := range strings.Split(c[1], "|") {
				name, _, _ := strings.Cut(strings.Trim(alt, "^$"), "/")
				if name != "" && !strings.Contains(declared, "\n"+name) {
					t.Errorf("ci.yml: -run names %q in ./%s, where no Test or Fuzz function starts with it", name, c[2])
				}
			}
		}
	}
}

// deadCodeAllowed lists the functions only code outside the module
// calls, each with the reason.
var deadCodeAllowed = map[string]string{
	"eventHeap.Less": "container/heap calls it through heap.Interface",
	"Session.PollEvents": "bench/trace_test.go calls it and go vet ./bench compiles that file; " +
		"it goes with its pin when bench/ moves to the event stream",
}

// TestNoTestOnlyCode fails on a function or method declared in a
// non-test file under internal/ or cmd/ whose name appears as an
// identifier in no non-test file of the module outside a function
// declaration's name: code only tests call. The rule goes by name, so
// it can miss a dead function that shares its name with a live one,
// but never flags one the module calls.
func TestNoTestOnlyCode(t *testing.T) {
	m := loadModule(t)
	uses := map[string]bool{}
	for _, f := range m.files {
		if f.test {
			continue
		}
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name] = true
				}
			}
			return true
		})
	}
	flagged := map[string]bool{}
	for _, f := range m.files {
		if f.test || !(underDir(f.path, "internal") || underDir(f.path, "cmd")) {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || uses[fd.Name.Name] {
				continue
			}
			switch fd.Name.Name {
			case "main", "init", "_":
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			if _, ok := deadCodeAllowed[name]; ok {
				flagged[name] = true
				continue
			}
			t.Errorf("%s: %s has no caller outside tests; delete it, or move it into the test that uses it",
				m.pos(fd.Name.Pos()), name)
		}
	}
	for name := range deadCodeAllowed {
		if !flagged[name] {
			t.Errorf("%s is allowed as test-only code but has a caller in the module; drop it from deadCodeAllowed", name)
		}
	}
}

func (g guard) findings(m *module) []string {
	var out []string
	for _, p := range g.paths {
		if _, err := os.Stat(filepath.Join(m.root, p)); err == nil {
			out = append(out, fmt.Sprintf("%s exists: %s (DESIGN %s)", p, g.msg, g.design))
		}
	}
	files := m.under(g.dirs)
	if len(files) == 0 {
		return append(out, fmt.Sprintf("guard %q scans no .go file in %v; point it at the package that took the code over", g.name, g.dirs))
	}
	report := func(pos token.Pos, what string) {
		out = append(out, fmt.Sprintf("%s: %s: %s (DESIGN %s)", m.pos(pos), what, g.msg, g.design))
	}
	counts := make([][]token.Pos, len(g.calls))
	for _, f := range files {
		if g.text != nil {
			for _, cg := range f.ast.Comments {
				for _, c := range cg.List {
					if s := g.text.FindString(c.Text); s != "" {
						report(c.Pos(), fmt.Sprintf("comment says %q", s))
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if g.names != nil {
				if term := nameTerm(n, g.names); term != "" && g.names.MatchString(term) {
					report(n.Pos(), fmt.Sprintf("%s is back", term))
				}
			}
			if lit, ok := n.(*ast.BasicLit); ok && g.text != nil && lit.Kind == token.STRING {
				if s := g.text.FindString(lit.Value); s != "" {
					report(lit.Pos(), fmt.Sprintf("string says %q", s))
				}
			}
			if g.methods != nil {
				for _, meth := range declaredMethods(n) {
					if g.methods.MatchString(meth.name) {
						report(meth.pos, fmt.Sprintf("method %s is declared", meth.name))
					}
				}
			}
			if call, ok := n.(*ast.CallExpr); ok && !f.test {
				callee := dotted(call.Fun)
				for i, b := range g.calls {
					if b.re.MatchString(callee) {
						counts[i] = append(counts[i], call.Pos())
					}
				}
			}
			if g.node != nil {
				if s := g.node(n); s != "" {
					report(n.Pos(), s)
				}
			}
			return true
		})
	}
	for i, b := range g.calls {
		if n := len(counts[i]); n < b.min || n > b.max {
			var at []string
			for _, p := range counts[i] {
				at = append(at, m.pos(p))
			}
			out = append(out, fmt.Sprintf("%d calls match %s, want %d to %d %v: %s (DESIGN %s)",
				n, b.re, b.min, b.max, at, g.msg, g.design))
		}
	}
	return out
}

// nameTerm returns what a names pattern is matched against at n, or
// "". A selector is matched only where its name alone is not, so a
// site is reported once.
func nameTerm(n ast.Node, re *regexp.Regexp) string {
	switch n := n.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok && !re.MatchString(n.Sel.Name) {
			return x.Name + "." + n.Sel.Name
		}
	case *ast.ImportSpec:
		return n.Path.Value
	}
	return ""
}

type method struct {
	name string
	pos  token.Pos
}

// declaredMethods returns the methods n declares as "Recv.Name".
func declaredMethods(n ast.Node) []method {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Recv != nil && len(n.Recv.List) == 1 {
			return []method{{recvName(n.Recv.List[0].Type) + "." + n.Name.Name, n.Name.Pos()}}
		}
	case *ast.TypeSpec:
		it, ok := n.Type.(*ast.InterfaceType)
		if !ok {
			return nil
		}
		var out []method
		for _, fld := range it.Methods.List {
			for _, id := range fld.Names {
				out = append(out, method{n.Name.Name + "." + id.Name, id.Pos()})
			}
		}
		return out
	}
	return nil
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// dotted writes a callee out as a dotted path ("n.applyMu.Lock"); any
// part that is not a name or a selector becomes "?".
func dotted(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return dotted(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return dotted(x.X)
	}
	return "?"
}

// nilCompare reports a comparison of something named name with nil.
func nilCompare(name string) func(ast.Node) string {
	return func(n ast.Node) string {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
			return ""
		}
		for _, pair := range [][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
			if isIdent(pair[1], "nil") && lastName(pair[0]) == name {
				return fmt.Sprintf("%s %s nil", dotted(pair[0]), b.Op)
			}
		}
		return ""
	}
}

// blobSnapshot reports a Snapshot method, declared or in an interface,
// that returns the whole snapshot as values (a blob and its zxid)
// rather than streaming it.
func blobSnapshot(n ast.Node) string {
	var name *ast.Ident
	var ft *ast.FuncType
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Recv == nil {
			return ""
		}
		name, ft = n.Name, n.Type
	case *ast.Field:
		t, ok := n.Type.(*ast.FuncType)
		if !ok || len(n.Names) != 1 {
			return ""
		}
		name, ft = n.Names[0], t
	default:
		return ""
	}
	if name.Name != "Snapshot" || ft.Results == nil || ft.Results.NumFields() < 2 {
		return ""
	}
	return "a blob Snapshot method is declared"
}

// goStatement reports a go statement.
func goStatement(n ast.Node) string {
	if _, ok := n.(*ast.GoStmt); ok {
		return "a go statement starts a goroutine"
	}
	return ""
}

// bareDataCheck reports coord.CheckDataOp(path, version, nil): a
// version check under another name.
func bareDataCheck(n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok || dotted(call.Fun) != "coord.CheckDataOp" || len(call.Args) != 3 || !isIdent(call.Args[2], "nil") {
		return ""
	}
	return "coord.CheckDataOp with nil data is a bare version check"
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func lastName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

type module struct {
	root  string
	fset  *token.FileSet
	files []*srcFile
}

type srcFile struct {
	path string // module-relative, slash-separated
	test bool
	src  []byte
	ast  *ast.File
}

func (m *module) pos(p token.Pos) string {
	pos := m.fset.Position(p)
	rel, err := filepath.Rel(m.root, pos.Filename)
	if err != nil {
		rel = pos.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
}

// under returns the files in dirs; "." is every file outside bench/.
// It is empty when any one dir holds no .go file.
func (m *module) under(dirs []string) []*srcFile {
	var out []*srcFile
	for _, d := range dirs {
		n := len(out)
		for _, f := range m.files {
			if underDir(f.path, selfDir) {
				continue
			}
			if d == "." && !underDir(f.path, benchDir) || d != "." && underDir(f.path, d) {
				out = append(out, f)
			}
		}
		if len(out) == n {
			return nil
		}
	}
	return out
}

func underDir(path, dir string) bool {
	return strings.HasPrefix(path, dir+"/")
}

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// loadModule parses every .go file of the module that holds the
// working directory, skipping testdata, dot and underscore directories
// as the go tool does.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = parseModule() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func parseModule() (*module, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod above the working directory")
		}
		root = parent
	}
	m := &module{root: root, fset: token.NewFileSet()}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		m.files = append(m.files, &srcFile{
			path: filepath.ToSlash(rel),
			test: strings.HasSuffix(name, "_test.go"),
			src:  src,
			ast:  f,
		})
		return nil
	})
	return m, err
}

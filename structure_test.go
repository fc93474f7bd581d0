package hamster_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestStructure holds the layering the framework's portability rests on:
// one substrate chassis, one access path per direction, one sync manager,
// one park primitive, one spawn site, one cluster description, one page
// allocator, and line budgets on the layers a duplicate would grow back
// in. Each subtest is one gate. It runs over this module (and, where its
// rule says so, test files and the benchmark/ module) and over
// testdata/structure, where it must convict exactly the sites it lists, so
// a gate cannot go silently permissive. The park-primitive and
// sync-manager gates run the same way under their own tests below.
func TestStructure(t *testing.T) {
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			g.holds(t)
			g.convictsFixture(t)
		})
	}
}

// TestOneParkPrimitive holds every wait of the framework to one
// primitive: parkGate over this module.
func TestOneParkPrimitive(t *testing.T) { parkGate.holds(t) }

// TestOneParkPrimitiveConvicts runs parkGate over testdata/structure: a
// Cond field, a NewCond call, a Cond built by a method and one imported
// under another name are found, and a test file's is not.
func TestOneParkPrimitiveConvicts(t *testing.T) { parkGate.convictsFixture(t) }

// TestOneSyncManager holds the substrates to one synchronization layer:
// syncGate over this module and over testdata/structure.
func TestOneSyncManager(t *testing.T) {
	t.Run("substrates", syncGate.holds)
	t.Run("convicts", syncGate.convictsFixture)
}

// The module and the fixture are each scanned once per test binary.
var (
	moduleTree  = sync.OnceValues(func() (*tree, error) { return scanTree(".", budgetLimits) })
	fixtureTree = sync.OnceValues(func() (*tree, error) {
		return scanTree(filepath.Join("testdata", "structure"), fixtureLimits)
	})
)

// holds convicts every site g finds in this module.
func (g gate) holds(t *testing.T) {
	module, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.check(t, module) {
		t.Errorf("%s: %s", c, g.why)
	}
}

// convictsFixture checks that g convicts exactly g.convicts over
// testdata/structure.
func (g gate) convictsFixture(t *testing.T) {
	fixture, err := fixtureTree()
	if err != nil {
		t.Fatal(err)
	}
	got := g.check(t, fixture)
	slices.Sort(got)
	if !slices.Equal(got, g.convicts) {
		t.Errorf("over %s convicts\n\t%s\nwant\n\t%s", fixture.root,
			strings.Join(got, "\n\t"), strings.Join(g.convicts, "\n\t"))
	}
}

// A gate is one structural rule. check returns its convictions as
// "file:line what"; convicts is what it must return, sorted, over the
// fixture tree.
type gate struct {
	name, why string
	check     func(t *testing.T, tr *tree) []string
	convicts  []string
}

var substrates = []string{"internal/smp", "internal/hybriddsm", "internal/swdsm", "internal/ivy", "internal/multidsm"}

// budgets name the files each code-line budget counts (a directory counts
// its non-test files). Growth past a limit means a duplicate came back:
// the substrates held 3,874 lines before their sync paths, cache entry
// and block accessors were each written once, the harness 2,051 when
// every campaign had its own runner, the description 1,449 when three
// places had their own name tables.
var budgets = []struct {
	name  string
	files []string
}{
	{"substrate+hsync+platform", append([]string{"internal/hsync", "internal/platform"}, substrates...)},
	{"substrate+hsync", append([]string{"internal/hsync"}, substrates...)},
	{"campaign harness", []string{"internal/bench", "cmd/hamsterbench"}},
	{"cluster description", []string{"cmd/hamsterrun/main.go", "internal/cluster/cluster.go", "internal/core/runtime.go", "internal/bench/campaign.go"}},
}

var (
	budgetLimits  = map[string]int{"substrate+hsync+platform": 3030, "substrate+hsync": 2900, "campaign harness": 1148, "cluster description": 1200}
	fixtureLimits = map[string]int{"substrate+hsync+platform": 40, "substrate+hsync": 40, "campaign harness": 10, "cluster description": 10}
)

// overBudget logs the code lines of the named budgets and convicts those
// past their limit.
func overBudget(t *testing.T, tr *tree, names ...string) (bad []string) {
	for _, b := range budgets {
		if !slices.Contains(names, b.name) {
			continue
		}
		n := 0
		for _, f := range tr.in(false, b.files...) {
			n += f.code
		}
		t.Logf("%s: %s code lines: %d (budget %d)", tr.root, b.name, n, tr.limits[b.name])
		if n > tr.limits[b.name] {
			bad = append(bad, b.name+": "+strconv.Itoa(n)+" code lines, budget "+strconv.Itoa(tr.limits[b.name]))
		}
	}
	return bad
}

// condSites are where internal/ non-test code may hold or build a
// sync.Cond: the park primitive every virtual-time wait goes through, and
// the two waits that are not virtual-time waits, a simnet endpoint's
// receive and the conservative engine's gate, both woken by Network.Close.
var condSites = []string{"vclock.Queue", "simnet.endpoint", "simnet.NewTopo", "vclock.Engine", "vclock.NewEngine"}

// syncBuilders are the constructors only hsync.Manager may call. A
// rendezvous of a substrate's own (swdsm's home-migration VBarrier) is not
// one.
var syncBuilders = []string{"hamster/internal/hsync.NewDLock", "hamster/internal/hsync.NewTree", "hamster/internal/vclock.NewVLock"}

var gates = []gate{{
	name: "package_docs",
	why:  `an internal package without a "// Package <name> ..." doc comment (role, paper reference, concurrency and virtual-time contract)`,
	check: func(t *testing.T, tr *tree) (bad []string) {
		for _, dir := range tr.packages() {
			if !slices.ContainsFunc(tr.in(false, dir), func(f *goFile) bool {
				return f.ast.Doc != nil && strings.HasPrefix(f.ast.Doc.Text(), "Package "+path.Base(dir)+" ")
			}) {
				bad = append(bad, dir)
			}
		}
		return bad
	},
	convicts: []string{"internal/memsim"},
}, {
	name: "architecture_packages",
	why:  "ARCHITECTURE.md names every internal package, and only those",
	check: func(t *testing.T, tr *tree) (bad []string) {
		doc, err := os.ReadFile(filepath.Join(tr.root, "ARCHITECTURE.md"))
		if err != nil {
			return []string{err.Error()}
		}
		named, pkgs := regexp.MustCompile(`internal/[a-z0-9]+`).FindAllString(string(doc), -1), tr.packages()
		for _, p := range named {
			if !slices.Contains(pkgs, p) && !slices.Contains(bad, p+" is named but does not exist") {
				bad = append(bad, p+" is named but does not exist")
			}
		}
		for _, p := range pkgs {
			if !slices.Contains(named, p) {
				bad = append(bad, p+" exists but is not named")
			}
		}
		return bad
	},
	convicts: []string{"internal/gone is named but does not exist", "internal/lib exists but is not named"},
}, {
	name: "one_access_path",
	why:  "homes resolve through memsim.Space.HomeFor, and hybriddsm's only access routines are readRun/writeRun",
	check: func(t *testing.T, tr *tree) []string {
		second := regexp.MustCompile(`readWord|writeWord|readSpan|writeSpan|maybeCache`)
		return append(match(tr.in(true, substrates...), "decl", func(s site) bool { return strings.HasPrefix(s.key, "node.homeOf") }),
			find(tr.in(false, "internal/hybriddsm"), func(n ast.Node) string {
				if id, ok := n.(*ast.Ident); ok && second.MatchString(id.Name) {
					return id.Name
				}
				return ""
			})...)
	},
	convicts: []string{"internal/hybriddsm/hybriddsm.go:7 node.homeOf", "internal/hybriddsm/hybriddsm.go:9 readSpan"},
}, {
	name: "hybriddsm_frames_atomic",
	why:  "hybriddsm reaches its frames through memsim's atomic word helpers only: every node loads and stores a home frame in place at once, so a frame lock, a plain codec or a builtin copy there is a lock back on the SAN path or a data race",
	check: func(t *testing.T, tr *tree) []string {
		files, plain := tr.in(false, "internal/hybriddsm"), regexp.MustCompile(`^hamster/internal/memsim\.(Get|Put)(F64|I64|Words)$`)
		return append(append(match(files, "ref", func(s site) bool { return plain.MatchString(s.key) }),
			match(files, "call", func(s site) bool { return s.fun == "copy" })...),
			find(files, func(n ast.Node) string {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Mu" {
					return types.ExprString(sel)
				}
				return ""
			})...)
	},
	convicts: []string{
		"internal/hybriddsm/frames.go:17 f.Mu", "internal/hybriddsm/frames.go:18 f.Mu",
		"internal/hybriddsm/frames.go:19 hamster/internal/memsim.GetF64", "internal/hybriddsm/frames.go:22 copy(dst, f.buf)",
	},
}, {
	name: "touchlocal_inlines",
	why:  "touchLocal must inline into swdsm's, hybriddsm's and ivy's access routines (the word path lost 4-10 % each time it stopped)",
	check: func(t *testing.T, tr *tree) (bad []string) {
		cmd := exec.Command("go", "build", "-gcflags=-m", "./internal/swdsm", "./internal/hybriddsm", "./internal/ivy")
		cmd.Dir = tr.root
		out, err := cmd.CombinedOutput()
		if err != nil {
			return []string{"go build -gcflags=-m: " + err.Error() + "\n" + string(out)}
		}
		for _, p := range cmd.Args[3:] {
			if !regexp.MustCompile(`(?m)^` + p[2:] + `/[^/]+: can inline \(\*node\)\.touchLocal`).Match(out) {
				bad = append(bad, p[2:]+": (*node).touchLocal does not inline")
			}
		}
		return bad
	},
	convicts: []string{"internal/swdsm: (*node).touchLocal does not inline"},
}, {
	name: "one_chassis",
	why:  "platform.Base implements Nodes, Clock, Space, Params and Compute for every substrate, and each engine builds its own active-message layer",
	check: func(t *testing.T, tr *tree) []string {
		chassis := regexp.MustCompile(`^\w+\.(Nodes|Clock|Space|Params|Compute)$`)
		layer := func(e ast.Expr) bool {
			return strings.TrimPrefix(types.ExprString(e), "*") == "hamster/internal/amsg.Layer"
		}
		return append(match(tr.in(false, substrates...), "decl", func(s site) bool { return chassis.MatchString(s.key) }),
			find(tr.in(true, substrates...), func(n ast.Node) string {
				switch n := n.(type) {
				case *ast.StructType:
					for _, fd := range n.Fields.List {
						if fd.Names == nil && layer(fd.Type) {
							return "embeds " + types.ExprString(fd.Type)
						}
					}
				case *ast.Field:
					if layer(n.Type) && slices.ContainsFunc(n.Names, (*ast.Ident).IsExported) {
						return n.Names[0].Name + " " + types.ExprString(n.Type)
					}
				case *ast.ValueSpec:
					if n.Type != nil && layer(n.Type) && slices.ContainsFunc(n.Names, (*ast.Ident).IsExported) {
						return n.Names[0].Name + " " + types.ExprString(n.Type)
					}
				}
				return ""
			})...)
	},
	convicts: []string{"internal/smp/smp.go:17 System.Clock", "internal/smp/smp.go:22 Layer *hamster/internal/amsg.Layer", "internal/smp/smp_test.go:5 embeds *hamster/internal/amsg.Layer"},
}, {
	name: "substrate_budget",
	why:  "the five substrates plus hsync, and those plus the platform chassis, stay within their code-line budgets",
	check: func(t *testing.T, tr *tree) []string {
		return overBudget(t, tr, "substrate+hsync+platform", "substrate+hsync")
	},
	convicts: []string{"substrate+hsync+platform: 65 code lines, budget 40", "substrate+hsync: 58 code lines, budget 40"},
}, {
	name:     "harness_budget",
	why:      "internal/bench and hamsterbench stay within the campaign harness's code-line budget",
	check:    func(t *testing.T, tr *tree) []string { return overBudget(t, tr, "campaign harness") },
	convicts: []string{"campaign harness: 16 code lines, budget 10"},
}, {
	name: "one_cluster_builder",
	why:  "internal/bench builds clusters with bench.Cluster (core.NewSubstrate), naming a substrate constructor only in substrates.go, and writes the standard kernel set once",
	check: func(t *testing.T, tr *tree) []string {
		constructor := regexp.MustCompile(`^hamster/internal/(swdsm|ivy|hybriddsm|multidsm|smp)\.New$`)
		bench := slices.DeleteFunc(tr.in(false, "internal/bench"), func(f *goFile) bool { return f.path == "internal/bench/substrates.go" })
		var standard []string
		for _, f := range tr.in(true, ".") {
			if match([]*goFile{f}, "call", func(s site) bool { return strings.HasSuffix(s.key, "SOR(m, 192, 6, true)") }) != nil {
				standard = append(standard, f.path)
			}
		}
		return append(match(bench, "ref", func(s site) bool { return constructor.MatchString(s.key) }),
			exactlyOne(standard, "files write the standard kernel set")...)
	},
	convicts: []string{"2 files write the standard kernel set, want 1", "benchmark/main.go", "internal/bench/campaign.go:9 hamster/internal/swdsm.New", "internal/bench/campaigns.go"},
}, {
	name: "one_cluster_description",
	why:  "Config.Validate checks engine and topology names (hamsterrun names them only in flag usage), platform.ParseKind alone parses platform names, and the description stays within its code-line budget",
	check: func(t *testing.T, tr *tree) []string {
		bad := match(tr.in(false, "cmd/hamsterrun"), "call", func(s site) bool {
			return (strings.HasSuffix(s.key, "EngineNames()") || strings.HasSuffix(s.key, "TopologyNames()")) && !slices.Contains(s.in, "fs.StringVar")
		})
		parseKind := func(p string) bool { return strings.HasPrefix(p, "internal/platform/platform.go:") }
		parsers := match(tr.in(false, "."), "str", func(s site) bool { return s.key == "hybrid-dsm" })
		if !slices.ContainsFunc(parsers, parseKind) {
			bad = append(bad, `internal/platform/platform.go parses no "hybrid-dsm" (ParseKind)`)
		}
		return append(append(bad, slices.DeleteFunc(parsers, parseKind)...), overBudget(t, tr, "cluster description")...)
	},
	convicts: []string{"cluster description: 30 code lines, budget 10", "cmd/hamsterrun/main.go:16 hamster.TopologyNames()", "cmd/hamsterrun/main.go:19 hybrid-dsm"},
}, {
	name: "one_spawn_site",
	why:  "Task Management starts every thread and Cluster Control owns reductions and broadcasts: no model starts a goroutine, makes a channel or broadcasts by hand, and core's one go statement is Runtime.goNode",
	check: func(t *testing.T, tr *tree) []string {
		models := tr.in(false, "models")
		bad := append(match(models, "go", nil), match(models, "call", func(s site) bool {
			return strings.HasPrefix(s.key, "make(chan") || strings.HasSuffix(s.fun, "Cluster.Broadcast")
		})...)
		return append(bad, exactlyOne(match(tr.in(false, "internal/core"), "go", nil), "go statements in internal/core")...)
	},
	convicts: []string{
		"2 go statements in internal/core, want 1", "internal/core/runtime.go:10 (func() literal)()", "internal/core/runtime.go:6 f()",
		"models/pthreads/pthreads.go:11 make(chan struct{})", "models/pthreads/pthreads.go:12 t.Cluster.Broadcast(0, nil)", "models/pthreads/pthreads.go:13 f()",
	},
}, {
	name: "serve_host_time",
	why:  "the serve fabric pays no host time the model never charges: no reflection sort, no sort at ingest (it merges sorted runs), one Zipf table per run (serve.Kernel)",
	check: func(t *testing.T, tr *tree) []string {
		serve, ingest := tr.in(false, "internal/serve"), regexp.MustCompile(`/(fabric|merge)\.go:`)
		return append(match(serve, "ref", func(s site) bool {
			return strings.HasPrefix(s.key, "sort.Slice") || strings.HasPrefix(s.key, "slices.Sort") && ingest.MatchString(s.pos)
		}), exactlyOne(match(serve, "ref", func(s site) bool { return s.key == "hamster/internal/loadgen.NewZipf" }), "Zipf tables in internal/serve")...)
	},
	convicts: []string{
		"2 Zipf tables in internal/serve, want 1", "internal/serve/fabric.go:13 sort.Slice", "internal/serve/fabric.go:14 slices.SortFunc",
		"internal/serve/fabric.go:18 hamster/internal/loadgen.NewZipf", "internal/serve/fabric.go:19 hamster/internal/loadgen.NewZipf",
	},
}, {
	name: "rings_in_enable",
	why:  "perfmon allocates event rings in Recorder.Enable only: a disabled recorder costs no memory",
	check: func(t *testing.T, tr *tree) []string {
		return match(tr.in(false, "internal/perfmon"), "call", func(s site) bool {
			return strings.HasPrefix(s.key, "make([]Event") && !strings.HasSuffix(s.decl, ".Enable")
		})
	},
	convicts: []string{"internal/perfmon/perfmon.go:14 make([]Event, 8)"},
}, {
	name: "one_notice_collect",
	why:  "EpochExchange.CollectOthers(epoch, node, dst) is the one collect function",
	check: func(t *testing.T, tr *tree) []string {
		return append(find(tr.in(true, "."), func(n ast.Node) string {
			if id, ok := n.(*ast.Ident); ok && strings.Contains(id.Name, "CollectOthersInto") {
				return id.Name
			}
			return ""
		}), exactlyOne(match(tr.in(false, "internal/notices"), "decl", func(s site) bool {
			return strings.HasPrefix(s.key, "EpochExchange.Collect")
		}), "EpochExchange collect functions")...)
	},
	convicts: []string{
		"2 EpochExchange collect functions, want 1", "internal/notices/notices.go:7 EpochExchange.CollectOthers",
		"internal/notices/notices.go:9 EpochExchange.CollectAll", "internal/notices/notices_test.go:3 CollectOthersInto",
	},
}, {
	name: "one_page_allocator",
	why:  "every page buffer comes from pagestore's free list (GetPage, GetZeroedPage), and no sync.Pool holds page-sized arrays: the GC empties it",
	check: func(t *testing.T, tr *tree) []string {
		made := slices.DeleteFunc(tr.in(false, "."), func(f *goFile) bool {
			return strings.HasPrefix(f.path, "benchmark/") || strings.Contains("/"+f.path, "/pagestore/")
		})
		return append(match(made, "call", func(s site) bool {
			return strings.HasPrefix(s.key, "make([]byte, hamster/internal/memsim.PageSize") || strings.HasPrefix(s.key, "new([hamster/internal/memsim.PageSize]byte)")
		}), find(tr.in(true, "."), func(n ast.Node) (pool string) {
			if lit, ok := n.(*ast.CompositeLit); ok && types.ExprString(lit.Type) == "sync.Pool" {
				ast.Inspect(lit, func(n ast.Node) bool {
					if a, ok := n.(*ast.ArrayType); ok && strings.HasSuffix(types.ExprString(a), "PageSize]byte") {
						pool = "sync.Pool of " + types.ExprString(a)
					}
					return pool == ""
				})
			}
			return pool
		})...)
	},
	convicts: []string{"internal/lib/lib_test.go:9 sync.Pool of [hamster/internal/memsim.PageSize]byte", "internal/lib/page.go:6 make([]byte, hamster/internal/memsim.PageSize)"},
}}

var parkGate = gate{
	name: "one_park_primitive",
	why:  "a sync.Cond outside condSites is a wait loop beside vclock.Queue, with its own wake-up rule and none of its poison",
	check: func(t *testing.T, tr *tree) (bad []string) {
		for _, f := range tr.in(false, "internal") {
			for _, s := range f.sites {
				at := path.Base(path.Dir(f.path)) + "." + s.decl
				if s.kind == "ref" && (s.key == "sync.Cond" || s.key == "sync.NewCond") && !slices.Contains(condSites, at) {
					bad = append(bad, s.pos+" "+at)
				}
			}
		}
		return bad
	},
	convicts: []string{"internal/lib/lib.go:14 lib.newWaiter", "internal/lib/lib.go:22 lib.Gate.wait", "internal/lib/lib.go:9 lib.waiter", "internal/lib/renamed.go:5 lib.renamed"},
}

var syncGate = gate{
	name: "one_sync_manager",
	why:  "a substrate that builds its own lock queue, barrier tree or virtual lock has taken back hsync.Manager's lock table and routing",
	check: func(t *testing.T, tr *tree) []string {
		return match(tr.in(false, substrates...), "ref", func(s site) bool { return slices.Contains(syncBuilders, s.key) })
	},
	convicts: []string{"internal/ivy/ivy.go:17 hamster/internal/hsync.NewDLock", "internal/ivy/ivy.go:18 hamster/internal/vclock.NewVLock", "internal/swdsm/swdsm.go:8 hamster/internal/hsync.NewTree"},
}

// exactlyOne convicts sites and their count unless there is exactly one.
func exactlyOne(sites []string, what string) []string {
	if len(sites) == 1 {
		return nil
	}
	return append(sites, strconv.Itoa(len(sites))+" "+what+", want 1")
}

// tree is every Go file under a root, scanned once; testdata and dot
// directories below the root are skipped.
type tree struct {
	root   string
	files  []*goFile
	limits map[string]int // code-line budgets by name
}

// goFile is one parsed file. Before the scan, every selector through an
// import is rewritten to name the import path ("hs.NewTree" becomes
// "hamster/internal/hsync.NewTree"), so a renamed import hides nothing.
type goFile struct {
	path  string // slash-separated, relative to the tree's root
	test  bool
	fset  *token.FileSet
	ast   *ast.File
	code  int // lines left after trimming leading space and dropping blank and // lines
	sites []site
}

// A site is one top-level declaration, package-qualified reference, call,
// go statement or string literal of a file.
type site struct {
	kind string   // "decl", "ref", "call", "go" or "str"
	key  string   // "Name" or "Recv.Name"; "importpath.Name"; the call rendered; the literal's value
	fun  string   // call: the function rendered
	in   []string // call: the functions of the calls it is an argument of, outermost first
	decl string   // the top-level declaration it sits in
	pos  string   // "file:line"
}

func scanTree(root string, limits map[string]int) (*tree, error) {
	tr, fset := &tree{root: root, limits: limits}, token.NewFileSet()
	return tr, filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		gf := &goFile{path: filepath.ToSlash(rel), test: strings.HasSuffix(p, "_test.go"), fset: fset, ast: f}
		for _, line := range strings.Split(string(src), "\n") {
			if l := strings.TrimSpace(line); l != "" && !strings.HasPrefix(l, "//") {
				gf.code++
			}
		}
		gf.scan()
		tr.files = append(tr.files, gf)
		return nil
	})
}

func (f *goFile) scan() {
	imports, paths := map[string]string{}, map[string]bool{}
	for _, imp := range f.ast.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name], paths[p] = p, true
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
				id.Name = imports[id.Name]
			}
		}
		return true
	})
	walk := func(decl string, root ast.Node) {
		f.sites = append(f.sites, site{kind: "decl", key: decl, decl: decl, pos: f.at(root)})
		var stack []ast.Node
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			s := site{decl: decl, pos: f.at(n)}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && paths[id.Name] {
					s.kind, s.key = "ref", id.Name+"."+n.Sel.Name
				}
			case *ast.CallExpr:
				s.kind, s.key, s.fun = "call", types.ExprString(n), types.ExprString(n.Fun)
				for _, outer := range stack {
					if c, ok := outer.(*ast.CallExpr); ok {
						s.in = append(s.in, types.ExprString(c.Fun))
					}
				}
			case *ast.GoStmt:
				s.kind, s.key = "go", types.ExprString(n.Call)
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					s.kind = "str"
					s.key, _ = strconv.Unquote(n.Value)
				}
			}
			if s.kind != "" {
				f.sites = append(f.sites, s)
			}
			stack = append(stack, n)
			return true
		})
	}
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				walk(d.Name.Name, d)
			} else {
				walk(strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*")+"."+d.Name.Name, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					walk(spec.Name.Name, spec)
				case *ast.ValueSpec:
					walk(spec.Names[0].Name, spec)
				}
			}
		}
	}
}

// at is n's position as "file:line".
func (f *goFile) at(n ast.Node) string {
	return f.path + ":" + strconv.Itoa(f.fset.Position(n.Pos()).Line)
}

// in lists the files under dirs (slash paths of directories or files; "."
// is the whole tree), test files only if tests.
func (tr *tree) in(tests bool, dirs ...string) (files []*goFile) {
	for _, f := range tr.files {
		if (tests || !f.test) && slices.ContainsFunc(dirs, func(d string) bool {
			return d == "." || f.path == d || strings.HasPrefix(f.path, d+"/")
		}) {
			files = append(files, f)
		}
	}
	return files
}

// packages lists the directories directly under internal/ that hold Go
// files.
func (tr *tree) packages() (dirs []string) {
	for _, f := range tr.in(true, "internal") {
		if d := path.Dir(f.path); strings.Count(d, "/") == 1 && !slices.Contains(dirs, d) {
			dirs = append(dirs, d)
		}
	}
	return dirs
}

// match returns "file:line key" for each site of kind in files that keep
// accepts (every one if keep is nil).
func match(files []*goFile, kind string, keep func(site) bool) (out []string) {
	for _, f := range files {
		for _, s := range f.sites {
			if s.kind == kind && (keep == nil || keep(s)) {
				out = append(out, s.pos+" "+s.key)
			}
		}
	}
	return out
}

// find returns "file:line what" for each node of files that what names
// (what returns "" for the rest).
func find(files []*goFile, what func(ast.Node) string) (out []string) {
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n != nil {
				if w := what(n); w != "" {
					out = append(out, f.at(n)+" "+w)
				}
			}
			return true
		})
	}
	return out
}

package hamster_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// condSites are the places under internal/ where non-test code may hold or
// build a sync.Cond: the park primitive every virtual-time wait goes
// through, and the two waits that are not virtual-time waits — a simnet
// endpoint's receive and the conservative engine's gate, both woken by
// Network.Close. A site is the struct a field belongs to or the function
// a call is in, as "pkg.Name" or "pkg.Type.Method".
var condSites = map[string]bool{
	"vclock.Queue":     true,
	"simnet.endpoint":  true,
	"simnet.NewTopo":   true,
	"vclock.Engine":    true,
	"vclock.NewEngine": true,
}

// TestOneParkPrimitive holds every wait of the framework to one primitive: a
// sync.Cond field or sync.NewCond call in internal/ non-test code outside
// condSites is a wait loop beside vclock.Queue, with its own wake-up rule
// and none of its poison.
func TestOneParkPrimitive(t *testing.T) {
	sites, err := condUses(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		if !condSites[strings.Fields(s)[0]] {
			t.Errorf("a wait outside the park primitive (vclock.Queue): %s", s)
		}
	}
}

// TestOneParkPrimitiveConvicts runs the scan over a fixture: a Cond
// field, a NewCond call, a Cond built by a method and one imported under
// another name are found, and a test file's is not.
func TestOneParkPrimitiveConvicts(t *testing.T) {
	sites, err := condUses(filepath.Join("testdata", "oneparkprimitive"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sites {
		got = append(got, strings.Fields(s)[0])
	}
	want := []string{"lib.Gate.wait", "lib.newWaiter", "lib.renamed", "lib.waiter", "vclock.Queue"}
	if !slices.Equal(got, want) {
		t.Errorf("found %v, want %v", sites, want)
	}
}

// condUses lists, sorted, every sync.Cond field and sync.NewCond call in
// the non-test Go files under root/internal, as "site file:line".
func condUses(root string) ([]string, error) {
	fset := token.NewFileSet()
	var sites []string
	dir := filepath.Join(root, "internal")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		syncName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" {
				syncName = "sync"
				if imp.Name != nil {
					syncName = imp.Name.Name
				}
			}
		}
		if syncName == "" {
			return nil
		}
		pkg := filepath.Base(filepath.Dir(path))
		found := func(site string, n ast.Node) {
			rel, _ := filepath.Rel(root, fset.Position(n.Pos()).Filename)
			sites = append(sites, pkg+"."+site+" "+filepath.ToSlash(rel)+":"+strconv.Itoa(fset.Position(n.Pos()).Line))
		}
		isSync := func(e ast.Expr, name string) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != name {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == syncName
		}
		scan := func(site string, root ast.Node) {
			ast.Inspect(root, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && (isSync(e, "Cond") || isSync(e, "NewCond")) {
					found(site, n)
				}
				return true
			})
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						scan(spec.Name.Name, spec)
					case *ast.ValueSpec:
						scan(spec.Names[0].Name, spec)
					}
				}
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil {
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				scan(name, decl)
			}
		}
		return nil
	})
	slices.Sort(sites)
	return sites, err
}

// syncBuilders are the constructors only hsync.Manager may call: a
// substrate that builds its own lock queue, barrier tree or virtual lock
// has taken back the lock table and the routing decision. A rendezvous
// of a substrate's own (swdsm's home-migration VBarrier) is not one.
var syncBuilders = map[string][]string{
	"hamster/internal/hsync":  {"NewDLock", "NewTree"},
	"hamster/internal/vclock": {"NewVLock"},
}

// substrates are the packages under internal/ that embed hsync.Manager.
var substrates = []string{"smp", "hybriddsm", "swdsm", "ivy", "multidsm"}

// TestOneSyncManager holds the substrates to one synchronization layer:
// none of them calls a syncBuilders constructor in non-test code, however
// it names the package.
func TestOneSyncManager(t *testing.T) {
	t.Run("substrates", func(t *testing.T) {
		calls, err := syncBuilderCalls(".")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range calls {
			t.Errorf("a substrate builds its own lock or hierarchy (hsync.Manager's job): %s", c)
		}
	})
	t.Run("convicts", func(t *testing.T) {
		calls, err := syncBuilderCalls(filepath.Join("testdata", "onesyncmanager"))
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			"hsync.NewDLock internal/ivy/ivy.go:10",
			"hsync.NewTree internal/swdsm/renamed.go:10",
			"vclock.NewVLock internal/ivy/ivy.go:11",
		}
		if !slices.Equal(calls, want) {
			t.Errorf("found %q, want %q", calls, want)
		}
	})
}

// syncBuilderCalls lists, sorted, every call to a syncBuilders
// constructor in the non-test Go files of root's substrate packages, as
// "pkg.Func file:line".
func syncBuilderCalls(root string) ([]string, error) {
	fset := token.NewFileSet()
	var calls []string
	for _, pkg := range substrates {
		files, err := filepath.Glob(filepath.Join(root, "internal", pkg, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			imported := map[string]string{} // local name → import path, for syncBuilders' packages
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if _, ok := syncBuilders[p]; ok {
					name := path.Base(p)
					if imp.Name != nil {
						name = imp.Name.Name
					}
					imported[name] = p
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if p := imported[id.Name]; slices.Contains(syncBuilders[p], sel.Sel.Name) {
					pos := fset.Position(call.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					calls = append(calls, path.Base(p)+"."+sel.Sel.Name+" "+filepath.ToSlash(rel)+":"+strconv.Itoa(pos.Line))
				}
				return true
			})
		}
	}
	slices.Sort(calls)
	return calls, nil
}

package hamster_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist holds the exported names under internal/ that no other
// package's non-test code reaches, and the configStructs fields it never
// writes, that stay exported, each with its reason. Keys are "pkg.Name",
// "pkg.Type.Method" or "pkg.Type.Field".
var exportAllowlist = map[string]string{
	"vclock.CatCompute":              "one of the five Category values, which callers range over as a set (vclock.NumCategories)",
	"vclock.CatStolen":               "one of the five Category values, which callers range over as a set (vclock.NumCategories)",
	"swdsm.ScopeConsistency":         "the zero Protocol, named beside EagerRC so the pair reads as a set; callers select a protocol by engine name (core.NewSubstrate), and swdsm is in benchmark/'s dependency graph, which the evaluation harness's fold into campaigns left unchanged",
	"swdsm.Config.DropInvalidations": "a test seam: the deliberately broken engine conscheck's negative control must catch (TestLitmusCatchesBrokenEngine)",
	"hybriddsm.Config.CachePages":    "a test seam: the access script shrinks the page cache to 2 pages to reach the eviction path, which no workload reaches at the 4,096-page default",
}

// configStructs names the structs whose exported fields are held to the
// same rule as exported names: each field of a struct so named under
// internal/ is written, through a composite-literal key or an assignment,
// by non-test code in another package, or is on exportAllowlist. An option
// only tests set is a code path only tests take.
var configStructs = map[string]bool{"Config": true, "Options": true, "Aggregation": true}

// TestNoDeadExports holds the API to its callers: every exported
// declaration in internal/ (func, method, type, const, var) is referenced
// by non-test code in another package — the commands, the models, the
// examples, the root package, another internal package or the separate
// benchmark/ module — or is a method that satisfies an interface somebody
// calls, or is a type in the signature of a name that passes, or is on
// exportAllowlist with a reason. A name used only inside its package is
// unexported; a name used only by tests is deleted with its tests. The
// exported fields of configStructs are held to the same rule with
// "written" for "referenced".
func TestNoDeadExports(t *testing.T) {
	r, err := checkExports(".", exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exported %d, allowlisted %d", r.exported, r.allowlisted)
	for _, d := range r.dead {
		t.Errorf("no caller (or, for a field, no writer) outside its package: %s", d)
	}
	for _, s := range r.stale {
		t.Errorf("allowlist entry %s", s)
	}
}

// TestNoDeadExportsConvicts runs the checker over a fixture module so the
// gate cannot go silently permissive: of testdata/deadexports's exports, an
// uncalled one, a test-only one and a Config field only a test sets are
// convicted, and a method that only an interface call reaches, a function
// that only the fixture's second (benchmark/) module calls and a Config
// field only that module sets pass.
func TestNoDeadExportsConvicts(t *testing.T) {
	r, err := checkExports(filepath.Join("testdata", "deadexports"), map[string]string{"lib.Gone": "stale"})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range r.dead {
		dead = append(dead, strings.Fields(d)[0])
	}
	if want := []string{"lib.Config.TestKnob", "lib.Dead", "lib.TestOnly"}; strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Errorf("convicted %v, want %v", r.dead, want)
	}
	if len(r.stale) != 1 || !strings.HasPrefix(r.stale[0], "lib.Gone") {
		t.Errorf("stale allowlist entries %v, want lib.Gone", r.stale)
	}
}

type exportReport struct {
	exported    int      // exported declarations in internal/ non-test files
	allowlisted int      // of those, passing only by the allowlist
	dead        []string // "pkg.Name file:line", sorted
	stale       []string // allowlist entries that name nothing dead
}

// checkExports type-checks every package of the module at root, and of
// every module nested under it, from source and applies
// TestNoDeadExports's rule to the exported declarations of root/internal.
func checkExports(root string, allow map[string]string) (exportReport, error) {
	l := &exportLoader{fset: token.NewFileSet(), modules: map[string]string{}, pkgs: map[string]*loadedPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	var mainMod string
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		}
		if name != "go.mod" {
			return nil
		}
		mod, err := modulePath(path)
		if err == nil {
			l.modules[mod] = filepath.Dir(path)
			if filepath.Dir(path) == root {
				mainMod = mod
			}
		}
		return err
	})
	if err != nil {
		return exportReport{}, err
	}
	if mainMod == "" {
		return exportReport{}, fmt.Errorf("no go.mod at %s", root)
	}
	for _, dir := range dirs {
		path, ok := l.importPath(dir)
		if !ok {
			continue
		}
		if _, err := l.load(path); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return exportReport{}, err
		}
	}

	// Every reference from another package's non-test code, every
	// interface method called anywhere, and every struct field another
	// package's non-test code writes through a composite-literal key or an
	// assignment.
	used := map[types.Object]bool{}
	called := map[*types.Func]bool{}
	written := map[types.Object]bool{}
	for path, p := range l.pkgs {
		write := func(id *ast.Ident) {
			if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg().Path() != path {
				written[v] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						write(id)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							write(sel.Sel)
						}
					}
				}
				return true
			})
		}
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called[f] = true
				}
			}
			if obj.Pkg() != nil && obj.Pkg().Path() != path {
				used[obj] = true
			}
		}
	}
	// The standard library calls the methods of error and fmt.Stringer
	// itself, and those of any of its interfaces the module names.
	std := []types.Type{types.Universe.Lookup("error").Type()}
	if fmtPkg, err := l.std.ImportFrom("fmt", root, 0); err == nil {
		std = append(std, fmtPkg.Scope().Lookup("Stringer").Type())
	}
	for obj := range used {
		if tn, ok := obj.(*types.TypeName); ok && modOf(l.modules, tn.Pkg().Path()) == "" && types.IsInterface(tn.Type()) {
			std = append(std, tn.Type())
		}
	}
	for _, t := range std {
		it := t.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			called[it.Method(i)] = true
		}
	}
	// A method passes when it is what an interface call reaches: it is in
	// the method set, directly or promoted, of a type that implements an
	// interface whose method of that name has a caller.
	for _, p := range l.pkgs {
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for m := range called {
				it := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if !types.Implements(ptr, it) {
					continue
				}
				if impl, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); impl != nil {
					used[impl.(*types.Func).Origin()] = true
				}
			}
		}
	}

	type decl struct {
		key string
		obj types.Object
		pos token.Position
	}
	var decls, fields []decl
	internal := mainMod + "/internal/"
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		add := func(key string, id *ast.Ident) {
			decls = append(decls, decl{p.pkg.Name() + "." + key, p.info.Defs[id], l.fset.Position(id.Pos())})
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						add(d.Name.Name, d.Name)
					} else {
						add(recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(s.Name.Name, s.Name)
							}
							if st, ok := s.Type.(*ast.StructType); ok && configStructs[s.Name.Name] {
								for _, fld := range st.Fields.List {
									for _, n := range fld.Names {
										if n.IsExported() {
											fields = append(fields, decl{p.pkg.Name() + "." + s.Name.Name + "." + n.Name, p.info.Defs[n], l.fset.Position(n.Pos())})
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									add(n.Name, n)
								}
							}
						}
					}
				}
			}
		}
	}

	r := exportReport{exported: len(decls) + len(fields)}
	pass := map[types.Object]bool{}
	for _, d := range decls {
		if used[d.obj] {
			pass[d.obj] = true
		}
	}
	for _, d := range fields {
		if written[d.obj] {
			pass[d.obj] = true
		}
	}
	// Types reached from the signature, type or fields of a passing name
	// pass too, to a fixed point.
	for {
		grown := false
		mark := func(tn *types.TypeName) {
			if !pass[tn] {
				pass[tn], grown = true, true
			}
		}
		for obj := range pass {
			namedIn(obj, mark)
		}
		if !grown {
			break
		}
	}
	allowed := map[string]bool{}
	for _, d := range append(decls, fields...) {
		switch {
		case pass[d.obj]:
		case allow[d.key] != "":
			allowed[d.key] = true
		default:
			rel, _ := filepath.Rel(root, d.pos.Filename)
			r.dead = append(r.dead, fmt.Sprintf("%s %s:%d", d.key, rel, d.pos.Line))
		}
	}
	for k := range allow {
		if !allowed[k] {
			r.stale = append(r.stale, k+" names no uncalled export")
		}
	}
	r.allowlisted = len(allowed)
	sort.Strings(r.dead)
	sort.Strings(r.stale)
	return r, nil
}

// namedIn reports every named type that obj's signature, type or exported
// fields mention.
func namedIn(obj types.Object, mark func(*types.TypeName)) {
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			mark(t.Origin().Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	if tn, ok := obj.(*types.TypeName); ok {
		walk(tn.Type().Underlying())
		return
	}
	walk(obj.Type())
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// modOf returns the longest module path that is a prefix of path, or "".
func modOf(modules map[string]string, path string) string {
	best := ""
	for m := range modules {
		if (path == m || strings.HasPrefix(path, m+"/")) && len(m) > len(best) {
			best = m
		}
	}
	return best
}

type loadedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// exportLoader type-checks the non-test files of the repository's own
// modules and hands every other import to the standard library's source
// importer.
type exportLoader struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	modules map[string]string // module path -> directory
	pkgs    map[string]*loadedPkg
}

func (l *exportLoader) importPath(dir string) (string, bool) {
	best, bestDir := "", ""
	for m, d := range l.modules {
		if rel, err := filepath.Rel(d, dir); err == nil && !strings.HasPrefix(rel, "..") && len(d) >= len(bestDir) {
			best, bestDir = m, d
		}
	}
	if bestDir == "" {
		return "", false
	}
	rel, _ := filepath.Rel(bestDir, dir)
	if rel == "." {
		return best, true
	}
	return best + "/" + filepath.ToSlash(rel), true
}

func (l *exportLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *exportLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if modOf(l.modules, path) == "" {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *exportLoader) load(path string) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	mod := modOf(l.modules, path)
	dir := filepath.Join(l.modules[mod], filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, mod), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = nil
	defer func() {
		if l.pkgs[path] == nil {
			delete(l.pkgs, path)
		}
	}()
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{pkg, info, files}
	l.pkgs[path] = p
	return p, nil
}

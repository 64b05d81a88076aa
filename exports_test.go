package wolt_test

import (
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

// The export check keeps the API that only tests use from growing back.
// It type-checks every non-test Go file of the module and of the modules
// nested under it (perfbench/), which all count as callers, and applies
// two rules to the packages under internal/:
//
//   - Rule 1: an exported func, method, type, const or var must be
//     referenced by some non-test file. A method whose name matches a
//     method of an interface its type implements (fmt.Stringer,
//     sort.Interface, strategy.Strategy, ...) is exempt: it is called
//     through the interface.
//   - Rule 2: an exported struct field must be written by some non-test
//     file: a composite-literal key (or a positional literal), the left
//     side of an assignment or inc/dec, or &x.F. A write counts for every
//     field along its selector chain, so opts.NLP.Workers = 1 writes NLP.
//     A field no caller writes always holds its zero value: a knob with
//     one setting.
//
// A hit is deleted, moved into the tests of the one package that uses
// it, or listed in exportAllowlist with the reason it must stay.
var exportAllowlist = map[string]string{
	// Seed streams: iota stream IDs, so deleting one changes every later stream's ID.
	"seed.DeltaFuzz":       "seed stream of the delta differential fuzzers",
	"seed.DeltaBench":      "seed stream of the delta benchmarks (BENCH_delta.jsonl)",
	"seed.LocalSearchFuzz": "seed stream of the local-search differential fuzzers",
	"seed.AnytimeBench":    "seed stream of the warm re-solve benchmarks (BENCH_anytime.jsonl)",
	// Set only by recorded benchmarks.
	"city.Config.SkipFinalAssignment": "set by BenchmarkCitySustained1M, which must not price the O(n) final map",
	"city.TCPConfig.Peers":            "set by BenchmarkCityTCP10K, whose members run in other processes",
	// Test oracles used by more than one package.
	"model.WiFiAggregate":          "eq. (1) oracle of the model and core tests",
	"model.Assignment.NumAssigned": "placement count the facade, model, baseline and core tests assert",
}

func TestEveryExportHasNonTestCaller(t *testing.T) {
	hits, err := checkExports(".", exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		t.Error(h)
	}
}

// TestExportCheckFixture runs the checker on testdata/exports, a small
// module with a nested module beneath it, and pins what it reports.
func TestExportCheckFixture(t *testing.T) {
	allow := map[string]string{
		"lib.Allowed": "kept on purpose",
		"lib.Gone":    "deleted since; the entry is stale",
	}
	hits, err := checkExports(filepath.Join("testdata", "exports"), allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist: lib.Gone: stale entry, nothing to allow",
		"internal/lib/lib.go:11: lib.TestOnly: no non-test reference",
		"internal/lib/lib.go:22: lib.Config.TestSet: no non-test write",
	}
	if strings.Join(hits, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture hits:\n%s\nwant:\n%s", strings.Join(hits, "\n"), strings.Join(want, "\n"))
	}
}

// srcPkg is one non-test package of the tree under check.
type srcPkg struct {
	files []*ast.File
	types *types.Package
	busy  bool
}

// exportChecker loads the tree's packages from source, resolving every
// import path under a module of the tree to its directory and every
// other path (the standard library) through the source importer.
type exportChecker struct {
	root    string
	fset    *token.FileSet
	modules []string // module paths of the tree's go.mod files
	pkgs    map[string]*srcPkg
	std     types.ImporterFrom
	info    *types.Info
}

// checkExports applies both rules to the tree at root and returns one
// sorted line per hit, including allowlist entries that match no hit.
func checkExports(root string, allow map[string]string) ([]string, error) {
	// The pure-Go variants of net and os/user: no C toolchain needed.
	build.Default.CgoEnabled = false
	c := &exportChecker{
		root: root,
		fset: token.NewFileSet(),
		pkgs: map[string]*srcPkg{},
		std:  importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	if err := c.discover(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(c.pkgs))
	for p := range c.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.load(p); err != nil {
			return nil, err
		}
	}
	return c.report(paths, allow), nil
}

// discover walks root for modules (each go.mod) and their packages,
// skipping testdata, hidden directories and underscore directories as
// the go command does. A directory's import path is its module's path
// when it holds a go.mod, and its parent's path joined with its name
// otherwise.
func (c *exportChecker) discover() error {
	importPath := map[string]string{}
	return filepath.WalkDir(c.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != c.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			mod := modulePath(data)
			if mod == "" {
				return fmt.Errorf("%s/go.mod: no module line", dir)
			}
			c.modules = append(c.modules, mod)
			importPath[dir] = mod
		} else if parent, ok := importPath[filepath.Dir(dir)]; ok {
			importPath[dir] = parent + "/" + name
		} else {
			return fmt.Errorf("%s: no go.mod", dir)
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		pkg := &srcPkg{}
		for _, file := range bp.GoFiles {
			f, err := parser.ParseFile(c.fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		c.pkgs[importPath[dir]] = pkg
		return nil
	})
}

// modulePath returns the module line's path of a go.mod file.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

func (c *exportChecker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, c.root, 0)
}

func (c *exportChecker) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if _, ok := c.pkgs[path]; ok {
		return c.load(path)
	}
	for _, mod := range c.modules {
		if path == mod || strings.HasPrefix(path, mod+"/") {
			return nil, fmt.Errorf("%s: no non-test Go files in the tree", path)
		}
	}
	return c.std.ImportFrom(path, dir, 0)
}

// load type-checks one tree package after the tree packages it imports,
// recording every reference into the shared types.Info.
func (c *exportChecker) load(path string) (*types.Package, error) {
	pkg := c.pkgs[path]
	if pkg.types != nil {
		return pkg.types, nil
	}
	if pkg.busy {
		return nil, fmt.Errorf("%s: import cycle", path)
	}
	pkg.busy = true
	conf := types.Config{Importer: c}
	tp, err := conf.Check(path, c.fset, pkg.files, c.info)
	if err != nil {
		return nil, err
	}
	pkg.types = tp
	return tp, nil
}

// report collects the two rules' hits over the internal packages.
func (c *exportChecker) report(paths []string, allow map[string]string) []string {
	used := map[types.Object]bool{}
	for _, obj := range c.info.Uses {
		used[origin(obj)] = true
	}
	written := map[*types.Var]bool{}
	for _, path := range paths {
		for _, f := range c.pkgs[path].files {
			c.markWrites(f, written)
		}
	}
	ifaces := c.interfaces()

	var hits []string
	found := map[string]bool{}
	hit := func(obj types.Object, name, what string) {
		found[name] = true
		if _, ok := allow[name]; ok {
			return
		}
		pos := c.fset.Position(obj.Pos())
		file, _ := filepath.Rel(c.root, pos.Filename)
		hits = append(hits, fmt.Sprintf("%s:%d: %s: %s", filepath.ToSlash(file), pos.Line, name, what))
	}
	for _, path := range paths {
		if !c.internal(path) {
			continue
		}
		scope := c.pkgs[path].types.Scope()
		pname := c.pkgs[path].types.Name()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() && !used[obj] {
				hit(obj, pname+"."+n, "no non-test reference")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !ifaces.satisfied(named, m.Name()) {
					hit(m, pname+"."+n+"."+m.Name(), "no non-test reference")
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					fv := st.Field(i)
					if fv.Exported() && !fv.Embedded() && !written[fv] {
						hit(fv, pname+"."+n+"."+fv.Name(), "no non-test write")
					}
				}
			}
		}
	}
	for name := range allow {
		if !found[name] {
			hits = append(hits, "allowlist: "+name+": stale entry, nothing to allow")
		}
	}
	sort.Strings(hits)
	return hits
}

func (c *exportChecker) internal(path string) bool {
	for _, mod := range c.modules {
		if strings.HasPrefix(path, mod+"/internal/") {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markWrites records every struct field f writes.
func (c *exportChecker) markWrites(f *ast.File, written map[*types.Var]bool) {
	var lhs func(e ast.Expr)
	lhs = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := c.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					written[origin(sel.Obj()).(*types.Var)] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, e := range x.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(x.X)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				if x.Key != nil {
					lhs(x.Key)
				}
				if x.Value != nil {
					lhs(x.Value)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				lhs(x.X)
			}
		case *ast.CompositeLit:
			t := c.info.TypeOf(x)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem() // an elided &T{...} in a []*T literal
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if fv, ok := c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						written[origin(fv).(*types.Var)] = true
					}
				} else {
					written[origin(st.Field(i)).(*types.Var)] = true
				}
			}
		}
		return true
	})
}

// ifaceSet is every non-generic named interface of the loaded packages
// and their imports, and the universe's error.
type ifaceSet []*types.Interface

func (c *exportChecker) interfaces() ifaceSet {
	set := ifaceSet{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				set = append(set, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range c.pkgs {
		visit(pkg.types)
	}
	return set
}

// satisfied reports whether T or *T implements an interface that has a
// method called name.
func (s ifaceSet) satisfied(t *types.Named, name string) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for _, it := range s {
		if !hasMethod(it, name) {
			continue
		}
		if types.Implements(t, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

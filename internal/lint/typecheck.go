package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// TypeLoader resolves and type-checks packages on demand, giving the
// semantic analyzers (mapiter, lockheld) full go/types
// information on the standard library alone. In-module import paths are
// located under Root and type-checked recursively; everything else
// (the standard library and its vendored dependencies) is delegated to
// go/importer's source importer, which type-checks GOROOT sources
// directly — no compiled export data and no network access required.
//
// All packages loaded through one TypeLoader share one token.FileSet, so
// positions from any reachable declaration — including structs pulled in
// through imports rather than named on the command line — resolve
// correctly in diagnostics.
type TypeLoader struct {
	// Module is the module path in-module imports are resolved under.
	Module string
	// Root is the module root directory on disk.
	Root string
	// Fset positions every file parsed by this loader and every Package
	// attached to it.
	Fset *token.FileSet

	source types.ImporterFrom
	mu     sync.Mutex
	pkgs   map[string]*types.Package
	errs   map[string]error
}

// disableCgo switches off cgo in the shared go/build context exactly
// once. The source importer would otherwise try to run the cgo tool for
// packages like net; with cgo off, go/build selects their pure-Go
// fallback files, which is both hermetic and what the repo builds with.
var disableCgo = sync.Once{}

// NewTypeLoader returns a loader for the module rooted at root.
func NewTypeLoader(module, root string) *TypeLoader {
	disableCgo.Do(func() { build.Default.CgoEnabled = false })
	fset := token.NewFileSet()
	l := &TypeLoader{
		Module: module,
		Root:   root,
		Fset:   fset,
		pkgs:   map[string]*types.Package{},
		errs:   map[string]error{},
	}
	if src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom); ok {
		l.source = src
	}
	return l
}

// Import implements types.Importer.
func (l *TypeLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom. In-module paths load from
// disk under Root; all other paths go to the GOROOT source importer.
func (l *TypeLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	if err, ok := l.errs[path]; ok {
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()

	var p *types.Package
	var err error
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err = l.checkModulePackage(path)
	} else if l.source != nil {
		p, err = l.source.ImportFrom(path, dir, mode)
	} else {
		err = fmt.Errorf("lint: no source importer for %q", path)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.errs[path] = err
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// checkModulePackage parses and type-checks the non-test files of one
// in-module package for import purposes. Analysis of a package's own
// files, tests included, goes through Check instead.
func (l *TypeLoader) checkModulePackage(path string) (*types.Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files for %q in %s", path, dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return pkg, nil
}

// parseDir parses the buildable .go files of dir into the loader's
// FileSet, honouring build constraints (race-tagged files, GOOS/GOARCH
// suffixes) via go/build, so mutually-exclusive files never collide.
func (l *TypeLoader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	return files, nil
}

// Check type-checks pkg's already-parsed files in place, filling
// pkg.Types and pkg.TypesInfo. The package is checked in up to two
// units, mirroring the go tool: the base package together with its
// in-package test files, and the external _test package. Both record
// into one shared types.Info, so analyzers look types up without caring
// which unit a file belongs to. Files excluded by build constraints
// (e.g. //go:build race under a raceless run) are marked NoTypes and get
// no type information; typed analyzers skip what they cannot resolve.
func (l *TypeLoader) Check(pkg *Package) error {
	if pkg.TypesInfo != nil {
		return nil
	}
	if pkg.Fset != l.Fset {
		return fmt.Errorf("lint: package %s was not parsed with this loader's FileSet", pkg.ImportPath)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var base, xtest []*ast.File
	for _, f := range pkg.Files {
		ok, err := build.Default.MatchFile(pkg.Dir, filepath.Base(f.Name))
		if err != nil || !ok {
			f.NoTypes = true
			continue
		}
		if strings.HasSuffix(f.AST.Name.Name, "_test") {
			xtest = append(xtest, f.AST)
		} else {
			base = append(base, f.AST)
		}
	}
	if len(base) > 0 {
		conf := types.Config{Importer: l}
		p, err := conf.Check(pkg.ImportPath, pkg.Fset, base, info)
		if err != nil {
			return fmt.Errorf("lint: type-check %s: %w", pkg.ImportPath, err)
		}
		pkg.Types = p
		// Seed the import cache so the xtest unit (and later packages)
		// resolve this import path to the unit just checked — which, unlike
		// a fresh import, includes the in-package test declarations. Never
		// overwrite an instance handed out earlier: packages already
		// checked hold references into it, and replacing it would split
		// type identity mid-run.
		l.mu.Lock()
		if _, ok := l.pkgs[pkg.ImportPath]; !ok {
			l.pkgs[pkg.ImportPath] = p
		}
		l.mu.Unlock()
	}
	if len(xtest) > 0 {
		// The go vet driver presents the external test unit as its own
		// package whose import path already carries the _test suffix;
		// direct mode reaches here with the base path. Either way the
		// checked unit's path must be the canonical <base>_test, the path
		// the go tool gives it.
		xpath := pkg.ImportPath
		if !strings.HasSuffix(xpath, "_test") {
			xpath += "_test"
		}
		conf := types.Config{Importer: l}
		if _, err := conf.Check(xpath, pkg.Fset, xtest, info); err != nil {
			return fmt.Errorf("lint: type-check %s: %w", xpath, err)
		}
	}
	pkg.TypesInfo = info
	return nil
}

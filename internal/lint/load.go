package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// TypeLoader type-checks a module's packages from source in the variants
// the go tool builds, and imports every other package from the
// compiler's export data. The package graph is the go tool's own: `go
// list` in direct mode, the vet driver's config in vet-tool mode. So a
// package's in-package tests are checked with it, and its external
// tests see the test variant of every package that imports it, each
// import resolved through the importing variant's ImportMap, as the
// compiler resolves it.
//
// All packages loaded through one TypeLoader share one token.FileSet,
// so positions from any reachable declaration — including structs pulled
// in through imports rather than named on the command line — resolve
// correctly in diagnostics.
type TypeLoader struct {
	fset   *token.FileSet
	units  map[string]*unit     // the source units, by the go tool's ID
	files  map[string]*ast.File // every parsed file, by name
	export types.Importer       // everything else, by package path
}

// unit is one package as the compiler builds it: the go tool's ID ("P",
// "P [Q.test]", "P_test [P.test]"), the package path it compiles to, its
// files, and where each of its imports resolves.
type unit struct {
	id, path  string
	files     []string
	importMap map[string]string // import path → ID, where they differ
	info      *types.Info       // its Package's record; nil for a unit only imported
	types     *types.Package
	err       error
}

// newLoader returns a loader over the source units and, for every other
// import, the export data files exports names (package path → file).
func newLoader(units map[string]*unit, exports map[string]string) *TypeLoader {
	fset := token.NewFileSet()
	return &TypeLoader{
		fset:  fset,
		units: units,
		files: map[string]*ast.File{},
		export: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if f := exports[path]; f != "" {
				return os.Open(f)
			}
			return nil, fmt.Errorf("no export data for %q", path)
		}),
	}
}

// Check type-checks pkg's units — the package with its in-package tests,
// and its external _test package — filling pkg.Types and pkg.TypesInfo.
// Both units record into one types.Info, so analyzers look types up
// without caring which unit a file belongs to. Files excluded by build
// constraints (e.g. //go:build race under a raceless run) are marked
// NoTypes and get no type information; typed analyzers skip what they
// cannot resolve.
func (l *TypeLoader) Check(pkg *Package) error {
	if pkg.TypesInfo != nil {
		return nil
	}
	info := newInfo() // what a package no unit compiles holds
	for _, u := range pkg.units {
		p, err := l.check(u)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(p.Name(), "_test") {
			pkg.Types = p
		}
		info = u.info
	}
	pkg.TypesInfo = info
	return nil
}

// check type-checks u once, its source imports first.
func (l *TypeLoader) check(u *unit) (*types.Package, error) {
	if u.types != nil || u.err != nil {
		return u.types, u.err
	}
	files := make([]*ast.File, len(u.files))
	for i, name := range u.files {
		if files[i], u.err = l.parse(name); u.err != nil {
			return nil, u.err
		}
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		id := path
		if to, ok := u.importMap[path]; ok {
			id = to
		}
		if dep := l.units[id]; dep != nil {
			return l.check(dep)
		}
		return l.export.Import(id)
	})}
	if u.types, u.err = conf.Check(u.path, l.fset, files, u.info); u.err != nil {
		u.err = fmt.Errorf("lint: type-check %s: %w", u.id, u.err)
	}
	return u.types, u.err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// parse parses a file once per loader.
func (l *TypeLoader) parse(name string) (*ast.File, error) {
	if f := l.files[name]; f != nil {
		return f, nil
	}
	f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: parse %s: %w", name, err)
	}
	l.files[name] = f
	return f, nil
}

// newPackage parses names into a Package checked as units, which record
// into one types.Info; a file no unit compiles is marked NoTypes.
func (l *TypeLoader) newPackage(module, importPath, dir string, names []string, units ...*unit) (*Package, error) {
	typed, info := map[string]bool{}, newInfo()
	for _, u := range units {
		u.info = info
		for _, name := range u.files {
			typed[name] = true
		}
	}
	pkg := &Package{Module: module, ImportPath: importPath, Dir: dir, Fset: l.fset, Loader: l, units: units}
	for _, name := range names {
		f, err := l.parse(name)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, &File{
			Name:    name,
			AST:     f,
			Test:    strings.HasSuffix(name, "_test.go"),
			NoTypes: !typed[name],
		})
	}
	return pkg, nil
}

// listed is the part of a `go list -json` record the loader reads.
type listed struct {
	ImportPath, Dir, Name, ForTest, Export string
	DepOnly                                bool
	GoFiles                                []string
	ImportMap                              map[string]string
	Module                                 *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// goList runs `go list -e` in dir and decodes its records.
func goList(dir string, args ...string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-e"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: go list: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s", p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadModule loads the packages of the Go module rooted at root that
// match the go-tool patterns ("./...", "./internal/lint", "./cmd/...";
// none means "./..."), as `go list` resolves them there. Each directory
// becomes one Package holding every .go file in it, internal and
// external tests included, which is what the analyzers want. Packages
// outside the module are imported from export data, which `go list
// -export` builds into the build cache; the module's own packages are
// only parsed, so a load compiles none of them.
func LoadModule(root string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	list, err := goList(root, append([]string{"-deps", "-test",
		"-json=ImportPath,Dir,Name,ForTest,DepOnly,GoFiles,ImportMap,Module,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var targets []listed
	var outside []string
	sources := map[string]*unit{}
	for _, p := range list {
		if p.Module == nil || !p.Module.Main {
			outside = append(outside, p.ImportPath)
			continue
		}
		if p.ForTest == "" && p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test") {
			continue // the generated test main
		}
		if !p.DepOnly && p.ForTest == "" {
			targets = append(targets, p)
		}
		u := &unit{id: p.ImportPath, importMap: p.ImportMap}
		u.path, _, _ = strings.Cut(p.ImportPath, " ")
		for _, name := range p.GoFiles {
			u.files = append(u.files, filepath.Join(p.Dir, name))
		}
		sources[u.id] = u
	}
	exports := map[string]string{}
	if len(outside) > 0 {
		list, err := goList(root, append([]string{"-export", "-json=ImportPath,Export,Error"}, outside...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range list {
			exports[p.ImportPath] = p.Export
		}
	}
	l := newLoader(sources, exports)

	sort.Slice(targets, func(i, j int) bool { return targets[i].Dir < targets[j].Dir })
	var pkgs []*Package
	for _, p := range targets {
		var units []*unit
		base := sources[p.ImportPath+" ["+p.ImportPath+".test]"]
		if base == nil {
			base = sources[p.ImportPath]
		}
		for _, u := range []*unit{base, sources[p.ImportPath+"_test ["+p.ImportPath+".test]"]} {
			if u != nil && len(u.files) > 0 {
				units = append(units, u)
			}
		}
		entries, err := os.ReadDir(p.Dir)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				names = append(names, filepath.Join(p.Dir, e.Name()))
			}
		}
		pkg, err := l.newPackage(p.Module.Path, p.ImportPath, p.Dir, names, units...)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadTargets resolves a mix of package patterns and single .go file
// arguments — the two argument shapes the CLI accepts. A file argument
// loads its enclosing directory as a package; the returned "only" set
// (absolute file paths, nil when no file arguments were given) is the
// filter callers apply to restrict diagnostics to the named files.
func LoadTargets(root string, args []string) (pkgs []*Package, only map[string]bool, err error) {
	var patterns []string
	for _, arg := range args {
		if !strings.HasSuffix(arg, ".go") {
			patterns = append(patterns, arg)
			continue
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, nil, err
		}
		info, err := os.Stat(abs)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: %w", err)
		}
		if info.IsDir() {
			return nil, nil, fmt.Errorf("lint: %s is a directory, not a Go file", arg)
		}
		if only == nil {
			only = map[string]bool{}
		}
		only[abs] = true
		patterns = append(patterns, filepath.Dir(abs))
	}
	pkgs, err = LoadModule(root, patterns)
	return pkgs, only, err
}

// LoadVetPackage builds the Package a go vet driver hands its vet tool:
// the files it names, in the module it names, each import resolved
// through the driver's ImportMap (import path → package path) to the
// export data its PackageFile names for that package.
func LoadVetPackage(dir, importPath, module string, goFiles []string, importMap, packageFile map[string]string) (*Package, error) {
	u := &unit{id: importPath, path: importPath, files: goFiles, importMap: importMap}
	return newLoader(nil, packageFile).newPackage(module, importPath, dir, goFiles, u)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

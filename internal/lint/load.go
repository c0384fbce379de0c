package lint

import (
	"bufio"
	"fmt"
	"go/parser"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadModule parses the packages of the Go module rooted at root that
// match the go-tool-style patterns ("./...", "./internal/lint",
// "./cmd/..."). It is a deliberately small stand-in for
// golang.org/x/tools/go/packages: every directory containing .go files
// becomes one Package (internal and external test files are folded into
// the same Package, which is what the analyzers want). Directories named
// testdata or vendor, and hidden or underscore directories, are skipped,
// matching the go tool's convention. All returned packages share one
// TypeLoader (and its FileSet), so semantic analyzers can be run over
// them.
func LoadModule(root string, patterns []string) ([]*Package, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		if err := expandPattern(root, pat, dirs); err != nil {
			return nil, err
		}
	}
	loader := NewTypeLoader(module, root)
	return loadDirs(loader, dirs)
}

// LoadTargets resolves a mix of package patterns and single .go file
// arguments — the two argument shapes the CLI accepts. A file argument
// loads its enclosing directory as a package; the returned "only" set
// (absolute file paths, nil when no file arguments were given) is the
// filter callers apply to restrict diagnostics to the named files.
func LoadTargets(root string, args []string) (pkgs []*Package, only map[string]bool, err error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs := map[string]bool{}
	for _, arg := range args {
		if strings.HasSuffix(arg, ".go") {
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
			dirs[filepath.Dir(abs)] = true
			continue
		}
		if err := expandPattern(root, arg, dirs); err != nil {
			return nil, nil, err
		}
	}
	loader := NewTypeLoader(module, root)
	pkgs, err = loadDirs(loader, dirs)
	return pkgs, only, err
}

// loadDirs parses each directory into a Package through one shared
// loader, in sorted order.
func loadDirs(loader *TypeLoader, dirs map[string]bool) ([]*Package, error) {
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	var pkgs []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(loader.Root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: directory %s is outside module root %s", dir, loader.Root)
		}
		importPath := loader.Module
		if rel != "." {
			importPath = loader.Module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := LoadDir(loader, importPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// expandPattern resolves one pattern into package directories.
func expandPattern(root, pat string, dirs map[string]bool) error {
	pat = strings.TrimPrefix(pat, "./")
	recursive := false
	if pat == "..." {
		pat, recursive = "", true
	} else if strings.HasSuffix(pat, "/...") {
		pat, recursive = strings.TrimSuffix(pat, "/..."), true
	}
	base := filepath.Join(root, filepath.FromSlash(pat))
	info, err := os.Stat(base)
	if err != nil {
		return fmt.Errorf("lint: pattern %q: %w", pat, err)
	}
	if !info.IsDir() {
		return fmt.Errorf("lint: pattern %q is not a directory (single files may be passed as path/to/file.go)", pat)
	}
	if !recursive {
		dirs[base] = true
		return nil
	}
	return filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs[p] = true
		return nil
	})
}

// LoadDir parses every .go file in dir into a Package attached to
// loader, with the given import path; it returns (nil, nil) when the
// directory holds no .go files. Fixture trees (linttest) use it directly
// with synthetic import paths.
func LoadDir(loader *TypeLoader, importPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	pkg := &Package{
		Module:     loader.Module,
		ImportPath: importPath,
		Dir:        dir,
		Fset:       loader.Fset,
		Loader:     loader,
	}
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(pkg.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", full, err)
		}
		pkg.Files = append(pkg.Files, &File{
			Name: full,
			AST:  f,
			Test: strings.HasSuffix(name, "_test.go"),
		})
	}
	return pkg, nil
}

// LoadVetPackage builds a Package from the explicit file list a go vet
// driver hands its vet tool. The module path is read from the nearest
// go.mod above dir; for packages outside any module (or the standard
// library, should the driver ever pass one) the first import-path
// segment stands in, which keeps every in-repo exemption rule exact.
func LoadVetPackage(dir, importPath string, goFiles []string) (*Package, error) {
	module := importPath
	if i := strings.IndexByte(module, '/'); i >= 0 {
		module = module[:i]
	}
	root := dir
	if r, err := FindModuleRoot(dir); err == nil {
		root = r
		if m, err := modulePath(filepath.Join(r, "go.mod")); err == nil {
			module = m
		}
	}
	loader := NewTypeLoader(module, root)
	pkg := &Package{
		Module:     module,
		ImportPath: importPath,
		Dir:        dir,
		Fset:       loader.Fset,
		Loader:     loader,
	}
	for _, name := range goFiles {
		f, err := parser.ParseFile(pkg.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		pkg.Files = append(pkg.Files, &File{
			Name: name,
			AST:  f,
			Test: strings.HasSuffix(name, "_test.go"),
		})
	}
	return pkg, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (run from the module root)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "module ") {
			return strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
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

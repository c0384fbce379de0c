// Package lint is the determinism lint suite for the DI-GRUBER
// reproduction. The paper's results are shape claims — who wins, where
// saturation falls — and those only replay exactly if every experiment
// is deterministic and data-race-free. GridSim-style simulators get that
// from a single-threaded event core; this repo runs real
// goroutine-concurrent brokers instead, so the invariants live in
// conventions:
//
//   - all time flows through vtime.Clock (analyzer "wallclock"),
//   - all randomness flows through seeded netsim.Stream streams
//     (analyzer "globalrand"),
//   - library packages return errors instead of panicking
//     (analyzer "nopanic"),
//   - no RPC, channel send, virtual sleep or condition wait happens
//     while a mutex is held — the deadlock shapes -race cannot see
//     (analyzer "lockheld"),
//   - nothing on an emit path iterates a map unsorted
//     (analyzer "mapiter").
//
// This package encodes those conventions as analyzers in the style of
// golang.org/x/tools/go/analysis, implemented on the standard library
// only. The driver runs two kinds of pass: syntactic ones (go/ast; they
// resolve package identifiers through each file's import table, which
// is exact for the qualified-call patterns they police) and semantic
// ones that demand full type information (NeedsTypes), supplied by a
// TypeLoader over the go tool's own package graph: it runs `go list` (or
// reads the go vet driver's config), type-checks the module's packages
// from source in the variants the go tool builds, and imports the rest
// from the compiler's export data in the build cache. It needs nothing
// outside the standard library and no network.
//
// Intentional violations are suppressed with an annotation on the
// offending line or the line directly above it:
//
//	//lint:allow wallclock -- real-time watchdog, not simulated time
//
// Multiple analyzer names may be given, comma-separated; everything
// after " -- " is a free-form justification. The justification is
// mandatory: a bare //lint:allow with no " -- reason" still suppresses,
// but is itself reported as a violation (analyzer "allow"), so every
// exemption in the tree says why it exists.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strconv"
	"strings"
)

// Analyzer is one named invariant check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //lint:allow
	// annotations.
	Name string
	// Doc is the one-paragraph description shown by -list.
	Doc string
	// SkipTests excludes _test.go files from the pass. Test files get
	// latitude where noted in each analyzer's Doc (e.g. real-time
	// watchdog deadlines bounding how long a test may hang).
	SkipTests bool
	// NeedsTypes asks the driver to type-check each package (filling
	// Package.Types/TypesInfo through its TypeLoader) before Run.
	NeedsTypes bool
	// Run inspects pass.Files and reports violations via pass.Reportf.
	Run func(pass *Pass) error
}

// File is one parsed source file of a package.
type File struct {
	// Name is the file path as given to the loader.
	Name string
	// AST is the parsed file, including comments.
	AST *ast.File
	// Test marks _test.go files.
	Test bool
	// NoTypes marks files excluded from type checking by build
	// constraints (e.g. //go:build race in a raceless run); typed
	// analyzers have no information for them and skip what they cannot
	// resolve.
	NoTypes bool
}

// Package is the unit an analyzer runs over.
type Package struct {
	// Module is the module path (e.g. "digruber"); analyzers use it to
	// name in-repo packages like Module+"/internal/vtime".
	Module string
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions all Files. Packages loaded through one TypeLoader
	// share its FileSet.
	Fset *token.FileSet
	// Files holds every .go file in the directory, tests included.
	Files []*File
	// Loader type-checks this package and resolves its imports.
	Loader *TypeLoader
	// units are the compilation units Loader checks the Files in.
	units []*unit
	// Types is the type-checked base package, filled by Loader.Check
	// when an analyzer declares NeedsTypes (nil for xtest-only dirs).
	Types *types.Package
	// TypesInfo records type information for every build-matching file,
	// test units included.
	TypesInfo *types.Info
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Files returns the files the analyzer should inspect, honouring
// SkipTests.
func (p *Pass) Files() []*File {
	if !p.Analyzer.SkipTests {
		return p.Pkg.Files
	}
	out := make([]*File, 0, len(p.Pkg.Files))
	for _, f := range p.Pkg.Files {
		if !f.Test {
			out = append(out, f)
		}
	}
	return out
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// All returns the full determinism suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, GlobalRand, NoPanic, LockHeld, MapIter}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run applies the analyzers to every package — type-checking packages
// first when any analyzer needs types — drops diagnostics covered by
// //lint:allow annotations, reports bare annotations missing their
// "-- reason" justification, and returns the remainder in file/line
// order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	needTypes := false
	for _, a := range analyzers {
		if a.NeedsTypes {
			needTypes = true
		}
	}
	if needTypes {
		for _, pkg := range pkgs {
			if pkg.TypesInfo != nil {
				continue
			}
			if pkg.Loader == nil {
				return nil, fmt.Errorf("lint: package %s has no TypeLoader but a selected analyzer needs types", pkg.ImportPath)
			}
			if err := pkg.Loader.Check(pkg); err != nil {
				return nil, err
			}
		}
	}

	var out []Diagnostic
	allows := allowSet{}
	for _, pkg := range pkgs {
		bare := collectAllows(pkg, allows)
		out = append(out, bare...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			out = append(out, pass.diags...)
		}
	}
	kept := out[:0]
	for _, d := range out {
		if d.Analyzer != allowAnalyzer && allows.covers(d.Analyzer, d.Pos) {
			continue
		}
		kept = append(kept, d)
	}
	out = kept
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

// allowAnalyzer names the pseudo-analyzer reporting malformed
// //lint:allow annotations; it is not part of All() and cannot itself
// be suppressed.
const allowAnalyzer = "allow"

// allowSet records which analyzers are allowed on which line of which
// file. An annotation covers its own line (end-of-line comment) and the
// line directly below it (comment above the offending statement).
type allowSet map[string]map[int]map[string]bool // file → line → analyzer

// collectAllows records pkg's annotations into set and returns one
// diagnostic per bare annotation missing its "-- reason" justification.
func collectAllows(pkg *Package, set allowSet) []Diagnostic {
	var bare []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				names, justified, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if !justified {
					bare = append(bare, Diagnostic{
						Pos: pos,
						Message: fmt.Sprintf(
							"//lint:allow %s is missing its justification; write \"//lint:allow %s -- reason\"",
							strings.Join(names, ","), strings.Join(names, ",")),
						Analyzer: allowAnalyzer,
					})
				}
				if set[pos.Filename] == nil {
					set[pos.Filename] = map[int]map[string]bool{}
				}
				if set[pos.Filename][pos.Line] == nil {
					set[pos.Filename][pos.Line] = map[string]bool{}
				}
				for _, n := range names {
					set[pos.Filename][pos.Line][n] = true
				}
			}
		}
	}
	return bare
}

// parseAllow recognises "//lint:allow name[,name...] -- reason". The
// justified result reports whether the " -- reason" part is present and
// non-empty.
func parseAllow(comment string) (names []string, justified, ok bool) {
	const prefix = "//lint:allow"
	if !strings.HasPrefix(comment, prefix) {
		return nil, false, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(comment, prefix))
	if i := strings.Index(rest, "--"); i >= 0 {
		justified = strings.TrimSpace(rest[i+len("--"):]) != ""
		rest = strings.TrimSpace(rest[:i])
	}
	if rest == "" {
		return nil, false, false
	}
	for _, n := range strings.Split(rest, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, justified, len(names) > 0
}

func (s allowSet) covers(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if lines[line][analyzer] || lines[line]["all"] {
			return true
		}
	}
	return false
}

// importedAs returns the local name under which importPath is imported
// in f, or "" if it is not imported (or only blank/dot imported, which
// the syntactic analyzers cannot track).
func importedAs(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != importPath {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return path.Base(p)
	}
	return ""
}

// isPkgRef reports whether id plausibly refers to an imported package
// rather than a local variable shadowing the package name. The parser's
// scope resolution attaches an Object to locally-declared identifiers;
// package qualifiers resolve to the import (Kind Pkg) or to nothing.
func isPkgRef(id *ast.Ident) bool {
	return id.Obj == nil || id.Obj.Kind == ast.Pkg
}

// Package linttest is an analysistest-style harness for the determinism
// lint suite: it runs one analyzer over fixture packages laid out under
// a testdata/src tree (the golang.org/x/tools/go/analysis/analysistest
// convention, reimplemented on the standard library because the repo
// builds offline) and checks reported diagnostics against expectations
// written in the fixtures themselves:
//
//	deadline := time.Now() // want `time\.Now reads the wall clock`
//
// Each "want" comment carries one or more backquoted or quoted regular
// expressions that must match, in order, the diagnostics reported on
// that line. Lines without a want comment must produce no diagnostics,
// so every fixture doubles as a clean-code test for its unannotated
// lines.
package linttest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"digruber/internal/lint"
)

// wantRE extracts the quoted expectation patterns from a want comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run applies analyzer a to each fixture package (an import path of a
// fixture module below srcRoot, e.g. "digruber/internal/simlib") and
// diffs the diagnostics against the fixtures' want comments.
func Run(t *testing.T, srcRoot string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, pkgPath := range pkgPaths {
		pkg := Package(t, srcRoot, pkgPath)
		diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		check(t, pkg, diags)
	}
}

// fixtures holds each fixture module loaded so far in this process, by
// its root directory.
var fixtures = struct {
	sync.Mutex
	pkgs map[string][]*lint.Package
}{pkgs: map[string][]*lint.Package{}}

// Package returns the fixture package pkgPath. The first segment of
// pkgPath names the fixture module: a directory below srcRoot with a
// go.mod of that module path, so exemption rules keyed on
// Module+"/internal/..." behave exactly as in the real tree. The module
// is loaded whole, once per process, as LoadModule loads the real one.
func Package(t *testing.T, srcRoot, pkgPath string) *lint.Package {
	t.Helper()
	module, _, _ := strings.Cut(pkgPath, "/")
	root, err := filepath.Abs(filepath.Join(srcRoot, module))
	if err != nil {
		t.Fatal(err)
	}
	fixtures.Lock()
	defer fixtures.Unlock()
	pkgs, ok := fixtures.pkgs[root]
	if !ok {
		if pkgs, err = lint.LoadModule(root, nil); err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		fixtures.pkgs[root] = pkgs
	}
	for _, pkg := range pkgs {
		if pkg.ImportPath == pkgPath {
			return pkg
		}
	}
	t.Fatalf("no fixture package %s below %s", pkgPath, srcRoot)
	return nil
}

// expectation is one want pattern at a file:line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func check(t *testing.T, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(text[len("want "):], -1) {
					pat, err := unquote(q)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	for _, d := range diags {
		if w := takeWant(wants, d); w != nil {
			continue
		}
		t.Errorf("%s: unexpected diagnostic: %s [%s]", pkg.ImportPath, d, d.Analyzer)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// takeWant claims the first unmatched expectation for d's line whose
// pattern matches the message.
func takeWant(wants []*expectation, d lint.Diagnostic) *expectation {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.pattern.MatchString(d.Message) {
			w.matched = true
			return w
		}
	}
	return nil
}

// unquote handles both `backquoted` and "quoted" want patterns.
func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}

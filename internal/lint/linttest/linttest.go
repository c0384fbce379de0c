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
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"digruber/internal/lint"
)

// wantRE extracts the quoted expectation patterns from a want comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run applies analyzer a to each fixture package (an import path below
// srcRoot, e.g. "digruber/internal/simlib") and diffs the diagnostics
// against the fixtures' want comments. The module path is the first
// segment of the fixture's import path, so exemption rules keyed on
// Module+"/internal/..." behave exactly as in the real tree.
func Run(t *testing.T, srcRoot string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, pkgPath := range pkgPaths {
		pkg, err := load(srcRoot, pkgPath)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		check(t, pkg, diags)
	}
}

func load(srcRoot, pkgPath string) (*lint.Package, error) {
	module := pkgPath
	if i := strings.IndexByte(module, '/'); i >= 0 {
		module = module[:i]
	}
	// The fixture tree root (testdata/src) acts as a GOPATH-style source
	// root: the loader resolves in-module imports like
	// "digruber/internal/wire" below it.
	loader := lint.NewTypeLoader(module, filepath.Join(srcRoot, module))
	dir := filepath.Join(srcRoot, filepath.FromSlash(pkgPath))
	pkg, err := lint.LoadDir(loader, pkgPath, dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return pkg, nil
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

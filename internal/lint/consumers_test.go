package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The consumer rule: a series that non-test code under internal/
// registers must be named by a reader, or it is deleted; and every dp/
// series digruber-top reads must be one a decision point registers.
// DESIGN.md "Series and their readers" lists what the rule keeps.
//
// Names are matched as patterns: a string expression is spelled with
// its literal parts as written and '*' for anything computed (a
// variable assigned once from a string expression is followed, and a
// fmt verb is a '*'). Registration sites are the calls of a registry's
// Counter, Gauge, GaugeFunc and Histogram, in any branch, so every
// variant (durable, Gossip, Controller) is covered without running it.
// A read is any other string expression of a reader file that spells at
// least two literal path segments at its end: a whole name, or a
// suffix a reader composes onto a prefix.

// registerCalls are the tsdb.Registry methods that register a series.
var registerCalls = map[string]bool{"Counter": true, "Gauge": true, "GaugeFunc": true, "Histogram": true}

// readerDirs are the directories whose non-test code reads series.
var readerDirs = []string{"cmd/digruber-top/", "cmd/digruber-trace/", "cmd/digruber-bench/", "internal/slo/"}

const (
	controllerFile = "internal/digruber/controller.go"
	ciFile         = ".github/workflows/ci.yml"
	topDir         = "cmd/digruber-top/"
	dpDir          = "internal/digruber/"
	maxResolve     = 8 // how many variable definitions a name is followed through
)

// isReader reports whether a file's reads count: the non-test code of
// readerDirs, the Controller, all of internal/exp, and the CI
// workflow's jq gates.
func isReader(path string) bool {
	if path == controllerFile || path == ciFile || strings.HasPrefix(path, "internal/exp/") {
		return true
	}
	if strings.HasSuffix(path, "_test.go") {
		return false
	}
	for _, d := range readerDirs {
		if strings.HasPrefix(path, d) {
			return true
		}
	}
	return false
}

// seriesUse is one registration or read: where, and the name pattern.
type seriesUse struct {
	pos     string // path:line
	dir     string // the file's directory, slash-terminated
	test    bool
	pattern string
	hist    bool // a histogram registration: pattern/count, /sum and /le/<bound> too
}

var (
	fmtVerb   = regexp.MustCompile(`%[-+# 0-9.]*[a-zA-Z%]`)
	jqInterp  = regexp.MustCompile(`\\\([^)]*\)`)
	quoted    = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
	manyStars = regexp.MustCompile(`\*+`)
)

// namePattern spells a string expression as a pattern; lit reports
// whether it holds any literal text.
func namePattern(e ast.Expr, depth int) (p string, lit bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "*", false
		}
		s, err := strconv.Unquote(e.Value)
		if err != nil {
			return "*", false
		}
		return fmtVerb.ReplaceAllString(s, "*"), true
	case *ast.ParenExpr:
		return namePattern(e.X, depth)
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "*", false
		}
		x, xl := namePattern(e.X, depth)
		y, yl := namePattern(e.Y, depth)
		return manyStars.ReplaceAllString(x+y, "*"), xl || yl
	case *ast.Ident:
		if rhs := definition(e); rhs != nil && depth < maxResolve {
			return namePattern(rhs, depth+1)
		}
	}
	return "*", false
}

// definition returns the expression a local variable or constant was
// defined from, or nil.
func definition(id *ast.Ident) ast.Expr {
	if id.Obj == nil || (id.Obj.Kind != ast.Var && id.Obj.Kind != ast.Con) {
		return nil
	}
	switch d := id.Obj.Decl.(type) {
	case *ast.AssignStmt:
		if d.Tok == token.DEFINE && len(d.Lhs) == len(d.Rhs) {
			for i, l := range d.Lhs {
				if l, ok := l.(*ast.Ident); ok && l.Name == id.Name {
					return d.Rhs[i]
				}
			}
		}
	case *ast.ValueSpec:
		for i, n := range d.Names {
			if n.Name == id.Name && i < len(d.Values) {
				return d.Values[i]
			}
		}
	}
	return nil
}

// namesSeries reports whether a read pattern ends in at least two
// literal path segments.
func namesSeries(p string) bool {
	run := strings.TrimPrefix(p[strings.LastIndex(p, "*")+1:], "/")
	i := strings.LastIndex(run, "/")
	return i > 0 && i < len(run)-1
}

// meet reports whether some name matches both patterns.
func meet(a, b string) bool {
	memo := map[[2]int]bool{}
	var m func(i, j int) bool
	m = func(i, j int) bool {
		k := [2]int{i, j}
		if v, ok := memo[k]; ok {
			return v
		}
		var v bool
		switch {
		case i == len(a):
			v = strings.Trim(b[j:], "*") == ""
		case j == len(b):
			v = strings.Trim(a[i:], "*") == ""
		case a[i] == '*':
			v = m(i+1, j) || m(i, j+1)
		case b[j] == '*':
			v = m(i, j+1) || m(i+1, j)
		default:
			v = a[i] == b[j] && m(i+1, j+1)
		}
		memo[k] = v
		return v
	}
	return m(0, 0)
}

// reads reports whether read pattern q names a series registration r
// registers: the name itself or a histogram's count or sum series, or
// a suffix of one. Every candidate ends in literal text, so a pattern
// that starts with '*' can only meet it by agreeing on that end.
func reads(q string, r seriesUse) bool {
	names := []string{r.pattern}
	if r.hist {
		names = append(names, r.pattern+"/count", r.pattern+"/sum")
	}
	for _, n := range names {
		if meet(q, n) || meet("*/"+q, n) {
			return true
		}
	}
	return false
}

// scanSeries collects the registrations (non-test Go under internal/)
// and reads (reader files) of the given files, keyed by path relative
// to the module root.
func scanSeries(files map[string]string) (regs, rds []seriesUse, err error) {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		dir := path[:strings.LastIndex(path, "/")+1]
		test := strings.HasSuffix(path, "_test.go")
		reader := isReader(path)
		if path == ciFile {
			for i, line := range strings.Split(files[path], "\n") {
				for _, q := range quoted.FindAllString(line, -1) {
					p := jqInterp.ReplaceAllString(q[1:len(q)-1], "*")
					if namesSeries(p) {
						rds = append(rds, seriesUse{pos: fmt.Sprintf("%s:%d", path, i+1), dir: dir, pattern: p})
					}
				}
			}
			continue
		}
		if !strings.HasSuffix(path, ".go") {
			continue
		}
		registers := strings.HasPrefix(path, "internal/") && !test
		if !registers && !reader {
			continue
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, files[path], 0)
		if perr != nil {
			return nil, nil, perr
		}
		at := func(n ast.Node) string { return fmt.Sprintf("%s:%d", path, fset.Position(n.Pos()).Line) }
		skip := map[ast.Node]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || skip[n] {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !registerCalls[sel.Sel.Name] || len(n.Args) == 0 {
					return true
				}
				skip[n.Args[0]] = true // a registration is not a read
				if registers {
					p, _ := namePattern(n.Args[0], 0)
					regs = append(regs, seriesUse{pos: at(n), dir: dir, pattern: p, hist: sel.Sel.Name == "Histogram"})
				}
			case *ast.BasicLit, *ast.BinaryExpr:
				p, lit := namePattern(n.(ast.Expr), 0)
				if !lit {
					return true
				}
				if reader && namesSeries(p) {
					rds = append(rds, seriesUse{pos: at(n), dir: dir, test: test, pattern: p})
				}
				return false
			}
			return true
		})
	}
	return regs, rds, nil
}

// checkConsumers applies the rule to files and returns one message per
// breach.
func checkConsumers(files map[string]string) ([]string, error) {
	regs, rds, err := scanSeries(files)
	if err != nil {
		return nil, err
	}
	var msgs []string
	for _, r := range regs {
		if p := r.pattern; p == "" || strings.HasSuffix(p, "*") || strings.HasSuffix(p, "/") {
			msgs = append(msgs, fmt.Sprintf("%s: the series registered here is named %q; spell its name out", r.pos, p))
			continue
		}
		read := false
		for _, q := range rds {
			// The registering package's own tests are not readers.
			if !(q.test && q.dir == r.dir) && reads(q.pattern, r) {
				read = true
				break
			}
		}
		if !read {
			msgs = append(msgs, fmt.Sprintf("%s: series %s is registered but nothing reads it: delete it, or name its reader", r.pos, r.pattern))
		}
	}
	for _, q := range rds {
		if !strings.HasPrefix(q.pos, topDir) || !strings.HasPrefix(q.pattern, "dp/") {
			continue
		}
		registered := false
		for _, r := range regs {
			if r.dir == dpDir && reads(q.pattern, r) {
				registered = true
				break
			}
		}
		if !registered {
			msgs = append(msgs, fmt.Sprintf("%s: top reads %s, which no decision point registers", q.pos, q.pattern))
		}
	}
	return msgs, nil
}

// seriesSources reads the files the rule looks at: every Go file under
// internal/ but fixtures, the reader commands and the CI workflow.
func seriesSources(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	add := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.ToSlash(rel)] = string(b)
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			add(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range readerDirs {
		if !strings.HasPrefix(d, "cmd/") {
			continue // under internal/, walked above
		}
		matches, _ := filepath.Glob(filepath.Join(root, filepath.FromSlash(d), "*.go"))
		for _, m := range matches {
			add(m)
		}
	}
	add(filepath.Join(root, filepath.FromSlash(ciFile)))
	return files
}

// TestEverySeriesHasAReader holds the tree to the consumer rule.
func TestEverySeriesHasAReader(t *testing.T) {
	files := seriesSources(t, filepath.Join("..", ".."))
	regs, _, err := scanSeries(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) < 20 {
		t.Fatalf("found %d registrations; the scan has drifted from the tree", len(regs))
	}
	msgs, err := checkConsumers(files)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		t.Error(m)
	}
}

// TestConsumerRuleCatchesPlants plants a series a decision point
// registers and nothing reads, and a top read of a series no decision
// point registers, into the real tree: the rule reports both and
// nothing else.
func TestConsumerRuleCatchesPlants(t *testing.T) {
	files := seriesSources(t, filepath.Join("..", ".."))
	files[dpDir+"planted.go"] = `package digruber

import "digruber/internal/tsdb"

func (dp *DecisionPoint) registerPlanted(reg *tsdb.Registry) {
	reg.Counter(dp.metricsPrefix() + "mesh/planted")
}
`
	files[topDir+"planted.go"] = `package main

import "digruber/internal/digruber"

func plantedRead(st digruber.StatusReply) (float64, bool) {
	return metric(st, "dp/"+st.Name+"/engine/divergence_l1")
}
`
	got, err := checkConsumers(files)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		dpDir + "planted.go:6: series *mesh/planted is registered but nothing reads it: delete it, or name its reader",
		topDir + "planted.go:6: top reads dp/*/engine/divergence_l1, which no decision point registers",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

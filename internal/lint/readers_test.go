package lint_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"digruber/internal/lint"
	"digruber/internal/lint/linttest"
)

// The reader rule: every field, exported or not, of a struct type that
// a package under internal/ (lint's own excepted) declares outside its
// tests must be read by some non-test file of the module. A field that
// is only ever written is state nobody looks at, so it goes, together
// with the code that fills it.
//
// A non-test file writes a field when the field is the whole left side
// of an assignment (=, := or an op-assign such as +=), the operand of ++
// or --, or an element of a composite literal. Any other use is a read:
// a field only ever accumulated into (x.F *= y) is therefore written
// only. A struct compared whole, as a map key or by == and !=, has all
// its fields read. A field with a struct tag is exempt, as encoding/*
// reads it by reflection; so is an embedded field, which its parent
// uses through the fields and methods it promotes. A use inside a method
// of wire's value hook (valueHooks) is not counted as a read.

// valueHooks are the methods of wire's value hook. A hook is gob's
// reflection written out: it reads a field to put it on the wire, or to
// check the receiver is zero, no more than gob does, so its uses are no
// read.
var valueHooks = map[string]bool{"AppendGobValue": true, "ReadGobValue": true}

// wireBodyUnread is every field the rule finds that is part of a wire
// body: a gob-encoded struct whose receiver is another process, so that
// deleting the field renumbers the encoding and moves the wire goldens.
// Each entry says why no receiver reads the field, and its exit. The
// list holds wire-body fields only and only shrinks; any other unread
// field is deleted or given its reader.
var wireBodyUnread = map[string]string{
	"digruber/internal/exp.instanceReq.Payload": "Fig 1's 0.2 KB request body: its bytes are what the emulated GT3/GT4 service time charges; exit: none",
	"digruber/internal/exp.instanceResp.Handle": "Fig 1's reply body: its bytes are what the emulated GT3/GT4 service time charges; exit: none",
}

// unreadFields returns, sorted, the watched fields of pkgs that no
// non-test file of pkgs reads, each as [name, position]: name is
// "pkgpath.Type.Field" and position "file:line" below root.
func unreadFields(pkgs []*lint.Package, root string) ([][2]string, error) {
	watched := map[string]bool{}
	for _, w := range reachWatched(pkgs) {
		watched[pkgs[0].Module+"/"+w] = true
	}
	declared := map[string][2]string{}
	read := map[string]bool{}
	for _, pkg := range pkgs {
		if err := pkg.Loader.Check(pkg); err != nil {
			return nil, err
		}
		info := pkg.TypesInfo
		field := func(id *ast.Ident) *types.Var {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		}
		for _, f := range pkg.Files {
			if f.NoTypes || strings.HasSuffix(pkg.Fset.Position(f.AST.Pos()).Filename, "_test.go") {
				continue
			}
			if watched[pkg.ImportPath] {
				declareAllFields(pkg, f.AST, root, declared)
			}
			// written holds the identifiers that name a field in a
			// write position; every other use of a field reads it.
			written := map[*ast.Ident]bool{}
			// readAll marks every field a whole-value comparison of t
			// reads, nested structs and arrays included.
			var readAll func(t types.Type)
			readAll = func(t types.Type) {
				if t == nil {
					return
				}
				switch u := t.Underlying().(type) {
				case *types.Array:
					readAll(u.Elem())
				case *types.Struct:
					for i := 0; i < u.NumFields(); i++ {
						read[fieldKey(pkg.Fset, u.Field(i))] = true
						readAll(u.Field(i).Type())
					}
				}
			}
			writes := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					written[sel.Sel] = true
				}
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						writes(l)
					}
				case *ast.IncDecStmt:
					writes(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok && field(id) != nil {
						written[id] = true
					}
				case *ast.MapType:
					// A map compares its keys whole.
					if m, ok := info.TypeOf(n).(*types.Map); ok {
						readAll(m.Key())
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(info.TypeOf(n.X))
					}
				}
				return true
			})
			ast.Inspect(f.AST, func(n ast.Node) bool {
				if fn, ok := n.(*ast.FuncDecl); ok && fn.Recv != nil && valueHooks[fn.Name.Name] {
					return false
				}
				if id, ok := n.(*ast.Ident); ok && !written[id] {
					if v := field(id); v != nil {
						read[fieldKey(pkg.Fset, v)] = true
					}
				}
				return true
			})
		}
	}
	var out [][2]string
	for k, d := range declared {
		if !read[k] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}

// declareAllFields adds every untagged, named field of the struct
// types f declares, at package level or in a function, to declared.
func declareAllFields(pkg *lint.Package, f *ast.File, root string, declared map[string][2]string) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := pkg.TypesInfo.Defs[ts.Name].Type().Underlying().(*types.Struct)
		if !ok {
			return true
		}
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if st.Tag(i) != "" || fld.Embedded() || fld.Name() == "_" {
				continue
			}
			p := pkg.Fset.Position(fld.Pos())
			rel, err := filepath.Rel(root, p.Filename)
			if err != nil {
				rel = p.Filename
			}
			declared[fieldKey(pkg.Fset, fld)] = [2]string{
				pkg.ImportPath + "." + ts.Name.Name + "." + fld.Name(),
				fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line),
			}
		}
		return true
	})
}

// checkReaders holds the unread fields of pkgs to the wire-body list,
// in both directions, and returns one message per breach.
func checkReaders(pkgs []*lint.Package, root string, allowed map[string]string) ([]string, error) {
	unread, err := unreadFields(pkgs, root)
	if err != nil {
		return nil, err
	}
	var msgs []string
	still := map[string]bool{}
	for _, u := range unread {
		still[u[0]] = true
		if _, ok := allowed[u[0]]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s (%s) is written but read by no non-test file: delete it with the code that fills it, or read it", u[0], u[1]))
		}
	}
	for n := range allowed {
		if !still[n] {
			msgs = append(msgs, fmt.Sprintf("%s is on the wire-body list but is read now, or gone: take it off the list", n))
		}
	}
	sort.Strings(msgs)
	return msgs, nil
}

// TestEveryFieldHasAReader holds the tree to the reader rule.
func TestEveryFieldHasAReader(t *testing.T) {
	root, pkgs := modulePackages(t)
	msgs, err := checkReaders(pkgs, root, wireBodyUnread)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		t.Error(m)
	}
}

// The fixture reads a field in every shape the rule counts as a read,
// and declares a field no file reads, a field only its test reads, a
// field only accumulated into, a field only a value hook uses, and a
// tagged and an embedded field nobody reads: the rule reports the four
// unread ones, exempts the other two, and reports a list entry that is
// read.
func TestReaderRuleCatchesPlants(t *testing.T) {
	const path = "digruber/internal/readerlib"
	pkg := linttest.Package(t, testdata, path)
	got, err := checkReaders([]*lint.Package{pkg}, filepath.Join(testdata, "digruber"), map[string]string{
		path + ".state.Passed": "read since it was listed",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		path + ".Body.Hooked (internal/readerlib/readerlib.go:59) is written but read by no non-test file: delete it with the code that fills it, or read it",
		path + ".Record.NeverRead (internal/readerlib/readerlib.go:13) is written but read by no non-test file: delete it with the code that fills it, or read it",
		path + ".Record.OnlyInTests (internal/readerlib/readerlib.go:14) is written but read by no non-test file: delete it with the code that fills it, or read it",
		path + ".state.Passed is on the wire-body list but is read now, or gone: take it off the list",
		path + ".state.Product (internal/readerlib/readerlib.go:31) is written but read by no non-test file: delete it with the code that fills it, or read it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

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

// The setter rule: an exported field of an exported struct type that a
// package under internal/ (lint's own excepted) declares outside its
// tests is an option only if some non-test file of the module sets it.
// A field nobody sets selects nothing but its zero value, so it goes,
// together with the code its other values would select.
//
// A non-test file sets a field when it names the field as a
// composite-literal key (or fills the struct positionally), assigns or
// op-assigns it, applies ++ or --, takes its address, or calls a
// pointer method on it. A field with a struct tag is exempt: encoding/*
// sets it by reflection.

// fieldKey identifies a field across the two instances a package can
// have in one loader (imported without its tests, checked with them):
// both are parsed from the same file, so the position spells the same.
func fieldKey(fset *token.FileSet, v *types.Var) string {
	p := fset.Position(v.Origin().Pos())
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

// unsetFields returns, sorted, the watched fields of pkgs that no
// non-test file of pkgs sets, spelled "pkgpath.Type.Field (file:line)".
func unsetFields(pkgs []*lint.Package, root string) ([]string, error) {
	watched := map[string]bool{}
	for _, w := range reachWatched(pkgs) {
		watched[pkgs[0].Module+"/"+w] = true
	}
	declared := map[string]string{}
	set := map[string]bool{}
	for _, pkg := range pkgs {
		if err := pkg.Loader.Check(pkg); err != nil {
			return nil, err
		}
		info := pkg.TypesInfo
		markVar := func(v *types.Var) {
			if v != nil && v.IsField() {
				set[fieldKey(pkg.Fset, v)] = true
			}
		}
		// mark records the field a selector expression selects, if any.
		mark := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := info.Uses[sel.Sel].(*types.Var); ok {
					markVar(v)
				}
			}
		}
		for _, f := range pkg.Files {
			if f.NoTypes {
				continue
			}
			name := pkg.Fset.Position(f.AST.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			if watched[pkg.ImportPath] {
				declareFields(pkg, f.AST, root, declared)
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := info.TypeOf(n)
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								v, _ := info.Uses[id].(*types.Var)
								markVar(v)
							}
						} else if i < st.NumFields() {
							markVar(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						mark(l)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				case *ast.SelectorExpr:
					// x.F.M(…) where M has a pointer receiver and F is
					// not a pointer: the call takes F's address.
					s := info.Selections[n]
					if s == nil || s.Kind() != types.MethodVal {
						return true
					}
					recv := s.Obj().(*types.Func).Type().(*types.Signature).Recv()
					if _, ptrRecv := recv.Type().(*types.Pointer); !ptrRecv {
						return true
					}
					if _, ptrField := s.Recv().(*types.Pointer); !ptrField {
						mark(n.X)
					}
				}
				return true
			})
		}
	}
	var out []string
	for k, name := range declared {
		if !set[k] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// declareFields adds the exported, untagged fields of the struct types
// f declares under an exported name, each spelled
// "pkgpath.Type.Field (file:line)".
func declareFields(pkg *lint.Package, f *ast.File, root string, declared map[string]string) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if _, ok := ts.Type.(*ast.StructType); !ok || !ts.Name.IsExported() {
				continue
			}
			st := pkg.TypesInfo.Defs[ts.Name].Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if !fld.Exported() || st.Tag(i) != "" {
					continue
				}
				p := pkg.Fset.Position(fld.Pos())
				rel, err := filepath.Rel(root, p.Filename)
				if err != nil {
					rel = p.Filename
				}
				declared[fieldKey(pkg.Fset, fld)] = fmt.Sprintf("%s.%s.%s (%s:%d)",
					pkg.ImportPath, ts.Name.Name, fld.Name(), filepath.ToSlash(rel), p.Line)
			}
		}
	}
}

// TestEveryOptionHasASetter holds the tree to the setter rule. It has
// no allow-list: a field nobody sets is deleted, or given its setter.
func TestEveryOptionHasASetter(t *testing.T) {
	root, pkgs := modulePackages(t)
	unset, err := unsetFields(pkgs, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unset {
		t.Errorf("%s is set by no non-test file: delete it with the code it selects, or set it", u)
	}
}

// The fixture declares one field of each settable shape, a field no
// file sets, a field only its test sets and a tagged field nobody sets:
// the rule reports the two unset ones and exempts the tagged one.
func TestSetterRuleCatchesPlants(t *testing.T) {
	const path = "digruber/internal/setterlib"
	pkg := linttest.Package(t, testdata, path)
	got, err := unsetFields([]*lint.Package{pkg}, filepath.Join(testdata, "digruber"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		path + ".Config.NeverSet (internal/setterlib/setterlib.go:16)",
		path + ".Config.OnlyInTests (internal/setterlib/setterlib.go:17)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

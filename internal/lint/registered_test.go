package lint_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"digruber/internal/lint"
	"digruber/internal/lint/linttest"
)

// The registration rule: every type a non-test file sends through
// wire.Call, wire.CallCtx, wire.Handle or wire.HandleCtx — as a type
// argument there, or through the type parameters of a generic function
// that passes them on — is registered by a non-test wire.Register call.
// wire reads an unregistered body with a fresh gob.Decoder, and gob
// numbers its types at first use, so its bytes depend on what the
// process encoded before (DESIGN.md "Wire body codec").

// wireSends are wire's typed entry points; every type parameter of each
// carries a body.
var wireSends = []string{"Call", "CallCtx", "Handle", "HandleCtx"}

// typeKey names a type by its package path and name.
func typeKey(t types.Type) string { return types.TypeString(t, (*types.Package).Path) }

// registeredTypes returns the types the non-test wire.Register calls of
// pkgs name, inline or through a list, each by typeKey, with the import
// path of the package that registers it.
func registeredTypes(pkgs []*lint.Package) (map[string]string, error) {
	wirePath := pkgs[0].Module + "/internal/wire"
	registered := map[string]string{}
	for _, pkg := range pkgs {
		if err := pkg.Loader.Check(pkg); err != nil {
			return nil, err
		}
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			if f.NoTypes || f.Test {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != wirePath || fn.Name() != "Register" {
					return true
				}
				for _, arg := range call.Args {
					if call.Ellipsis.IsValid() {
						for _, elt := range listElements(pkg, arg) {
							registered[typeKey(info.TypeOf(elt))] = pkg.ImportPath
						}
						continue
					}
					registered[typeKey(info.TypeOf(arg))] = pkg.ImportPath
				}
				return true
			})
		}
	}
	return registered, nil
}

// unregisteredBodies returns, sorted, one message per type that a
// non-test file of pkgs sends through wire and no non-test file
// registers, with where it is sent, below root.
func unregisteredBodies(pkgs []*lint.Package, root string) ([]string, error) {
	registered, err := registeredTypes(pkgs)
	if err != nil {
		return nil, err
	}
	wirePath := pkgs[0].Module + "/internal/wire"
	// A slot is one type parameter of a generic function, by the
	// function's full name and the parameter's index.
	type slot struct {
		fn string
		i  int
	}
	sends := map[slot]bool{}
	for _, name := range wireSends {
		sends[slot{wirePath + "." + name, 0}], sends[slot{wirePath + "." + name, 1}] = true, true
	}
	type use struct {
		at  slot
		typ string
		pos string
	}
	var uses []use
	passes := map[slot][]slot{} // a type parameter, and the slots it is passed to
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		isTest := func(pos token.Pos) bool {
			return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
		}
		// Type parameters are keyed by where they are declared: one
		// loader can hold two instances of a package.
		owner := map[string]slot{}
		for _, obj := range info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				tps := fn.Type().(*types.Signature).TypeParams()
				for i := 0; i < tps.Len(); i++ {
					owner[pkg.Fset.Position(tps.At(i).Obj().Pos()).String()] = slot{fn.FullName(), i}
				}
			}
		}
		for id, inst := range info.Instances {
			fn, ok := info.Uses[id].(*types.Func)
			if !ok || isTest(id.Pos()) {
				continue
			}
			for i := 0; i < inst.TypeArgs.Len(); i++ {
				at, arg := slot{fn.Origin().FullName(), i}, inst.TypeArgs.At(i)
				if tp, ok := arg.(*types.TypeParam); ok {
					from := owner[pkg.Fset.Position(tp.Obj().Pos()).String()]
					passes[from] = append(passes[from], at)
					continue
				}
				p := pkg.Fset.Position(id.Pos())
				rel, _ := filepath.Rel(root, p.Filename)
				uses = append(uses, use{at, typeKey(arg), fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		//lint:allow mapiter -- a fixpoint: the order of the passes cannot change where it settles
		for from, tos := range passes {
			for _, to := range tos {
				if sends[to] && !sends[from] {
					sends[from], changed = true, true
				}
			}
		}
	}
	seen := map[string]bool{}
	var msgs []string
	for _, u := range uses {
		if sends[u.at] && registered[u.typ] == "" && !seen[u.typ] {
			seen[u.typ] = true
			msgs = append(msgs, fmt.Sprintf("%s is sent through wire (%s) but never registered: add it to a wire.Register call in its package's init", u.typ, u.pos))
		}
	}
	sort.Strings(msgs)
	return msgs, nil
}

// listElements returns the elements of the composite literal that
// initialises the package-level variable arg names, as in
// wire.Register(bodies...).
func listElements(pkg *lint.Package, arg ast.Expr) []ast.Expr {
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pkg.TypesInfo.Uses[id]
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if pkg.TypesInfo.Defs[name] == obj && i < len(vs.Values) {
						if lit, ok := vs.Values[i].(*ast.CompositeLit); ok {
							return lit.Elts
						}
					}
				}
			}
		}
	}
	return nil
}

// TestEveryWireBodyIsRegistered holds the tree to the registration rule.
func TestEveryWireBodyIsRegistered(t *testing.T) {
	root, pkgs := modulePackages(t)
	msgs, err := unregisteredBodies(pkgs, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		t.Error(m)
	}
}

// TestWireSchemaLockfile is the completeness gate of the wire's one pin:
// every type a non-test wire.Register call names, and frame, which
// Register numbers after them, has a definitions row in the
// testdata/wire-bytes.golden of the package that registers it, where that package's TestWireGolden holds
// it to the definitions this build's bodies open with. gob's definitions
// of a type spell out every struct it reaches, so the row moves with any
// field of any of them. The one exemption is Fig 1's echo pair,
// exp.instanceReq and exp.instanceResp, which carry no protocol.
func TestWireSchemaLockfile(t *testing.T) {
	root, pkgs := modulePackages(t)
	registered, err := registeredTypes(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	module := pkgs[0].Module
	if registered[module+"/internal/digruber.ScheduleArgs"] == "" {
		t.Fatalf("the Register walk missed digruber's bodies: %v", registered)
	}
	registered[module+"/internal/wire.frame"] = module + "/internal/wire"
	keys := make([]string, 0, len(registered))
	for key := range registered {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if strings.HasPrefix(key, module+"/internal/exp.instance") {
			continue
		}
		golden := filepath.Join(strings.TrimPrefix(registered[key], module+"/"), "testdata", "wire-bytes.golden")
		table, err := os.ReadFile(filepath.Join(root, golden))
		if err != nil {
			t.Errorf("%s is registered for the wire: %v", key, err)
			continue
		}
		dot := strings.LastIndex(key, ".")
		row := path.Base(key[:dot]) + "." + key[dot+1:] + "/definitions "
		if !strings.Contains("\n"+string(table), "\n"+row) {
			t.Errorf("%s is registered for the wire but %s has no %q row", key, golden, row[:len(row)-1])
		}
	}
}

// The fixture registers bodies inline and through a list, sends a pair
// through a generic helper, and sends one body through the helper and
// handles another that nobody registered; a body only its test sends is
// exempt.
func TestRegistrationRuleCatchesPlants(t *testing.T) {
	const path = "digruber/internal/registerlib"
	pkg := linttest.Package(t, testdata, path)
	got, err := unregisteredBodies([]*lint.Package{pkg}, filepath.Join(testdata, "digruber"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		path + ".Forgotten is sent through wire (internal/registerlib/registerlib.go:37) but never registered: add it to a wire.Register call in its package's init",
		path + ".Stray is sent through wire (internal/registerlib/registerlib.go:38) but never registered: add it to a wire.Register call in its package's init",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

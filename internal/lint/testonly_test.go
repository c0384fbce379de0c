package lint_test

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"digruber/internal/lint"
)

// testOnlyAllowed is every exported method of internal/digruber and
// internal/wire that, as of PR 18, nothing but _test.go files refers
// to. The list can only shrink: an entry leaves when production code
// starts calling the method or the method is deleted. A new method that
// only tests call is a second implementation waiting to fork (PR 18
// deleted a monitor and a provisioner that had grown that way) — give
// it a caller, or fold it into the test that wanted it.
var testOnlyAllowed = []string{
	"(*digruber/internal/digruber.DecisionPoint).LifecycleState",
	"(*digruber/internal/wire.Client).Call",
	"(*digruber/internal/wire.RetryBudget).Throttled",
	// Reached in production through fmt (Stringer) and through the
	// Transport interface; only tests name the concrete method.
	"(digruber/internal/wire.FailureClass).String",
	"(digruber/internal/wire.TCP).Listen",
}

// testOnlyMethods returns the exported methods that the watched
// packages declare outside their tests and that _test.go files of the
// module refer to while no other file does. A method is named by its
// types.Func.FullName, which is the same for both instances a package
// can have in one loader (imported without its tests, checked with
// them); a method no file names at all is reached through an interface
// and is not this check's business.
func testOnlyMethods(t *testing.T, pkgs []*lint.Package, watched ...string) []string {
	t.Helper()
	name := func(obj types.Object) (string, bool) {
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() == nil {
			return "", false
		}
		for _, w := range watched {
			if fn.Pkg().Path() == w {
				return fn.Origin().FullName(), true
			}
		}
		return "", false
	}
	declared, inProd, inTests := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, pkg := range pkgs {
		if err := pkg.Loader.Check(pkg); err != nil {
			t.Fatal(err)
		}
		isTest := func(pos token.Pos) bool {
			return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
		}
		for id, obj := range pkg.TypesInfo.Defs {
			if n, ok := name(obj); ok && !isTest(id.Pos()) {
				declared[n] = true
			}
		}
		for id, obj := range pkg.TypesInfo.Uses {
			if n, ok := name(obj); !ok {
				continue
			} else if isTest(id.Pos()) {
				inTests[n] = true
			} else {
				inProd[n] = true
			}
		}
	}
	var only []string
	for n := range declared {
		if inTests[n] && !inProd[n] {
			only = append(only, n)
		}
	}
	sort.Strings(only)
	return only
}

// checkTestOnlyMethods holds internal/digruber and internal/wire to
// testOnlyAllowed, in both directions.
func checkTestOnlyMethods(t *testing.T, pkgs []*lint.Package) {
	t.Helper()
	module := pkgs[0].Module
	found := testOnlyMethods(t, pkgs, module+"/internal/digruber", module+"/internal/wire")
	allowed := map[string]bool{}
	for _, n := range testOnlyAllowed {
		allowed[n] = true
	}
	for _, n := range found {
		if !allowed[n] {
			t.Errorf("%s is referenced only from _test.go files: give it a production caller or delete it", n)
		}
		delete(allowed, n)
	}
	for n := range allowed {
		t.Errorf("%s is on testOnlyAllowed but is no longer test-only: take it off the list", n)
	}
}

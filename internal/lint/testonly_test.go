package lint_test

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"digruber/internal/lint"
	"digruber/internal/lint/linttest"
)

// reachWatched is every package under internal/ but the lint suite's
// own: the packages whose exported functions and methods must each have
// a caller outside _test.go files.
func reachWatched(pkgs []*lint.Package) []string {
	var watched []string
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg.ImportPath, pkg.Module+"/")
		if ok && strings.HasPrefix(rel, "internal/") && rel != "internal/lint" && !strings.HasPrefix(rel, "internal/lint/") {
			watched = append(watched, rel)
		}
	}
	return watched
}

// testOnlyAllowed is every exported function or method of the watched
// packages that nothing but _test.go files refers to, with the reason
// it may stay. Two reasons are admissible: the name is a seam through
// which a test injects a fault or substitutes a fake store, or
// production reaches it in a way the type checker cannot follow (fmt
// calling String). An entry leaves when production code starts calling
// the name or the name is deleted; a function that does over again what
// production does another way is never an entry (PR 18 deleted a
// monitor and a provisioner that had grown that way) — give it a
// caller, or fold it into the test that wanted it.
var testOnlyAllowed = map[string]string{
	"(*digruber/internal/wal.MemStore).FailNextSyncs":  "fault-injection seam: the commit tests make the fake store refuse syncs",
	"(digruber/internal/wire.FailureClass).String":     "fmt calls it for %s and %v; no file names it",
	"(*digruber/internal/netsim.FaultPlane).CutLink":   "fault-injection seam: the chaos tests schedule link outages",
	"(*digruber/internal/netsim.FaultPlane).Partition": "fault-injection seam: the chaos tests schedule network splits",
	"(*digruber/internal/netsim.FaultPlane).Down":      "fault-injection seam: the chaos tests read the crash schedule to crash and restart their points",
}

// testOnlyFuncs returns the exported functions and methods that the
// watched packages declare outside their tests and that _test.go files
// of pkgs refer to while no other file does. A function is named by its
// types.Func.FullName, which is the same for both instances a package
// can have in one loader (imported without its tests, checked with
// them). A method also counts as reached when a non-test file calls an
// interface method that it implements; a name no file refers to at all
// is reached through an interface outside pkgs (sort, io, gob) and is
// not this check's business.
func testOnlyFuncs(pkgs []*lint.Package, watched map[string]bool) ([]string, error) {
	type ifaceCall struct {
		iface *types.Interface
		name  string
	}
	declared := map[string]*types.Func{}
	inProd, inTests := map[string]bool{}, map[string]bool{}
	var called []ifaceCall
	for _, pkg := range pkgs {
		if err := pkg.Loader.Check(pkg); err != nil {
			return nil, err
		}
		isTest := func(pos token.Pos) bool {
			return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
		}
		for id, obj := range pkg.TypesInfo.Defs {
			fn, ok := obj.(*types.Func)
			if ok && fn.Exported() && fn.Pkg() != nil && watched[fn.Pkg().Path()] && !isTest(id.Pos()) {
				declared[fn.FullName()] = fn
			}
		}
		for id, obj := range pkg.TypesInfo.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if isTest(id.Pos()) {
				inTests[fn.FullName()] = true
				continue
			}
			inProd[fn.FullName()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					called = append(called, ifaceCall{iface, fn.Name()})
				}
			}
		}
	}
	throughInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || types.IsInterface(recv.Type()) {
			return false
		}
		for _, c := range called {
			if c.name == fn.Name() && implements(recv.Type(), c.iface) {
				return true
			}
		}
		return false
	}
	var only []string
	for n, fn := range declared {
		if inTests[n] && !inProd[n] && !throughInterface(fn) {
			only = append(only, n)
		}
	}
	sort.Strings(only)
	return only, nil
}

// implements reports whether t (or *t) has every method of iface with
// the same signature. Signatures are compared as text qualified by
// import path, not by types.Identical: one loader can hold two
// instances of a package, and a named type of one is not identical to
// its twin in the other.
func implements(t types.Type, iface *types.Interface) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil || signatureText(sel.Type()) != signatureText(m.Type()) {
			return false
		}
	}
	return true
}

// signatureText spells a method's parameter and result types without
// their names, which an implementation is free to choose.
func signatureText(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), (*types.Package).Path))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// checkTestOnly holds the watched packages (paths below the module) to
// the allow-list, in both directions, and returns one message per
// breach.
func checkTestOnly(pkgs []*lint.Package, watched []string, allowed map[string]string) ([]string, error) {
	paths := map[string]bool{}
	for _, w := range watched {
		paths[pkgs[0].Module+"/"+w] = true
	}
	found, err := testOnlyFuncs(pkgs, paths)
	if err != nil {
		return nil, err
	}
	var msgs []string
	stillTestOnly := map[string]bool{}
	for _, n := range found {
		stillTestOnly[n] = true
		if _, ok := allowed[n]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s is referenced only from _test.go files: give it a production caller or delete it", n))
		}
	}
	for n := range allowed {
		if !stillTestOnly[n] {
			msgs = append(msgs, fmt.Sprintf("%s is on the allow-list but is no longer test-only: take it off the list", n))
		}
	}
	sort.Strings(msgs)
	return msgs, nil
}

// The fixture has one function only its test names, one method that
// production reaches only through an interface, and one allow-listed
// seam that production has started to call.
func TestTestOnlyCheck(t *testing.T) {
	const path = "digruber/internal/reachlib"
	pkg := linttest.Package(t, testdata, path)
	got, err := checkTestOnly([]*lint.Package{pkg}, []string{"internal/reachlib"}, map[string]string{
		"(*" + path + ".Disk).FailNext": "fault-injection seam",
		"(*" + path + ".Disk).Corrupt":  "fault-injection seam",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"(*" + path + ".Disk).FailNext is on the allow-list but is no longer test-only: take it off the list",
		path + ".OnlyTests is referenced only from _test.go files: give it a production caller or delete it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

package lint_test

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"digruber/internal/lint"
	"digruber/internal/lint/linttest"
)

// testdata is the fixture tree, absolute as the loader's file names are.
var testdata, _ = filepath.Abs(filepath.Join("testdata", "src"))

// module is the whole module, loaded once for every test that checks
// the real tree: a load and its type-check take seconds.
var module struct {
	once sync.Once
	root string
	pkgs []*lint.Package
	err  error
}

// modulePackages returns the module root and every package under it.
func modulePackages(t *testing.T) (string, []*lint.Package) {
	t.Helper()
	module.once.Do(func() {
		module.root, module.err = lint.FindModuleRoot(".")
		if module.err == nil {
			module.pkgs, module.err = lint.LoadModule(module.root, []string{"./..."})
		}
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.root, module.pkgs
}

// The table drives one linttest run per (analyzer, fixture package):
// fixture files carry their own expectations as "// want" comments, and
// exempt-package fixtures contain violations with no wants, so a silent
// run is the assertion.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		pkgs     []string
	}{
		{lint.Wallclock, []string{
			"digruber/internal/simlib", // violations + clean shapes + skipped test file
			"digruber/internal/vtime",  // exempt: the wall-clock bridge
			"digruber/cmd/tool",        // exempt: real entrypoint
		}},
		{lint.GlobalRand, []string{
			"digruber/internal/randlib", // violations incl. renamed import
			"digruber/internal/netsim",  // exempt: the stream derivation point
		}},
		{lint.NoPanic, []string{
			"digruber/internal/paniclib", // violations + annotated constructor + test file
			"digruber/examples/demo",     // out of scope: not under internal/
		}},
		{lint.LockHeld, []string{
			"digruber/internal/meshlib", // deadlock + blocking shapes + canonical clean patterns
		}},
		{lint.MapIter, []string{
			"digruber/internal/mapiterlib", // order-dependent ranges + sorted-keys idiom
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			linttest.Run(t, testdata, tc.analyzer, tc.pkgs...)
		})
	}
}

// Every analyzer must stay silent on the annotated-violations fixture:
// the //lint:allow forms (line-above, end-of-line, multi-name) all
// suppress — provided they carry a "-- reason" justification.
func TestAllowAnnotations(t *testing.T) {
	for _, a := range lint.All() {
		linttest.Run(t, testdata, a, "digruber/internal/allowlib")
	}
}

// A bare //lint:allow (no "-- reason") suppresses the underlying
// finding but is itself reported, under the pseudo-analyzer "allow" at
// the annotation's position. The want-comment harness cannot place an
// expectation on the line the annotation occupies, so this is asserted
// programmatically.
func TestBareAllow(t *testing.T) {
	pkg := linttest.Package(t, testdata, "digruber/internal/allowbare")
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.Wallclock})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (wallclock suppressed, bare allow reported): %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "allow" || !strings.Contains(d.Message, "missing its justification") {
		t.Errorf("got analyzer %q, message %q; want the bare-allow report under analyzer \"allow\"", d.Analyzer, d.Message)
	}
}

// The suite over the real repository must be clean: every invariant
// violation is either fixed or carries an explicit, justified
// annotation. This is the same gate CI runs via cmd/digruber-lint.
func TestRepositoryIsClean(t *testing.T) {
	_, pkgs := modulePackages(t)
	if len(pkgs) < 15 {
		t.Fatalf("loader found only %d packages; pattern expansion is broken", len(pkgs))
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repository violation: %s", d)
	}
	msgs, err := checkTestOnly(pkgs, reachWatched(pkgs), testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		t.Error(m)
	}
}

// The fixture module type-checks whole, in the variants the go tool
// builds: planlib's external test calls an accessor of planlib's
// export_test.go on a Planner it gets from fleetlib, which imports
// planlib and loads before it.
func TestFixtureModuleTypeChecks(t *testing.T) {
	pkgs, err := lint.LoadModule(filepath.Join(testdata, "digruber"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if err := pkg.Loader.Check(pkg); err != nil {
			t.Error(err)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil || len(all) != 5 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 5, nil", len(all), err)
	}
	two, err := lint.ByName("wallclock, nopanic")
	if err != nil || len(two) != 2 || two[0].Name != "wallclock" || two[1].Name != "nopanic" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := lint.ByName("nosuch"); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}

func TestLoadModuleSkipsTestdata(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root, []string{"./internal/lint/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.Dir, "testdata") {
			t.Errorf("loader descended into %s; testdata must be skipped", p.Dir)
		}
	}
	if len(pkgs) != 2 { // lint + linttest
		t.Fatalf("got %d packages under internal/lint, want 2", len(pkgs))
	}
}

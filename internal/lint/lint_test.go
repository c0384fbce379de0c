package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"digruber/internal/lint"
	"digruber/internal/lint/linttest"
)

var testdata = filepath.Join("testdata", "src")

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
		{lint.WireSchema, []string{
			"digruber/internal/wirelib", // drifted + appended + unrecorded structs vs fixture lockfile
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
	loader := lint.NewTypeLoader("digruber", filepath.Join(testdata, "digruber"))
	pkg, err := lint.LoadDir(loader, "digruber/internal/allowbare",
		filepath.Join(testdata, "digruber", "internal", "allowbare"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.Wallclock}, lint.Options{})
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
// annotation. This is the same gate CI runs via cmd/digruber-lint,
// including the wire-schema lockfile check against the committed
// internal/lint/wireschema.lock.
func TestRepositoryIsClean(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loader found only %d packages; pattern expansion is broken", len(pkgs))
	}
	diags, err := lint.Run(pkgs, lint.All(), lint.Options{WholeModule: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repository violation: %s", d)
	}
	msgs, err := checkTestOnly(pkgs, reachWatched, testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		t.Error(m)
	}
}

// The committed lockfile must round-trip through the formatter and
// cover exactly the structs reachable from the repo's wire entry
// points — including the ones the gob wire-compat tests exercise.
func TestWireSchemaLockfile(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := lint.ComputeSchema(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Structs) == 0 {
		t.Fatal("no gob protocol structs found; wire-root discovery is broken")
	}

	lockPath := lint.LockfilePath(root)
	data, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatalf("committed lockfile missing: %v (record it with digruber-lint -update-schema)", err)
	}
	locked, err := lint.ParseLockfile(lockPath, data)
	if err != nil {
		t.Fatal(err)
	}

	// Round trip: parse(format(locked)) must reproduce the same schema.
	reparsed, err := lint.ParseLockfile(lockPath, lint.FormatLockfile(locked))
	if err != nil {
		t.Fatalf("formatter output does not re-parse: %v", err)
	}
	if got, want := strings.Join(reparsed.Keys(), ","), strings.Join(locked.Keys(), ","); got != want {
		t.Fatalf("round-trip lost entries:\n got %s\nwant %s", got, want)
	}

	// The lockfile is in sync with the tree: same keys, no drift.
	if got, want := strings.Join(locked.Keys(), ","), strings.Join(cur.Keys(), ","); got != want {
		t.Errorf("lockfile keys out of sync with tree:\n lockfile %s\n tree     %s", got, want)
	}
	for _, key := range cur.Keys() {
		l, ok := locked.Structs[key]
		if !ok {
			continue // already reported above
		}
		if diff := lint.DiffStructs(l, cur.Structs[key]); diff != "" {
			t.Errorf("%s: %s", key, diff)
		}
	}

	// The protocol structs the cross-version gob tests exercise must be
	// recorded — if this fails, the lockfile no longer guards the wire.
	for _, key := range []string{
		"digruber/internal/wire.frame",
		"digruber/internal/digruber.StatusArgs",
		"digruber/internal/digruber.StatusReply",
		"digruber/internal/digruber.ExchangeArgs",
		"digruber/internal/digruber.SnapshotReply",
	} {
		if locked.Structs[key] == nil {
			t.Errorf("lockfile does not record %s", key)
		}
	}

	// Mutating field order must surface as a breaking, field-level diff —
	// the failure mode the lockfile exists to catch.
	var mutated *lint.StructSchema
	for _, key := range locked.Keys() {
		if s := locked.Structs[key]; len(s.Fields) >= 2 {
			cp := *s
			cp.Fields = append([]lint.SchemaField(nil), s.Fields...)
			cp.Fields[0], cp.Fields[1] = cp.Fields[1], cp.Fields[0]
			mutated = &cp
			break
		}
	}
	if mutated == nil {
		t.Fatal("no recorded struct with >= 2 fields to mutate")
	}
	diff := lint.DiffStructs(locked.Structs[mutated.Key], mutated)
	if !strings.HasPrefix(diff, "reordered: ") || !strings.Contains(diff, "field 0 recorded as") {
		t.Errorf("swapped fields of %s: diff %q; want a reordered field-level diff", mutated.Key, diff)
	}
}

func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil || len(all) != 6 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 6, nil", len(all), err)
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

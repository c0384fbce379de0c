package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a throwaway module for exercising the CLI against
// a tree with known violations.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func tmpModule(t *testing.T) string {
	t.Helper()
	return writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/badlib/bad.go": `package badlib

import "time"

func Now() time.Time { return time.Now() }
`,
		"internal/badlib/good.go": `package badlib

func Answer() int { return 42 }
`,
	})
}

// runIn drives the direct-mode entry point from dir with captured
// streams, the way main does with os.Stdout/os.Stderr.
func runIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Chdir(dir)
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunReportsViolations(t *testing.T) {
	root := tmpModule(t)
	code, stdout, stderr := runIn(t, root, "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, filepath.Join("internal", "badlib", "bad.go")) ||
		!strings.Contains(stdout, "wallclock") {
		t.Errorf("diagnostic missing from stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 violation(s)") {
		t.Errorf("violation count missing from stderr:\n%s", stderr)
	}
}

func TestRunJSON(t *testing.T) {
	root := tmpModule(t)
	code, stdout, _ := runIn(t, root, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s", code, stdout)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d JSON lines, want 1:\n%s", len(lines), stdout)
	}
	var d struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("line does not parse as JSON: %v\n%s", err, lines[0])
	}
	if d.Analyzer != "wallclock" || d.Line <= 0 || d.Column <= 0 ||
		d.File != filepath.Join("internal", "badlib", "bad.go") {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
}

// A single-file argument analyzes the enclosing package but reports
// only diagnostics in the named file: good.go shares a package with the
// violation in bad.go yet must come back clean.
func TestRunSingleFile(t *testing.T) {
	root := tmpModule(t)
	code, stdout, stderr := runIn(t, root, filepath.Join("internal", "badlib", "good.go"))
	if code != 0 || stdout != "" {
		t.Errorf("clean file: exit %d, stdout %q, stderr %q; want 0 and no output", code, stdout, stderr)
	}
	code, stdout, _ = runIn(t, root, filepath.Join("internal", "badlib", "bad.go"))
	if code != 1 || !strings.Contains(stdout, "wallclock") {
		t.Errorf("violating file: exit %d, stdout %q; want 1 with the wallclock diagnostic", code, stdout)
	}
}

func TestRunCleanTree(t *testing.T) {
	// The repository itself is the clean fixture; syntactic analyzers
	// keep this fast (the full typed suite runs in TestRepositoryIsClean).
	code, stdout, stderr := runIn(t, ".", "-analyzers", "wallclock,globalrand,nopanic", "./...")
	if code != 0 || stdout != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want 0 and no output", code, stdout, stderr)
	}
}

func TestRunUsageErrors(t *testing.T) {
	root := tmpModule(t)
	if code, _, _ := runIn(t, root, "-definitely-not-a-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, stderr := runIn(t, root, "-analyzers", "nosuch", "./..."); code != 2 || !strings.Contains(stderr, "nosuch") {
		t.Errorf("unknown analyzer: exit %d, stderr %q; want 2 naming the analyzer", code, stderr)
	}
	if code, _, _ := runIn(t, root, filepath.Join("internal", "badlib", "missing.go")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	code, stdout, _ := runIn(t, ".", "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	names := []string{"wallclock", "globalrand", "nopanic", "lockheld", "mapiter"}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != len(names) {
		t.Errorf("-list shows %d passes, want %d:\n%s", len(lines), len(names), stdout)
	}
	for i, name := range names {
		if i >= len(lines) || strings.Fields(lines[i])[0] != name {
			t.Errorf("-list line %d is not %s:\n%s", i+1, name, stdout)
		}
	}
}

// Vet-tool mode: go vet runs the built binary once per package of the
// lint fixture module, and the binary type-checks each package from the
// driver's config alone. A violating package fails the run with its
// diagnostics; a clean one passes.
func TestVetTool(t *testing.T) {
	tool := filepath.Join(t.TempDir(), "digruber-lint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	vet := func(pkg string) (int, string) {
		cmd := exec.Command("go", "vet", "-vettool="+tool, pkg)
		cmd.Dir = filepath.Join("..", "..", "internal", "lint", "testdata", "src", "digruber")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), string(out)
		} else if err != nil {
			t.Fatalf("go vet %s: %v", pkg, err)
		}
		return 0, string(out)
	}
	code, out := vet("./internal/paniclib")
	if code != 1 || !strings.Contains(out, "paniclib.go:10:3: panic in library package digruber/internal/paniclib") {
		t.Errorf("violating package: exit %d, output:\n%s\nwant 1 with the nopanic diagnostic", code, out)
	}
	if code, out := vet("./internal/planlib"); code != 0 {
		t.Errorf("clean package: exit %d, output:\n%s\nwant 0", code, out)
	}
}

package exp

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// importClosure returns the module packages under internal/ that the
// non-test files of dir import, directly or not, keyed by the last
// element of their path; dir's own package is included.
func importClosure(t *testing.T, root, dir string) map[string]bool {
	t.Helper()
	const prefix = "digruber/internal/"
	seen := map[string]bool{filepath.Base(dir): true}
	queue := []string{dir}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(root, d), func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, imp := range f.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					name, ok := strings.CutPrefix(path, prefix)
					if !ok || seen[name] {
						continue
					}
					seen[name] = true
					queue = append(queue, filepath.Join("internal", name))
				}
			}
		}
	}
	return seen
}

// TestDesignExperimentTableNamesImportedModules holds DESIGN.md's
// per-experiment index to the code: every package a row's Modules
// column names is one the experiments build on. "same" repeats the row
// above; "wire(GT4)" names wire.
func TestDesignExperimentTableNamesImportedModules(t *testing.T) {
	root := filepath.Join("..", "..")
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	closure := importClosure(t, root, filepath.Join("internal", "exp"))
	_, index, ok := strings.Cut(string(design), "\n## 4. Per-experiment index\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## 4. Per-experiment index" section`)
	}
	col, rows := -1, 0
	var prev []string
	for _, line := range strings.Split(index, "\n") {
		if !strings.HasPrefix(line, "|") {
			if col >= 0 {
				break // the table has ended
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if col < 0 {
			for i, c := range cells {
				if c == "Modules" {
					col = i
				}
			}
			continue
		}
		if col >= len(cells) || strings.Trim(cells[col], "-") == "" {
			continue // the separator row
		}
		rows++
		mods := prev
		if cells[col] != "same" {
			mods = nil
			for _, m := range strings.Split(cells[col], ",") {
				m, _, _ = strings.Cut(strings.TrimSpace(m), "(")
				mods = append(mods, m)
			}
		}
		prev = mods
		for _, m := range mods {
			if !closure[m] {
				t.Errorf("DESIGN.md %s row names %q, which internal/exp does not import", cells[0], m)
			}
		}
	}
	if col < 0 || rows < 10 {
		t.Fatalf("found a Modules column at %d and %d rows; the parse has drifted from DESIGN.md", col, rows)
	}
}

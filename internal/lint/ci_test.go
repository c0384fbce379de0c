package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	goTestRun = regexp.MustCompile(`go test .*-(?:run|fuzz)[ =]'?([^' ]+)'?(.*)`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// TestCIRunPatternsNameTests holds every `go test ... -run X` (and
// -fuzz X) of the CI workflow to the tree: each alternative of X must
// match a Test, Fuzz or Benchmark function in the packages the command
// names. go test passes a pattern that matches nothing, so a step whose
// test was deleted or renamed would otherwise go quiet.
func TestCIRunPatternsNameTests(t *testing.T) {
	root := filepath.Join("..", "..") // go test runs in the package directory
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for _, m := range goTestRun.FindAllStringSubmatch(string(ci), -1) {
		commands++
		var names []string
		for _, pkg := range strings.Fields(m[2]) {
			files, _ := filepath.Glob(filepath.Join(root, pkg, "*_test.go"))
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, fn := range testFunc.FindAllStringSubmatch(string(src), -1) {
					names = append(names, fn[1])
				}
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			if !slices.ContainsFunc(names, regexp.MustCompile(alt).MatchString) {
				t.Errorf("ci.yml: -run alternative %q matches no test in the packages of: %s", alt, strings.TrimSpace(m[0]))
			}
		}
	}
	if commands < 5 {
		t.Fatalf("found %d go test commands with -run in ci.yml; the pattern has drifted from the file", commands)
	}
}

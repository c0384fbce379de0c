// Command digruber-lint runs the determinism lint suite over the repo:
// custom analyzers enforcing the simulation invariants that make the
// paper-shape experiments replayable (virtual clocks, seeded RNG
// streams, error returns in libraries, no blocking under a held lock,
// deterministic map-iteration emit order).
//
// Direct mode, from anywhere inside the module:
//
//	go run ./cmd/digruber-lint ./...
//	go run ./cmd/digruber-lint -analyzers wallclock,nopanic ./internal/...
//	go run ./cmd/digruber-lint internal/wire/client.go
//	go run ./cmd/digruber-lint -json ./...
//
// Arguments may be package patterns or single .go files; a file
// argument analyzes its enclosing package but reports only diagnostics
// in the named file(s). -json emits one JSON object per diagnostic
// (file, line, column, analyzer, message) per line.
//
// Vet-tool mode (the go vet driver invokes the binary once per package
// with a JSON config file):
//
//	go build -o /tmp/digruber-lint ./cmd/digruber-lint
//	go vet -vettool=/tmp/digruber-lint ./...
//
// Exit status is 0 when the tree is clean, 1 when violations are found,
// 2 on usage or load errors. Intentional sites are annotated in the
// source with "//lint:allow <analyzer> -- reason" (the reason is
// mandatory; a bare allow is itself a violation).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"digruber/internal/lint"
)

func main() {
	// The go vet driver probes its tool with -V=full (a version line it
	// hashes into the build cache key, so the version moves whenever the
	// suite's passes do) and -flags (a JSON description of tool flags;
	// this suite exposes none to the driver), then invokes it once per
	// package with a *.cfg JSON file.
	for _, arg := range os.Args[1:] {
		switch {
		case strings.HasPrefix(arg, "-V"):
			fmt.Println("digruber-lint version 4")
			return
		case arg == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(arg, ".cfg"):
			os.Exit(runVetTool(arg))
		}
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the direct-mode entry point, factored out of main so the CLI
// test can drive it with captured streams and inspect the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("digruber-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list analyzers and exit")
		analyzers = fs.String("analyzers", "", "comma-separated subset to run (default: all)")
		jsonOut   = fs.Bool("json", false, "emit diagnostics as JSON, one object per line")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: digruber-lint [-list] [-json] [-analyzers a,b] [packages or files]\n\n"+
				"Arguments are package patterns (./...) or single .go files and default to\n"+
				"./... relative to the enclosing module root.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	suite, err := lint.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "digruber-lint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "digruber-lint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "digruber-lint:", err)
		return 2
	}
	pkgs, only, err := lint.LoadTargets(root, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "digruber-lint:", err)
		return 2
	}

	diags, err := lint.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(stderr, "digruber-lint:", err)
		return 2
	}
	if only != nil {
		kept := diags[:0]
		for _, d := range diags {
			if only[d.Pos.Filename] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	for _, d := range diags {
		if *jsonOut {
			out, err := json.Marshal(jsonDiag{
				File:     relPath(root, d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			if err != nil {
				fmt.Fprintln(stderr, "digruber-lint:", err)
				return 2
			}
			fmt.Fprintln(stdout, string(out))
		} else {
			d.Pos.Filename = relPath(root, d.Pos.Filename)
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "digruber-lint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonDiag is the -json output shape, one object per line.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// relPath shortens a diagnostic path relative to root for readability.
func relPath(root, name string) string {
	if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return name
}

// vetConfig is the subset of the go vet driver's per-package JSON config
// this tool needs (the same file golang.org/x/tools' unitchecker reads).
type vetConfig struct {
	Dir         string
	ImportPath  string
	ModulePath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// runVetTool analyzes one package as directed by the vet driver. The
// driver expects the facts file named by VetxOutput to exist afterwards
// (this suite exports no facts, so it is written empty), diagnostics on
// stderr, and a non-zero exit when violations are found.
func runVetTool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "digruber-lint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "digruber-lint: parse %s: %v\n", cfgPath, err)
		return 2
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "digruber-lint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	pkg, err := lint.LoadVetPackage(cfg.Dir, cfg.ImportPath, cfg.ModulePath, cfg.GoFiles, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "digruber-lint:", err)
		return 2
	}
	diags, err := lint.Run([]*lint.Package{pkg}, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "digruber-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

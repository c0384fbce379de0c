// Command digruber-bench is the repository's benchmark: one scheduling
// decision — client → wire → handler → engine select → engine record →
// (WAL) → reply — measured end to end and layer by layer at the paper's
// shape (300 sites, 10 VOs × 10 groups, 1 or 3 decision points), on
// five workloads that each load a different layer. See README.md in
// this directory for the metric and workload tables and how to read
// the output; BENCHMARK.json at the repository root carries the
// regression bounds.
//
//	go run ./cmd/digruber-bench                       # all workloads, slices interleaved
//	go run ./cmd/digruber-bench -workload toy4-twocall -seed 7 -trace 1
//	go run ./cmd/digruber-bench -json a.json && … -json b.json
//	go run ./cmd/digruber-bench -compare a.json b.json
//
// Every layer is measured from outside: by timing calls into its public
// functions, by wrapping wire.Transport, and by switching on the
// existing trace plane on a real clock. The program under test sees
// only inputs generated from -seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("digruber-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all (see -list)")
	seed := fs.Int64("seed", 1, "seed of every generated input: grid, jobs, client streams")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload, split over -slices")
	slices := fs.Int("slices", 20, "timed slices per workload; timing metrics are medians over them")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, planes off; 1: per-layer metrics from the traced phase and the ledger")
	jsonOut := fs.String("json", "", "also write full results (per-slice samples, checks) to this file")
	list := fs.Bool("list", false, "list workloads and metrics, then exit")
	compare := fs.Bool("compare", false, "compare two -json files (base, new) against the bounds in ./"+specFile)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "digruber-bench: -compare needs two result files: base.json new.json")
			return 2
		}
		return compareFiles(specFile, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	chosen := specs
	if *workload != "all" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "digruber-bench: unknown workload %q (see -list)\n", *workload)
			return 2
		}
		chosen = []spec{s}
	}
	if *slices < 4 || *seconds <= 0 {
		fmt.Fprintln(stderr, "digruber-bench: need at least 4 slices and a positive -seconds")
		return 2
	}
	slice := time.Duration(*seconds / float64(*slices) * float64(time.Second))

	fmt.Fprintf(stdout, "digruber-bench: seed %d, %d slices × %s (+%s ramp each), %d closed-loop clients, zero think time\n",
		*seed, *slices, slice, fullScale.ramp, clients)
	fmt.Fprintf(stdout, "real clock, wire.Instant profile, no emulated network: every time is processor time on this host (%d CPUs, %s);\n",
		runtime.NumCPU(), runtime.Version())
	fmt.Fprintln(stdout, "clients and decision points share the process, so cpu_us_per_op covers both.")

	runs := make([]*run, len(chosen))
	host := &hostSpeed{window: fullScale.speedWin}
	for i, s := range chosen {
		runs[i] = newRun(s, *seed, fullScale, *traced != 0, *slices, slice, filepath.Join(".bench_build", "digruber-bench"), host)
	}
	results, err := runAll(runs)
	if err != nil {
		fmt.Fprintf(stderr, "digruber-bench: %v\n", err)
		return 1
	}
	defs := endToEnd
	if *traced != 0 {
		defs = perLayer
	}
	code := 0
	for _, res := range results {
		if miss := res.missing(defs); len(miss) > 0 {
			res.check("every-metric-emitted", false, "missing %v", miss)
		}
		printReport(stdout, res, defs)
		if !res.correct() {
			code = 1
		}
		if err := printResultLine(stdout, res, defs); err != nil {
			fmt.Fprintf(stderr, "digruber-bench: %v\n", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, results); err != nil {
			fmt.Fprintf(stderr, "digruber-bench: %v\n", err)
			return 1
		}
	}
	return code
}

// runAll takes the runs through their phases: every set-up and count
// phase first, then the timed slices interleaved round-robin across
// workloads, then reduction and verification.
func runAll(runs []*run) ([]*result, error) {
	defer func() {
		for _, r := range runs {
			r.close()
		}
	}()
	for _, r := range runs {
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s: %w", r.spec.name, err)
		}
	}
	for _, st := range interleave(len(runs), runs[0].slices) {
		r := runs[st.run]
		if err := r.runSlice(st.slice); err != nil {
			return nil, fmt.Errorf("%s slice %d: %w", r.spec.name, st.slice, err)
		}
	}
	results := make([]*result, len(runs))
	for i, r := range runs {
		r.finish()
		results[i] = r.res
	}
	return results, nil
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-24s %s\n", s.name, s.why)
	}
	for _, group := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end metrics (-trace 0):", endToEnd}, {"per-layer metrics (-trace 1):", perLayer}} {
		fmt.Fprintln(w, group.title)
		for _, d := range group.defs {
			fmt.Fprintf(w, "  %-36s %-12s better: %s\n", d.name, d.unit, d.better)
		}
	}
}

// printReport prints one workload's metrics by name and unit, with the
// range over slices beside each median, then its checks.
func printReport(w io.Writer, res *result, defs []metricDef) {
	s, _ := specByName(res.Workload)
	fmt.Fprintf(w, "\n== %s (seed %d): %s\n", res.Workload, res.Seed, s.why)
	fmt.Fprintf(w, "   decision_digest %s   attempted %d   failed %d\n", res.Digest, res.Attempted, res.Failed)
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-12s", d.name, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			lo, hi := minMax(m.Samples)
			fmt.Fprintf(w, " median of %d, %.4f–%.4f, as the host ran it %.4f", len(m.Samples), lo, hi, median(m.RawSamples))
		}
		fmt.Fprintln(w)
	}
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %-32s %s\n", verdict, c.Name, c.Detail)
	}
}

// printResultLine prints the one-line JSON object the benchmark driver
// reads from the end of standard output.
func printResultLine(w io.Writer, res *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			line.Metrics[d.name] = value{Value: m.Value, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Results []*result `json:"results"`
}

func writeResults(path string, results []*result) error {
	data, err := json.MarshalIndent(resultFile{Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

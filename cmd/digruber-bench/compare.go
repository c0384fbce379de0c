package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// specFile is where -compare takes bounds from: the benchmark's
// definition, at the root of the checkout the command runs in.
const specFile = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json -compare reads: the
// end-to-end metrics with their directions and regression bounds.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	pass       verdict = "pass"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
)

// judge compares a base and a new reading of one metric: the values
// and, for a timing, the per-slice samples each is the median of. worse
// is the share of the base value by which the new value is worse
// (negative when it is better). noise is how far two medians of such
// slices differ by chance: two standard errors of their difference, each
// median's error taken from its slices' quartile distance (medianError);
// 0 for an exact count.
//
// A median worse by more than the bound is a regression however noisy
// the slices: the gate must fire on real output, and a false alarm costs
// a rerun. A pair inside the bound whose noise exceeds the bound is
// unresolved, not unchanged — a regression of the bound's size could
// hide there — unless every new slice reads better than every base one.
func judge(base, cur []float64, baseValue, curValue float64, better string, bound float64) (v verdict, worse, noise float64) {
	sign := 1.0 // lower is better: growing is worse
	if better == "higher" {
		sign = -1
	}
	scale := baseValue
	if scale == 0 {
		scale = 1
	}
	worse = sign * (curValue - baseValue) / scale
	noise = 2 * math.Hypot(medianError(base), medianError(cur))
	switch {
	case worse > bound:
		return regressed, worse, noise
	case noise > bound:
		bLo, bHi := minMax(base)
		cLo, cHi := minMax(cur)
		if allBetter := (better == "higher" && cLo > bHi) || (better != "higher" && cHi < bLo); !allBetter {
			return unresolved, worse, noise
		}
	}
	return pass, worse, noise
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies the spec's bounds to the two result files and
// returns the exit code: 1 when anything regressed, went missing or
// failed verification, 2 when there was nothing to compare.
func compareFiles(specPath, basePath, newPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var base, cur resultFile
	for _, in := range []struct {
		path string
		into interface{}
	}{{specPath, &spec}, {basePath, &base}, {newPath, &cur}} {
		if err := readJSON(in.path, in.into); err != nil {
			fmt.Fprintf(stderr, "digruber-bench: %v\n", err)
			return 2
		}
	}
	compared, failures := compareResults(spec, base.Results, cur.Results, stdout)
	switch {
	case failures > 0:
		fmt.Fprintf(stdout, "%d failure(s)\n", failures)
		return 1
	case compared == 0:
		fmt.Fprintf(stderr, "digruber-bench: %s and %s share no end-to-end metric of %s\n", basePath, newPath, specPath)
		return 2
	}
	return 0
}

// compareResults prints one row per (workload, metric) of the base and
// returns how many pairs it judged and how many failures it found: a
// metric that regressed, a workload or end-to-end metric the base has
// and the new file lost, a new run that failed verification. Timing
// metrics get a second row for the slices as the host ran them, before
// host-speed adjustment: a witness, not a gate. A changed
// decision_digest on one seed is reported and not failed: a change that
// means to place jobs differently changes it.
func compareResults(spec benchSpec, base, cur []*result, w io.Writer) (compared, failures int) {
	byName := make(map[string]*result, len(cur))
	for _, r := range cur {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-24s %-20s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "noise", "verdict")
	for _, b := range base {
		c, ok := byName[b.Workload]
		if !ok {
			failures++
			fmt.Fprintf(w, "%-24s MISSING from the new file\n", b.Workload)
			continue
		}
		delete(byName, b.Workload)
		fmt.Fprintf(w, "%-24s host speed %.3f → %.3f of nominal\n", b.Workload, b.HostSpeed, c.HostSpeed)
		if !c.correct() {
			failures++
			fmt.Fprintf(w, "%-24s verification FAILED in the new run (%d of %d decisions failed)\n", c.Workload, c.Failed, c.Attempted)
		}
		if b.Seed == c.Seed && b.Digest != c.Digest {
			fmt.Fprintf(w, "%-24s notice: decision_digest differs on seed %d: %s → %s\n", c.Workload, c.Seed, b.Digest, c.Digest)
		}
		for _, m := range spec.EndToEnd {
			bm, cm := b.Metrics[m.Name], c.Metrics[m.Name]
			if bm == nil {
				continue
			}
			if cm == nil {
				failures++
				fmt.Fprintf(w, "%-24s %-20s MISSING from the new file\n", b.Workload, m.Name)
				continue
			}
			compared++
			const rowFormat = "%-24s %-20s %14.4f %14.4f %+8.2f%% %6.2f%% %6.2f%%  %s\n"
			v, worse, noise := judge(bm.Samples, cm.Samples, bm.Value, cm.Value, m.Better, m.Bound)
			fmt.Fprintf(w, rowFormat, b.Workload, m.Name, bm.Value, cm.Value, 100*worse, 100*m.Bound, 100*noise, v)
			if v == regressed {
				failures++
			}
			if len(bm.RawSamples) > 0 && len(cm.RawSamples) > 0 {
				bv, cv := median(bm.RawSamples), median(cm.RawSamples)
				v, worse, noise := judge(bm.RawSamples, cm.RawSamples, bv, cv, m.Better, m.Bound)
				fmt.Fprintf(w, rowFormat, "", "  as the host ran it", bv, cv, 100*worse, 100*m.Bound, 100*noise, "("+strings.ToLower(string(v))+")")
			}
		}
	}
	for _, c := range cur {
		if _, left := byName[c.Workload]; left {
			fmt.Fprintf(w, "%-24s notice: not in the base file, nothing to compare\n", c.Workload)
		}
	}
	return compared, failures
}

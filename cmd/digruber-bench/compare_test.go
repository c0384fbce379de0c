package main

import (
	"bytes"
	"strings"
	"testing"
)

func slicesAround(center float64, offsets ...float64) *metric {
	m := &metric{Unit: "us"}
	for _, o := range offsets {
		m.Samples = append(m.Samples, center*(1+o))
	}
	m.Value = median(m.Samples)
	return m
}

// realSlices is peak_ops_s of the twenty slices of one real run
// (paper300-twocall, seed 6, on the baseline sandbox): one slice stalled
// to 545, one ran ahead to 2862, so max − min is 125 % of the median
// while the quartiles lie 11 % apart.
var realSlices = []float64{1881, 1807, 1861, 545, 2318, 1854, 1593, 1681, 1854, 1818, 2862, 1983, 1719, 1908, 2373, 1713, 1921, 2139, 1848, 1729}

func scaled(samples []float64, by float64) *metric {
	m := &metric{Unit: "decisions/s"}
	for _, s := range samples {
		m.Samples = append(m.Samples, s*by)
	}
	m.Value = median(m.Samples)
	return m
}

func TestJudge(t *testing.T) {
	tight := []float64{-0.01, 0, 0.01, -0.005, 0.005}
	wide := []float64{-0.15, 0, 0.15, -0.1, 0.1}
	for _, tc := range []struct {
		name      string
		base, cur *metric
		better    string
		bound     float64
		want      verdict
	}{
		{"steady", slicesAround(100, tight...), slicesAround(101, tight...), "lower", 0.10, pass},
		{"deliberate 20% slowdown", slicesAround(100, tight...), slicesAround(120, tight...), "lower", 0.10, regressed},
		{"20% faster is no regression", slicesAround(100, tight...), slicesAround(80, tight...), "lower", 0.10, pass},
		{"throughput drop", slicesAround(2000, tight...), slicesAround(1700, tight...), "higher", 0.10, regressed},
		{"throughput gain", slicesAround(2000, tight...), slicesAround(2400, tight...), "higher", 0.10, pass},
		{"inside the bound, noise wider than it", slicesAround(100, wide...), slicesAround(105, wide...), "lower", 0.10, unresolved},
		{"median past the bound fails however noisy", slicesAround(100, wide...), slicesAround(112, wide...), "lower", 0.10, regressed},
		{"noisy but every slice better", slicesAround(100, wide...), slicesAround(60, wide...), "lower", 0.10, pass},
		{"real slices against themselves", scaled(realSlices, 1), scaled(realSlices, 1), "higher", 0.10, pass},
		{"real slices, 5% slower", scaled(realSlices, 1), scaled(realSlices, 0.95), "higher", 0.10, pass},
		{"real slices, uniform 40% slowdown", scaled(realSlices, 1), scaled(realSlices, 0.6), "higher", 0.10, regressed},
		{"real slices, uniform 40% slowdown, widest bound", scaled(realSlices, 1), scaled(realSlices, 0.6), "higher", 0.25, regressed},
		{"real slices as times, 1.5x", scaled(realSlices, 1), scaled(realSlices, 1.5), "lower", 0.25, regressed},
		{"exact count moved", &metric{Value: 3557}, &metric{Value: 3600}, "lower", 0.01, regressed},
		{"exact count held", &metric{Value: 3557}, &metric{Value: 3557.4}, "lower", 0.01, pass},
		{"ratio fell from one", &metric{Value: 1}, &metric{Value: 0.99}, "higher", 0.001, regressed},
	} {
		if got, _, _ := judge(tc.base.Samples, tc.cur.Samples, tc.base.Value, tc.cur.Value, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: judged %s, want %s", tc.name, got, tc.want)
		}
	}
}

// The gate must catch a deliberate regression end to end: through the
// result files' shape, the spec's bounds and the failure count the exit
// status comes from.
func TestCompareCatchesADeliberateRegression(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../../"+specFile, &spec); err != nil {
		t.Fatal(err)
	}
	mk := func(ops, allocs float64, digest string, failed int64) []*result {
		return []*result{{
			Workload: "paper300-twocall", Seed: 6, Digest: digest, Attempted: 1000, Failed: failed,
			Metrics: map[string]*metric{
				"peak_ops_s":    scaled(realSlices, ops),
				"allocs_per_op": {Value: allocs, Unit: "count"},
			},
		}}
	}
	base := mk(1, 3556.6, "d1", 0)
	lost := mk(1, 3556.6, "d1", 0)
	delete(lost[0].Metrics, "peak_ops_s")
	for _, tc := range []struct {
		name string
		cur  []*result
		want int
		says string
	}{
		{"same code", mk(1.01, 3556.7, "d1", 0), 0, "pass"},
		{"uniform 40% slowdown of a real run", mk(0.6, 3556.6, "d1", 0), 1, "REGRESSED"},
		{"allocs +2%", mk(1, 3628, "d1", 0), 1, "REGRESSED"},
		{"other decisions on the same seed are reported, not failed", mk(1, 3556.6, "d2", 0), 0, "decision_digest differs"},
		{"failed decisions", mk(1, 3556.6, "d1", 3), 1, "verification FAILED"},
		{"a gated metric is gone", lost, 1, "MISSING"},
		{"the workload is gone", nil, 1, "MISSING"},
	} {
		var out bytes.Buffer
		_, got := compareResults(spec, base, tc.cur, &out)
		if got != tc.want || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: %d failures, want %d, output mentioning %q:\n%s", tc.name, got, tc.want, tc.says, out.String())
		}
	}
}

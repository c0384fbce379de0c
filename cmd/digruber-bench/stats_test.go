package main

import (
	"math"
	"reflect"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{n: 1000, p: 0.99, ok: false},           // 9 samples beyond index 990
		{n: 1001, p: 0.99, ok: true, want: 990}, // 10 beyond
		{n: 5000, p: 0.99, ok: true, want: 4950},
		{n: 20, p: 0.5, ok: false}, // 9 beyond index 10
		{n: 21, p: 0.5, ok: true, want: 10},
		{n: 1000, p: 0.01, ok: true, want: 10}, // low tail: 10 samples below
		{n: 999, p: 0.01, ok: false},
		{n: 0, p: 0.5, ok: false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedianAndSpreadOverSlices(t *testing.T) {
	slices := []float64{2100, 1900, 2000, 2600, 2050}
	if got := median(slices); got != 2050 {
		t.Errorf("median = %v, want 2050", got)
	}
	if !reflect.DeepEqual(slices, []float64{2100, 1900, 2000, 2600, 2050}) {
		t.Errorf("median reordered its argument: %v", slices)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got, want := spread(slices), (2600.0-1900)/2050; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one slice = %v, want 0", got)
	}
}

// quartileSpread must read what the benchmark's driver reads: the values
// are those of Python's statistics.quantiles(values, n=4).
func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   float64
	}{
		{realSlices, (1967.5 - 1721.5) / 1854},
		{[]float64{2100, 1900, 2000, 2600, 2050}, (2350.0 - 1950) / 2050},
		{[]float64{1, 2, 3}, 1},
		{[]float64{5, 7}, 0.5}, // two values: the quartiles are extrapolated
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(tc.values); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.values, got, tc.want)
		}
	}
	// One stalled slice moves max − min, not the quartiles.
	if mm, q := spread(realSlices), quartileSpread(realSlices); mm < 1.2 || q > 0.14 {
		t.Errorf("real slices: max−min spread %v, quartile spread %v", mm, q)
	}
}

func TestInterleaveIsRoundRobinAcrossWorkloads(t *testing.T) {
	got := interleave(3, 2)
	want := []step{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("interleave(3, 2) = %v, want %v", got, want)
	}
}

func TestDecisionDigestSeesOrderAndSite(t *testing.T) {
	a := []placement{{job: "j1", site: "s1"}, {job: "j2", site: "s2"}}
	b := []placement{{job: "j2", site: "s2"}, {job: "j1", site: "s1"}}
	c := []placement{{job: "j1", site: "s1"}, {job: "j2", site: "s3"}}
	if decisionDigest(a) != decisionDigest(append([]placement(nil), a...)) {
		t.Error("equal sequences hash differently")
	}
	if decisionDigest(a) == decisionDigest(b) || decisionDigest(a) == decisionDigest(c) {
		t.Error("digest misses a reordering or a changed site")
	}
}

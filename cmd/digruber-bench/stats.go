package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile before
// the harness reports it: with fewer the value is one of a handful of
// outliers, not an estimate of the tail.
const tailSamples = 10

// percentile returns the p-quantile (0 < p < 1) of sorted, or false
// when fewer than tailSamples samples lie beyond it on the tail side.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	idx := int(p * float64(n))
	if idx >= n {
		idx = n - 1
	}
	beyond := n - 1 - idx
	if p < 0.5 {
		beyond = idx
	}
	if n == 0 || beyond < tailSamples {
		return 0, false
	}
	return sorted[idx], true
}

// median returns the middle of values (mean of the middle two when the
// count is even), 0 for none. It does not reorder its argument.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// minMax returns the extremes of values (0, 0 for none).
func minMax(values []float64) (lo, hi float64) {
	for i, v := range values {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// spread is (max − min) ÷ median of values: how far the slices of one
// run disagree. 0 when there is nothing to compare.
func spread(values []float64) float64 {
	m := median(values)
	if len(values) < 2 || m == 0 {
		return 0
	}
	lo, hi := minMax(values)
	return (hi - lo) / m
}

// quartileSpread is the distance between the first and the third
// quartile of values ÷ their median: the measure of noise the benchmark's
// baseline and -compare use, which a single stalled slice does not move.
// Quartiles are taken as Python's statistics.quantiles(values, n=4)
// takes them. 0 when there are fewer than two values.
func quartileSpread(values []float64) float64 {
	n, m := len(values), median(values)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / m
}

// medianError is the standard error of the median of values as a share
// of it: 1.2533 σ ÷ √n for near-normal samples, with σ estimated from the
// quartile distance (÷ 1.349), which a stalled slice does not move.
func medianError(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	return 1.2533 / 1.349 * quartileSpread(values) / math.Sqrt(float64(len(values)))
}

// placement is one brokered decision as the client saw it.
type placement struct {
	job, site, vo string
}

// decisionDigest hashes the job→site sequence of the count phase; equal
// seeds must give equal digests.
func decisionDigest(ps []placement) string {
	h := sha256.New()
	for _, p := range ps {
		fmt.Fprintf(h, "%s=%s\n", p.job, p.site)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// step is one unit of the timed phase: slice number slice of workload
// number run.
type step struct{ run, slice int }

// interleave orders the timed phase round-robin across workloads —
// slice 0 of every workload, then slice 1 of every workload, … — so a
// slow minute on a shared host is spread over all of them instead of
// landing on one.
func interleave(runs, slices int) []step {
	out := make([]step, 0, runs*slices)
	for s := 0; s < slices; s++ {
		for r := 0; r < runs; r++ {
			out = append(out, step{run: r, slice: s})
		}
	}
	return out
}
